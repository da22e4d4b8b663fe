"""An exact check of operator products and membership certificates that
does not use the product.

Taylor's identity: an operator D of order <= d over Q[s] (or Q[x]) is
zero if and only if D[s^gamma] = 0 for every |gamma| <= d.  So A . B = C
holds exactly when C[s^gamma] = A[B[s^gamma]] for every |gamma| up to
the order of A plus that of B, and a certificate p = sum cof_i . gen_i +
rem holds exactly when p[s^gamma] = sum cof_i[gen_i[s^gamma]] +
rem[s^gamma] for every |gamma| up to the largest order among its parts.
Operators act here through `act`, sum_beta a_beta d^beta f with each
d^beta a chain of `Poly.partial_pos`, apart from `WeylOp.__mul__` and
`WeylOp.apply`.
"""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given
from hypothesis import strategies as st

from exact_oracles import weyl_of_blocks
from test_kernel_properties import BOUNDED, weylops
from symtrace.annihilators import generator_system
from symtrace.membership import reduce_modulo_system
from symtrace.poly import Poly
from symtrace.spaces import sigma_space, x_space
from symtrace.transport import elementary_symmetric_op, xi_transport
from symtrace.weyl import WeylOp


def act(op: WeylOp, f: Poly) -> Poly:
    """op[f] as sum_beta a_beta d^beta f, the cofactor's terms collected once."""
    pieces = []
    for beta, a in op.sorted_terms():
        g = f
        for pos, e in enumerate(beta):
            for _ in range(e):
                g = g.partial_pos(pos)
        pieces.append(a * g)
    return Poly.sum(f.space, pieces)


def monomials(space, d: int) -> list[Poly]:
    """s^gamma for every |gamma| <= d."""
    n = space.nvars
    return [Poly.monomial(space, tuple(c.count(i) for i in range(1, n + 1)))
            for c in combinations_with_replacement(range(n + 1), max(d, 0))]


def product_holds(a: WeylOp, b: WeylOp, c: WeylOp) -> bool:
    """c == a . b, decided on the monomials of degree <= ord a + ord b."""
    return all(act(c, m) == act(a, act(b, m)) for m in monomials(a.space, a.order() + b.order()))


def certificate_holds(p: WeylOp, entries, remainder: WeylOp, gens: dict) -> bool:
    """p == sum cof . gens[gid] + remainder, decided on the monomials of
    degree <= the largest order among p, the products and the remainder."""
    d = max([p.order(), remainder.order()] + [cof.order() + gens[gid].order() for gid, cof in entries])
    for m in monomials(p.space, d):
        images = {gid: act(gen, m) for gid, gen in gens.items()}
        rhs = Poly.sum(p.space, [act(cof, images[gid]) for gid, cof in entries] + [act(remainder, m)])
        if act(p, m) != rhs:
            return False
    return True


@BOUNDED
@given(st.integers(1, 3), st.booleans(), st.data())
def test_the_product_agrees_with_taylors_identity(k, over_x, data):
    space = x_space(k) if over_x else sigma_space(k)
    a, b = data.draw(weylops(space)), data.draw(weylops(space))
    assert product_holds(a, b, a * b)


def high_order_pair(space) -> tuple[WeylOp, WeylOp]:
    """Two operators with Fraction coefficients whose product runs delta_h >= 3:
    the drawn operators above stop at d-exponents of 2."""
    k = space.nvars

    def op(*terms):  # (partial multi-index, coefficient exponent, coefficient) per term
        return weyl_of_blocks(space, {beta: Poly.monomial(space, exp, c) for beta, exp, c in terms})

    if k == 1:
        return (op(((3,), (0,), Fraction(1, 2)), ((4,), (1,), Fraction(2, 3))),
                op(((1,), (4,), Fraction(1, 3)), ((0,), (3,), Fraction(5, 7))))
    if k == 2:  # d_1^3 d_2^2 . (s_1^3 s_2^2 / 3), plus a term on each side
        return (op(((3, 2), (0, 0), 1), ((3, 0), (0, 1), Fraction(1, 2))),
                op(((0, 0), (3, 2), Fraction(1, 3)), ((0, 1), (4, 0), Fraction(-3, 4))))
    return (op(((3, 0, 3), (0, 0, 1), Fraction(2, 3)), ((0, 1, 0), (0, 0, 0), 1)),
            op(((0, 1, 0), (3, 0, 4), Fraction(1, 5)), ((0, 0, 0), (0, 1, 3), Fraction(-1, 3))))


@pytest.mark.parametrize("over_x", [False, True])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_the_product_agrees_with_taylors_identity_at_high_order(k, over_x):
    space = x_space(k) if over_x else sigma_space(k)
    a, b = high_order_pair(space)
    assert product_holds(a, b, a * b)
    assert product_holds(b, a, b * a)
    if k == 2:  # the order-zero part of d_1^3 d_2^2 . (s_1^3 s_2^2 / 3) is 3! 2! / 3
        d, c = WeylOp.partial(space, 1, 3) * WeylOp.partial(space, 2, 2), Poly.monomial(space, (3, 2), Fraction(1, 3))
        assert dict((d * WeylOp.from_poly(c)).sorted_terms())[(0, 0)] == Poly.constant(space, 4)


@pytest.mark.parametrize("over_x", [False, True])
@pytest.mark.parametrize("a", [2, 3, 4])
def test_the_fan_bounded_by_both_factors_agrees_with_taylors_identity(a, over_x):
    # A's d_1-degree a runs below, at and above B's s_1-degree 3, and each
    # field of the OR of A's keys equals its largest exponent, so the fan
    # reaches min(a, 3) in d_1 and 1 in d_2 exactly; a bound one short
    # drops the delta there, whose term is not zero
    space = x_space(2) if over_x else sigma_space(2)
    A = weyl_of_blocks(space, {(a, 1): Poly.monomial(space, (0, 1), Fraction(-2, 3)),
                               (0, 1): Poly.monomial(space, (0, 1))})
    B = weyl_of_blocks(space, {(0, 0): Poly(space, {(3, 2): Fraction(1, 5), (1, 0): 4}),
                               (1, 0): Poly.monomial(space, (2, 1))})
    assert product_holds(A, B, A * B)
    assert product_holds(B, A, B * A)


def test_the_product_oracle_catches_a_wrong_product():
    S = sigma_space(2)
    d1, s1 = WeylOp.partial(S, 1), WeylOp.from_poly(Poly.variable(S, "sigma", 1))
    assert product_holds(d1, s1, s1 * d1 + WeylOp.from_poly(Poly.one(S)))
    assert not product_holds(d1, s1, s1 * d1)


def certificate(k: int, h: int):
    p = xi_transport(elementary_symmetric_op(k, h))
    cert = reduce_modulo_system(p, k)
    assert cert.is_member
    return p, cert


@pytest.mark.parametrize("k", [3, 4])
def test_every_certificate_of_s_h_agrees_with_taylors_identity(k):
    gens = generator_system(k, "newton")
    for h in range(2, k + 1):
        p, cert = certificate(k, h)
        assert certificate_holds(p, cert.entries, cert.remainder, gens), h


def test_a_changed_coefficient_or_a_dropped_term_of_a_cofactor_fails_it():
    k = 4
    gens = generator_system(k, "newton")
    p, cert = certificate(k, k)
    (gid, cof), *rest = cert.entries
    beta, a = cof.sorted_terms()[0]
    exp, _ = a.sorted_terms()[0]
    bumped = cof + weyl_of_blocks(p.space, {beta: Poly.monomial(p.space, exp)})
    dropped = cof - weyl_of_blocks(p.space, {beta: a})
    for changed in (bumped, dropped):
        assert not certificate_holds(p, [(gid, changed), *rest], cert.remainder, gens)
    (g1, c1), (g2, c2), *tail = cert.entries
    assert not certificate_holds(p, [(g2, c1), (g1, c2), *tail], cert.remainder, gens)
