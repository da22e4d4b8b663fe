"""The exact symmetric-function kernel against sympy as an independent oracle.

sympy is a test-only dependency.  The Newton identities are checked
against sympy's own rewriting of the power sums in the elementary
symmetric functions (k <= 4, m <= 8), and `reduce_to_sigma` by
substituting s = e(x) back in sympy.  sympy's discriminant of the monic
polynomial z^k + sum_h (-1)^h s_h z^(k-h) is expanded once per k and
turned into a plain {exponent: Fraction} dict, which the exact
symbolic polynomial must equal term by term and the pointwise resultant
must match at drawn rational points.  sympy's expansion takes about 2 s
at k=6 and minutes at k=7, so the oracle stops at 6.  Membership in the
ideal of the 2x2 minors (k <= 4) is decided by sympy's Groebner basis of
the minors, against `vanishes_on_Z` and `decompose_in_minors`.  The
defining property of the transport, Q[F](e(x)) = P[F(e(x))], is expanded
on both sides with sympy's own differentiation and substitution for
sigma-monomials F, hypothesis-drawn symmetric operators P (k <= 3) and
the S_h (k <= 4).  The normal-ordered product is checked by its action:
(A B)[f] must equal A[B[f]] with both applications done by sympy's
differentiation, for drawn nonzero sigma-operators A and B (k <= 3).
"""

from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_oracles import symmetrize, weyl_of_blocks
from symtrace.charvar import NotOnVarietyError, decompose_in_minors, minors, recombine, vanishes_on_Z
from symtrace.poly import Poly
from symtrace.spaces import sigma_eta_space, sigma_space, x_space
from symtrace.symfun import discriminant, discriminant_at, family, reduce_to_sigma
from symtrace.transport import SymmetricOperator, elementary_symmetric_op, xi_transport
from symtrace.weyl import WeylOp

sympy = pytest.importorskip("sympy")
from sympy.polys.polyfuncs import symmetrize as sympy_symmetrize  # noqa: E402
from sympy.polys.specialpolys import symmetric_poly  # noqa: E402

ORACLE_K = range(2, 7)


@cache
def sympy_discriminant(k: int) -> dict[tuple[int, ...], Fraction]:
    z = sympy.Symbol("z")
    s = sympy.symbols(f"s1:{k + 1}")
    p = z**k + sum((-1) ** h * s[h - 1] * z ** (k - h) for h in range(1, k + 1))
    return sympy_terms(sympy.expand(sympy.discriminant(p, z)), s)


def sympy_terms(expr, gens) -> dict[tuple[int, ...], Fraction]:
    return {exp: Fraction(int(c.p), int(c.q)) for exp, c in sympy.Poly(expr, *gens).terms() if c}


def sympy_expr(p: Poly, gens):
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator) * sympy.prod([g**e for g, e in zip(gens, exp)])
        for exp, c in p.sorted_terms()
    ))


@pytest.mark.parametrize("k", range(1, 5))
def test_newton_matches_sympy_power_sums(k):
    xs = sympy.symbols(f"x1:{k + 1}")
    s = sympy.symbols(f"s1:{k + 1}")
    for m in range(9):
        expr, rest, _ = sympy_symmetrize(sum(x**m for x in xs), *xs, formal=True, symbols=s)
        assert rest == 0
        assert dict(family(k).newton(m).sorted_terms()) == sympy_terms(expr, s)


@st.composite
def symmetrized_polys(draw):
    k = draw(st.integers(1, 3))
    h = draw(st.integers(1, k))
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    exps = st.tuples(*[st.integers(0, 3)] * h)
    p = Poly(x_space(h), draw(st.dictionaries(exps, coeffs, max_size=4)))
    return k, symmetrize(p, h, k)


@settings(max_examples=40, deadline=None)
@given(symmetrized_polys())
def test_reduce_to_sigma_substitutes_back_in_sympy(case):
    k, p = case
    xs = sympy.symbols(f"x1:{k + 1}")
    s = sympy.symbols(f"s1:{k + 1}")
    reduced = sympy_expr(reduce_to_sigma(p, k), s)
    back = sympy.expand(reduced.subs({s[h - 1]: symmetric_poly(h, *xs) for h in range(1, k + 1)},
                                     simultaneous=True))
    assert sympy_terms(back, xs) == dict(p.sorted_terms())


def evaluate(terms: dict[tuple[int, ...], Fraction], sigma) -> Fraction:
    return sum((c * prod(v**e for v, e in zip(sigma, exp)) for exp, c in terms.items()), Fraction(0))


def sigma_of_roots(xs) -> list[Fraction]:
    """sigma_h = e_h(xs), so that P(z) = prod (z - x_i)."""
    return [sum((prod(c) for c in combinations(xs, h)), Fraction(0)) for h in range(1, len(xs) + 1)]


@pytest.mark.parametrize("k", ORACLE_K)
def test_discriminant_matches_sympy_coefficients(k):
    assert dict(discriminant(k).sorted_terms()) == sympy_discriminant(k)


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@st.composite
def sigma_points(draw):
    k = draw(st.integers(2, max(ORACLE_K)))
    return draw(st.lists(rationals, min_size=k, max_size=k))


@settings(max_examples=60, deadline=None)
@given(sigma_points())
def test_discriminant_at_matches_sympy_values(sigma):
    assert discriminant_at(sigma) == evaluate(sympy_discriminant(len(sigma)), sigma)


@settings(max_examples=40, deadline=None)
@given(st.lists(rationals, min_size=2, max_size=8))
def test_discriminant_at_is_root_product(xs):
    expected = prod(((a - b) ** 2 for a, b in combinations(xs, 2)), start=Fraction(1))
    assert discriminant_at(sigma_of_roots(xs)) == expected


def test_discriminant_at_zero_at_repeated_root():
    for xs in ([Fraction(3, 2), Fraction(3, 2)],
               [Fraction(-1, 3), Fraction(2), Fraction(-1, 3)],
               [Fraction(5), Fraction(1, 7), Fraction(0), Fraction(1, 7), Fraction(-4)],
               [Fraction(2)] * 6):
        assert discriminant_at(sigma_of_roots(xs)) == 0
    assert discriminant_at([2, 1]) == 0  # (z - 1)^2, plain ints


@pytest.mark.parametrize("xs", [
    [10**20, -3, 7], [2**64 + 1, 2**64, -(2**63), 5, 0], [-(10**12), 10**12, 1, -1, 3**40, 2, -(7**25)],
    [10**30] * 2 + [1],
])
def test_discriminant_at_on_large_plain_ints(xs):
    # all ints: the scaling by the lcm of the denominators is by 1
    sigma = [int(s) for s in sigma_of_roots(xs)]
    expected = prod(((a - b) ** 2 for a, b in combinations(xs, 2)), start=1)
    assert discriminant_at(sigma) == expected and isinstance(discriminant_at(sigma), Fraction)
    shrunk = [Fraction(s, 10 ** (9 * h)) for h, s in enumerate(sigma, 1)]  # the roots over 10^9
    assert discriminant_at(shrunk) == Fraction(expected, 10 ** (9 * len(xs) * (len(xs) - 1)))


def test_discriminant_at_refuses_bad_input():
    with pytest.raises(ValueError):
        discriminant_at([Fraction(1)])
    with pytest.raises(ValueError):
        discriminant_at([])
    for bad in ([2.0, 1], [Fraction(2), 1.0], [2, 1j], [True, 1]):
        with pytest.raises(TypeError):
            discriminant_at(bad)


def sigma_eta_symbols(k: int):
    return sympy.symbols(f"s1:{k + 1}") + sympy.symbols(f"eta1:{k + 1}")


@cache
def minor_groebner(k: int):
    gens = sigma_eta_symbols(k)
    return sympy.groebner([sympy_expr(m, gens) for m in minors(k).values()], *gens, order="grevlex", domain=sympy.QQ)


def eta_homogeneous(k: int, degree: int, max_size: int):
    """Term dicts over (sigma, eta) whose terms all have eta-degree `degree`."""
    sigma_exp = st.tuples(*[st.integers(0, 2)] * k)
    eta_exp = st.lists(st.integers(0, k - 1), min_size=degree, max_size=degree).map(
        lambda hs: tuple(hs.count(h) for h in range(k)))
    exps = st.builds(lambda a, b: a + b, sigma_exp, eta_exp)
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
    return st.dictionaries(exps, coeffs, min_size=1 if max_size == 1 else 0, max_size=max_size)


@st.composite
def minor_ideal_candidates(draw):
    """A combination of the minors with eta-homogeneous cofactors, plus
    (when drawn) one monomial of the same eta-degree."""
    k = draw(st.integers(2, 4))
    se = sigma_eta_space(k)
    cofactor_degree = draw(st.integers(0, 1))
    f = Poly.zero(se)
    for m in minors(k).values():
        f = f + Poly(se, draw(eta_homogeneous(k, cofactor_degree, 2))) * m
    if draw(st.booleans()):
        f = f + Poly(se, draw(eta_homogeneous(k, cofactor_degree + 2, 1)))
    return k, f


@settings(max_examples=60, deadline=None)
@given(minor_ideal_candidates())
def test_minor_ideal_membership_matches_sympy_groebner(case):
    k, f = case
    in_ideal = minor_groebner(k).contains(sympy_expr(f, sigma_eta_symbols(k)))
    assert vanishes_on_Z(f, k) == in_ideal
    try:
        coeffs = decompose_in_minors(f, k)
    except NotOnVarietyError:
        assert not in_ideal
    else:
        assert in_ideal and recombine(k, coeffs) == f


def sympy_poly(p: Poly, gens) -> "sympy.Poly":
    """p as a sympy Poly over QQ; built from the term dict, faster than from sympy_expr."""
    terms = {exp: sympy.Rational(c.numerator, c.denominator) for exp, c in p.sorted_terms()}
    return sympy.Poly.from_dict(terms, *gens, domain=sympy.QQ)


def sympy_apply(op: WeylOp, f: "sympy.Poly", gens) -> "sympy.Poly":
    """op[f] by sympy's differentiation: sum over terms of a_beta * d^beta f."""
    out = sympy.Poly(0, *gens, domain=sympy.QQ)
    for dexp, coeff in op.sorted_terms():
        g = f
        for v, e in zip(gens, dexp):
            for _ in range(e):
                g = g.diff(v)
        out += sympy_poly(coeff, gens) * g
    return out


def sympy_at_e(f: "sympy.Poly", xs) -> "sympy.Poly":
    """f(s) at s_h = e_h(x), by sympy's arithmetic."""
    es = [sympy.Poly(symmetric_poly(h, *xs), *xs, domain=sympy.QQ) for h in range(1, len(xs) + 1)]
    out = sympy.Poly(0, *xs, domain=sympy.QQ)
    for exp, c in f.terms():
        out += prod((e**n for e, n in zip(es, exp)), start=sympy.Poly(c, *xs, domain=sympy.QQ))
    return out


def assert_transport_property(p: SymmetricOperator, gammas):
    """Q[s^gamma](e(x)) == P[e(x)^gamma] in sympy, with Q = xi_transport(P)."""
    q = xi_transport(p)
    xs = sympy.symbols(f"x1:{p.k + 1}")
    s = sympy.symbols(f"s1:{p.k + 1}")
    for gamma in gammas:
        f = sympy.Poly(prod((v**e for v, e in zip(s, gamma)), start=sympy.Integer(1)), *s, domain=sympy.QQ)
        assert sympy_at_e(sympy_apply(q, f, s), xs) == sympy_apply(p.op, sympy_at_e(f, xs), xs), gamma


@st.composite
def symmetric_operators(draw):
    """The S_k-orbit sum of up to three drawn terms c x^a d^b with |b| <= 2."""
    k = draw(st.integers(1, 3))
    small = st.tuples(*[st.integers(0, 2)] * k)
    terms: dict = {}
    for _ in range(draw(st.integers(1, 3))):
        a = draw(small)
        b = draw(small.filter(lambda b: sum(b) <= 2))
        c = draw(st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool))
        for perm in permutations(range(k)):
            coeff = terms.setdefault(tuple(b[i] for i in perm), {})
            pa = tuple(a[i] for i in perm)
            coeff[pa] = coeff.get(pa, 0) + c
    space = x_space(k)
    op = SymmetricOperator(weyl_of_blocks(space, {d: Poly(space, t) for d, t in terms.items()}), k)
    return op, draw(st.lists(small, min_size=1, max_size=3))


@settings(max_examples=40, deadline=None)
@given(symmetric_operators())
def test_transport_defining_property_in_sympy(case):
    p, gammas = case
    assert_transport_property(p, gammas)


@pytest.mark.parametrize("k", range(1, 5))
def test_transport_of_s_h_in_sympy(k):
    # an operator of order h is pinned by its action on sigma-monomials of degree <= h
    for h in range(1, k + 1):
        gammas = [g for g in product(range(h + 1), repeat=k) if sum(g) <= h]
        assert_transport_property(elementary_symmetric_op(k, h), gammas)


@st.composite
def operator_pairs(draw):
    """Two nonzero sigma- or x-operators with |beta| <= 2 and nonzero coefficients, and an operand."""
    k = draw(st.integers(1, 3))
    space = draw(st.sampled_from([sigma_space, x_space]))(k)
    small = st.tuples(*[st.integers(0, 2)] * k)
    nonzero = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
    coeffs = st.dictionaries(small, nonzero, min_size=1, max_size=3).map(lambda t: Poly(space, t))
    ops = st.dictionaries(small.filter(lambda b: sum(b) <= 2), coeffs, min_size=1, max_size=3)
    f = st.dictionaries(st.tuples(*[st.integers(0, 4)] * k), nonzero, min_size=1, max_size=4)
    return weyl_of_blocks(space, draw(ops)), weyl_of_blocks(space, draw(ops)), Poly(space, draw(f))


@settings(max_examples=60, deadline=None)
@given(operator_pairs())
def test_product_acts_by_composition_in_sympy(case):
    a, b, f = case
    s = sympy.symbols(f"s1:{a.space.nvars + 1}")
    assert sympy_poly((a * b).apply(f), s) == sympy_apply(a, sympy_apply(b, sympy_poly(f, s), s), s)
