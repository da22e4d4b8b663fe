import random
from fractions import Fraction

import pytest

from conftest import (
    distinct_rational_point,
    dpoly_at_root,
    elementary_values,
    random_sigma_poly,
)
from exact_oracles import elementary_symmetric_op_by_products, u_operator_by_products, weyl_of_blocks
from symtrace.annihilators import op_nabla
from symtrace.poly import Poly
from symtrace.spaces import sigma_aux_space, sigma_eta_space, sigma_space, x_space
from symtrace.symfun import (
    NotSymmetricError,
    elementary_symmetric,
    family,
    reduce_to_sigma,
    sigma_to_x,
)
from symtrace.transport import (
    SymmetricOperator,
    decompose_derivation,
    elementary_symmetric_op,
    theta,
    u_operator,
    xi_transport,
)
from symtrace.weyl import WeylOp


def test_theta_values():
    assert theta(3, 1) == Poly.one(sigma_aux_space(3))
    space = sigma_aux_space(3)
    assert theta(3, 2) == Poly.variable(space, "sigma", 1) - Poly.variable(space, "t")
    # at z = 0 only the top summand survives
    for k in (2, 3, 4):
        for h in range(2, k + 1):
            at_zero = theta(k, h).evaluate({"sigma": [Fraction(0)] * (h - 2) + [Fraction(1)] + [Fraction(0)] * (k - h + 1), "t": [Fraction(0)]})
            assert at_zero == 1  # coefficient of sigma_{h-1}
    with pytest.raises(ValueError):
        theta(3, 4)


def test_theta_is_jacobian_entry():
    # Theta_h(x_j, e(x)) equals d e_h / d x_j
    rng = random.Random(31)
    for k in (2, 3, 4):
        for h in range(1, k + 1):
            for j in range(1, k + 1):
                entry = elementary_symmetric(k, h).partial("x", j)
                xs = [Fraction(rng.randint(-5, 5)) for _ in range(k)]
                sig = elementary_values(xs)
                lhs = theta(k, h).evaluate({"sigma": list(sig), "t": [xs[j - 1]]})
                assert lhs == entry.evaluate({"x": xs})


def test_elementary_symmetric_operators():
    X2, X3 = x_space(2), x_space(3)
    assert elementary_symmetric_op(2, 2).op == WeylOp.partial(X2, 1) * WeylOp.partial(X2, 2)
    s31 = elementary_symmetric_op(3, 1).op
    assert s31 == WeylOp.partial(X3, 1) + WeylOp.partial(X3, 2) + WeylOp.partial(X3, 3)
    s32 = elementary_symmetric_op(3, 2).op
    expected = (
        WeylOp.partial(X3, 1) * WeylOp.partial(X3, 2)
        + WeylOp.partial(X3, 1) * WeylOp.partial(X3, 3)
        + WeylOp.partial(X3, 2) * WeylOp.partial(X3, 3)
    )
    assert s32 == expected


def test_every_S_h_and_U_d_equals_its_product_definition():
    for k in range(1, 6):
        for h in range(1, k + 1):
            assert elementary_symmetric_op(k, h).op == elementary_symmetric_op_by_products(k, h), (k, h)
        for d in range(5):
            assert u_operator(k, d) == u_operator_by_products(k, d), (k, d)


def test_symmetric_operator_rejects_asymmetric():
    X2 = x_space(2)
    with pytest.raises(NotSymmetricError):
        SymmetricOperator(WeylOp.partial(X2, 1), 2)


def test_transport_matches_closed_forms():
    # order-0: multiplication by e_h transports to multiplication by s_h
    for k in (2, 3):
        for h in range(1, k + 1):
            sym = SymmetricOperator(WeylOp.from_poly(elementary_symmetric(k, h)), k)
            assert xi_transport(sym) == WeylOp.from_poly(Poly.variable(sigma_space(k), "sigma", h))
    # S_1 transports to the lowering derivation
    for k in (2, 3, 4):
        assert xi_transport(elementary_symmetric_op(k, 1)) == op_nabla(k)
    # the k=2 closed form
    S2 = sigma_space(2)
    expected = weyl_of_blocks(S2, {
        (2, 0): Poly.one(S2),
        (1, 1): Poly.variable(S2, "sigma", 1),
        (0, 2): Poly.variable(S2, "sigma", 2),
        (0, 1): Poly.one(S2),
    })
    assert xi_transport(elementary_symmetric_op(2, 2)) == expected


def _random_symmetric_order1(rng, k, max_coeff_deg=1):
    op = WeylOp.from_poly(sigma_to_x(random_sigma_poly(rng, k, max_coeff_deg, 2), k))
    for p in range(0, k):
        coeff = sigma_to_x(random_sigma_poly(rng, k, max_coeff_deg, 2), k)
        op = op + u_operator(k, p).left_mul_poly(coeff)
    return SymmetricOperator(op, k)


def test_transport_defining_property_randomized():
    rng = random.Random(41)
    for k in (2, 3, 4):
        deg = 1 if k < 4 else 0  # keeps the k=4 monomial actions tractable
        a = _random_symmetric_order1(rng, k, deg)
        b = _random_symmetric_order1(rng, k, deg)
        prod = SymmetricOperator(a.op * b.op, k)  # symmetric of order <= 2
        q = xi_transport(prod)
        d = max(prod.op.order(), 0)
        from symtrace.transport import _multi_indices

        for gamma in _multi_indices(k, d + 2):
            s_gamma = Poly.one(x_space(k))
            for h, e in enumerate(gamma, start=1):
                if e:
                    s_gamma = s_gamma * elementary_symmetric(k, h) ** e
            sigma_gamma = Poly.monomial(sigma_space(k), gamma)
            assert q.apply(sigma_gamma) == reduce_to_sigma(prod.op.apply(s_gamma), k)


def test_transport_is_algebra_map_on_pairs():
    rng = random.Random(43)
    for k in (2, 3):
        for _ in range(3):
            a = _random_symmetric_order1(rng, k)
            b = _random_symmetric_order1(rng, k)
            lhs = xi_transport(SymmetricOperator(a.op * b.op, k))
            rhs = xi_transport(a) * xi_transport(b)
            assert lhs == rhs


def test_transport_symbol_compatibility():
    # the symbol of the transported operator is the cotangent pullback of
    # the original symbol: xi_i -> sum_h Theta_h(x_i, s(x)) eta_h
    for k in (2, 3, 4):
        for h in range(2, k + 1):
            p = elementary_symmetric_op(k, h)
            lhs = xi_transport(p).symbol()
            target = sigma_eta_space(k)
            pulled = _pullback_symbol(p.op.symbol(), k)
            assert lhs == pulled


def _pullback_symbol(sym_x, k):
    """Substitute xi_i -> sum_h Theta_h(x_i, e(x)) eta_h, then reduce the
    x-coefficients of each eta-monomial to sigma-coordinates."""
    from symtrace.spaces import VarSpace

    mixed = VarSpace((("x", k), ("eta", k)))
    images = {}
    for i in range(1, k + 1):
        acc = Poly.zero(mixed)
        for h in range(1, k + 1):
            jac = elementary_symmetric(k, h).partial("x", i).embed(mixed, "eta", (0,) * k)
            acc = acc + jac * Poly.variable(mixed, "eta", h)
        images[("xi", i)] = acc
    for i in range(1, k + 1):
        images[("x", i)] = Poly.variable(mixed, "x", i)
    pulled = sym_x.compose(mixed, images)
    out = Poly.zero(sigma_eta_space(k))
    for eta_exp, coeff in pulled.collect("eta").items():
        reduced = reduce_to_sigma(coeff, k)
        out = out + reduced.embed(sigma_eta_space(k), "eta", eta_exp)
    return out


def test_transported_operators_kill_power_sums():
    for k in (2, 3, 4):
        for h in range(2, k + 1):
            op = xi_transport(elementary_symmetric_op(k, h))
            for m in range(0, 2 * k + 7):
                assert op.apply(family(k).newton(m)).is_zero()


def test_decompose_derivation_examples():
    k = 2
    d = SymmetricOperator(u_operator(k, 0), k)
    assert decompose_derivation(d) == [(0, Poly.one(sigma_space(k)))]
    d = SymmetricOperator(u_operator(2, 2), 2)
    S2 = sigma_space(2)
    assert decompose_derivation(d) == [
        (0, -Poly.variable(S2, "sigma", 2)),
        (1, Poly.variable(S2, "sigma", 1)),
    ]
    d = SymmetricOperator(u_operator(3, 1) + u_operator(3, 2), 3)
    S3 = sigma_space(3)
    assert decompose_derivation(d) == [(1, Poly.one(S3)), (2, Poly.one(S3))]


def test_decompose_derivation_at_k1():
    # x_1 = s_1 and P_s(t) = t - s_1, so every power of t falls back to s_1^d
    s1 = Poly.variable(sigma_space(1), "sigma", 1)
    for d in range(4):
        assert decompose_derivation(SymmetricOperator(u_operator(1, d), 1)) == [(0, s1 ** d)]


def test_decompose_derivation_roundtrip_randomized():
    rng = random.Random(47)
    for k in (2, 3):
        for _ in range(4):
            op = WeylOp.sum(x_space(k), ())
            chosen = {}
            for p in range(0, k):
                b = random_sigma_poly(rng, k, 1, 2)
                chosen[p] = b
                op = op + u_operator(k, p).left_mul_poly(sigma_to_x(b, k))
            if op.is_zero():
                continue
            got = dict(decompose_derivation(SymmetricOperator(op, k)))
            for p, b in chosen.items():
                assert got.get(p, Poly.zero(sigma_space(k))) == b
    # degrees >= k fall back onto the low basis
    d = SymmetricOperator(u_operator(2, 3), 2)
    S2 = sigma_space(2)
    s1, s2 = Poly.variable(S2, "sigma", 1), Poly.variable(S2, "sigma", 2)
    assert dict(decompose_derivation(d)) == {0: -s1 * s2, 1: s1 * s1 - s2}


def test_decompose_derivation_rejects_non_derivation():
    X2 = x_space(2)
    with pytest.raises(ValueError):
        decompose_derivation(SymmetricOperator(WeylOp.partial(X2, 1) * WeylOp.partial(X2, 2), 2))


def test_nabla_p_matches_root_weighted_derivation():
    # exact oracle: sum_j x_j^p / P'(x_j) dQ/dx_j at distinct rational roots
    rng = random.Random(53)
    for k in (2, 3):
        for p in range(0, k):
            # the lemma's closed form: (-1)^(k-p-1) d/ds_(k-p)
            op = WeylOp.partial(sigma_space(k), k - p).scale((-1) ** (k - p - 1))
            for _ in range(20):
                xs = distinct_rational_point(rng, k)
                sig = elementary_values(xs)
                q_sigma = random_sigma_poly(rng, k, 2, 3)
                q_x = sigma_to_x(q_sigma, k)
                oracle = sum(
                    xs[j] ** p / dpoly_at_root(xs, j)
                    * q_x.partial("x", j + 1).evaluate({"x": list(xs)})
                    for j in range(k)
                )
                got = op.apply(q_sigma).evaluate({"sigma": list(sig)})
                assert got == oracle
