import random
from math import factorial

import pytest

from conftest import random_sigma_poly, shallow_stack
from exact_oracles import weyl_of_blocks
from symtrace.annihilators import op_A, op_T, op_U0
from symtrace.poly import Poly
from symtrace.spaces import VarSpace, sigma_aux_space, sigma_eta_space, sigma_space, x_space, x_xi_space
from symtrace.symfun import family
from symtrace.weyl import WeylOp


def d(k, h, power=1):
    return WeylOp.partial(sigma_space(k), h, power)


def s_op(k, h):
    return WeylOp.from_poly(Poly.variable(sigma_space(k), "sigma", h))


def random_op(rng, k, max_order=3, n_terms=3):
    space = sigma_space(k)
    terms = {}
    for _ in range(n_terms):
        dexp = [0] * k
        for _ in range(rng.randint(0, max_order)):
            dexp[rng.randint(0, k - 1)] += 1
        coeff = random_sigma_poly(rng, k)
        if not coeff.is_zero():
            terms[tuple(dexp)] = coeff
    return weyl_of_blocks(space, terms)


def test_canonical_commutation():
    assert d(1, 1) * s_op(1, 1) == s_op(1, 1) * d(1, 1) + WeylOp.from_poly(Poly.one(sigma_space(1)))


def test_square_of_euler_piece():
    k = 2
    e = s_op(k, 2) * d(k, 2)
    expected = weyl_of_blocks(sigma_space(k), {
        (0, 2): Poly.variable(sigma_space(k), "sigma", 2) ** 2,
        (0, 1): Poly.variable(sigma_space(k), "sigma", 2),
    })
    assert e * e == expected


def test_partial_trace_commutator():
    # [d_h, T^m] = d_m d_h, verified here once at (k,m,h) = (3,2,3)
    k, m, h = 3, 2, 3
    assert d(k, h).commutator(op_T(k, m)) == d(k, m) * d(k, h)


def test_commutator_with_weight_operator():
    assert op_A(3, 1, 3, 1).commutator(op_U0(3)) == op_A(3, 1, 3, 1).scale(4)
    assert op_T(3, 2).commutator(op_U0(3)) == op_T(3, 2).scale(2)


def test_apply_kills_independent_variable():
    assert d(3, 2).apply(Poly.variable(sigma_space(3), "sigma", 1) ** 3).is_zero()


def test_apply_transported_operator_kills_power_sums():
    sigma2 = op_T(2, 2)  # the k=2 transported operator in closed form
    assert sigma2.apply(family(2).newton(3)).is_zero()


def test_symbol_of_trace_generator():
    k = 3
    for m in (2, 3):
        se = sigma_eta_space(k)
        expected = Poly.variable(se, "eta", 1) * Poly.variable(se, "eta", m - 1)
        l = Poly.zero(se)
        for h in range(1, k + 1):
            l = l + Poly.variable(se, "sigma", h) * Poly.variable(se, "eta", h)
        expected = expected + l * Poly.variable(se, "eta", m)
        assert op_T(k, m).symbol() == expected


def test_symbol_top_order_only():
    k = 2
    op = s_op(k, 1) * d(k, 2, 2) + d(k, 1)
    se = sigma_eta_space(k)
    assert op.symbol() == Poly.variable(se, "sigma", 1) * Poly.variable(se, "eta", 2) ** 2


def test_symbol_of_index_swap():
    se = sigma_eta_space(3)
    e = lambda h: Poly.variable(se, "eta", h)
    assert op_A(3, 1, 3, 1).symbol() == e(1) * e(3) - e(2) ** 2


def test_symbol_of_zero_rejected():
    with pytest.raises(ValueError):
        WeylOp.sum(sigma_space(2), ()).symbol()


def test_weight_of_generators():
    assert op_A(3, 1, 3, 1).weight() == -4
    assert op_T(3, 2).weight() == -2
    p = Poly.variable(sigma_space(2), "sigma", 1) + Poly.variable(sigma_space(2), "sigma", 2)
    assert p.weight() is None


def test_mul_associative_randomized():
    rng = random.Random(5)
    for _ in range(12):
        k = rng.randint(1, 4)
        a, b, c = (random_op(rng, k, max_order=3, n_terms=2) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_apply_is_module_action_randomized():
    rng = random.Random(6)
    for _ in range(15):
        k = rng.randint(1, 4)
        a, b = random_op(rng, k, 2, 2), random_op(rng, k, 2, 2)
        f = random_sigma_poly(rng, k, max_deg=3, n_terms=4)
        assert (a * b).apply(f) == a.apply(b.apply(f))


def test_symbol_multiplicative_when_orders_add():
    rng = random.Random(7)
    found = 0
    for _ in range(40):
        k = rng.randint(2, 4)
        a, b = random_op(rng, k, 2, 2), random_op(rng, k, 2, 2)
        if a.is_zero() or b.is_zero():
            continue
        ab = a * b
        if ab.is_zero() or ab.order() != a.order() + b.order():
            continue
        found += 1
        assert ab.symbol() == a.symbol() * b.symbol()
    assert found >= 10


def test_pure_weight_commutator_characterization():
    # [P, U0] = -w P for every pure-weight operator
    k = 3
    u0 = op_U0(k)
    for op in (op_A(k, 1, 3, 1), op_T(k, 2), op_T(k, 3), d(k, 2)):
        w = op.weight()
        assert op.commutator(u0) == op.scale(-w)


def test_order_bound_under_product():
    rng = random.Random(8)
    for _ in range(20):
        k = rng.randint(1, 3)
        a, b = random_op(rng, k, 2, 2), random_op(rng, k, 2, 2)
        ab = a * b
        if not (a.is_zero() or b.is_zero() or ab.is_zero()):
            assert ab.order() <= a.order() + b.order()


def test_apply_shares_a_derivative_memo_across_operators():
    rng = random.Random(7)
    k = 3
    f = family(k).newton(7)
    derivs = {}
    for _ in range(6):
        op = random_op(rng, k)
        assert op.apply(f, derivs) == op.apply(f)
    assert derivs[(0, 0, 0)] is f and len(derivs) > 1
    with pytest.raises(ValueError):
        op.apply(family(k).newton(6), derivs)


def test_of_symbol_lifts_eta_to_partials():
    k = 3
    se = sigma_eta_space(k)
    c = Poly.variable(se, "sigma", 2) * Poly.variable(se, "eta", 1) * Poly.variable(se, "eta", 3) \
        - Poly.variable(se, "eta", 2) ** 2
    op = WeylOp.of_symbol(c)
    S = sigma_space(k)
    expected = (WeylOp.partial(S, 1) * WeylOp.partial(S, 3)).left_mul_poly(
        Poly.variable(S, "sigma", 2)
    ) - WeylOp.partial(S, 2) * WeylOp.partial(S, 2)
    assert op == expected


def test_of_symbol_inverts_the_full_symbol():
    rng = random.Random(9)
    X = x_space(2)
    ops = [random_op(rng, rng.randint(1, 4)) for _ in range(20)]
    ops.append(WeylOp.partial(X, 1, 2).left_mul_poly(Poly.variable(X, "x", 2)) + WeylOp.partial(X, 2))
    for op in ops:
        assert WeylOp.of_symbol(op.poly) == op
    assert WeylOp.of_symbol(ops[-1].poly).space == X and ops[-1].poly.space == x_xi_space(2)
    bad_spaces = (sigma_space(2), x_space(2), sigma_aux_space(2), VarSpace((("sigma", 2), ("eta", 3))),
                  VarSpace((("x", 2), ("eta", 2))))
    for space in bad_spaces:
        with pytest.raises(ValueError):
            WeylOp.of_symbol(Poly.one(space))


def test_long_derivative_chains_take_no_recursion_depth():
    # the chain d^300 f, d^299 f, .., f of the derivative memo is walked
    # in a loop, not one stack frame per partial
    S = sigma_space(2)
    with shallow_stack():
        image = WeylOp.partial(S, 1, 300).apply(Poly.variable(S, "sigma", 1) ** 300)
    assert image == Poly.constant(S, factorial(300))


def test_a_derivative_past_the_degree_is_zero_without_a_chain(monkeypatch):
    # d_2^50 of a polynomial of s_2-degree 3 is zero by the degree alone
    S = sigma_space(2)
    f = Poly.variable(S, "sigma", 2) ** 3 * Poly.variable(S, "sigma", 1) + Poly.variable(S, "sigma", 1) ** 5
    calls = []
    partial_pos = Poly.partial_pos

    def counting(self, pos):
        calls.append(pos)
        return partial_pos(self, pos)

    monkeypatch.setattr(Poly, "partial_pos", counting)
    assert WeylOp.partial(S, 2, 50).apply(f).is_zero()
    assert calls == []
    # the counter sees the chain of a derivative within the degree
    assert WeylOp.partial(S, 2, 3).apply(f) == Poly.variable(S, "sigma", 1).scale(6)
    assert calls == [1, 1, 1]
