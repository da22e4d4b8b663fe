import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_sigma_poly
from test_kernel_properties import assert_clean, coeffs, polys
from symtrace.poly import Poly
from symtrace.spaces import SpaceMismatchError, sigma_eta_space, sigma_space, x_space
from symtrace.symfun import family
from symtrace.weyl import WeylOp


def s(k, h):
    return Poly.variable(sigma_space(k), "sigma", h)


def x(k, i):
    return Poly.variable(x_space(k), "x", i)


def test_difference_of_squares():
    a = s(2, 1) + s(2, 2)
    b = s(2, 1) - s(2, 2)
    assert a * b == s(2, 1) ** 2 - s(2, 2) ** 2


def test_zero_absorbs():
    p = s(3, 1) * s(3, 2) + Poly.constant(sigma_space(3), 7)
    assert (p * Poly.zero(sigma_space(3))).is_zero()


def test_binomial_square():
    lhs = (x(2, 1) + x(2, 2)) ** 2
    rhs = x(2, 1) ** 2 + (x(2, 1) * x(2, 2)).scale(2) + x(2, 2) ** 2
    assert lhs == rhs


def test_space_mismatch_rejected():
    with pytest.raises(SpaceMismatchError):
        s(2, 1) + s(3, 1)


def test_partial_power_rule():
    p = s(2, 1) ** 2 * s(2, 2)
    assert p.partial("sigma", 1) == (s(2, 1) * s(2, 2)).scale(2)


def test_partial_independent_variable():
    assert (s(2, 1) ** 3).partial("sigma", 2).is_zero()


def test_partial_of_power_sum():
    n2 = family(2).newton(2)
    assert n2.partial("sigma", 2) == Poly.constant(sigma_space(2), -2)


def test_unknown_variable_rejected():
    with pytest.raises(KeyError):
        s(2, 1).partial("sigma", 3)


def test_weight_table():
    assert s(3, 2).weight() == 2
    assert x(3, 1).weight() == 1
    se = sigma_eta_space(3)
    assert Poly.variable(se, "eta", 2).weight() == -2
    assert (s(2, 1) + s(2, 2)).weight() is None


def test_weight_of_power_sum():
    assert family(3).newton(6).weight() == 6


def test_evaluate_exact():
    p = s(2, 1) ** 2 - s(2, 2).scale(2)
    assert p.evaluate({"sigma": [Fraction(3), Fraction(2)]}) == 5


def test_compose_substitution():
    # s1 -> t^2 over the one-variable aux space
    from symtrace.spaces import VarSpace

    target = VarSpace((("t", 1),))
    t = Poly.variable(target, "t")
    img = {("sigma", 1): t ** 2, ("sigma", 2): t}
    p = s(2, 1) * s(2, 2) + s(2, 2)
    assert p.compose(target, img) == t ** 3 + t


def test_collect_embed_roundtrip():
    se = sigma_eta_space(2)
    p = Poly.variable(se, "sigma", 1) * Poly.variable(se, "eta", 2) + Poly.variable(se, "eta", 1) ** 2
    parts = p.collect("eta")
    rebuilt = Poly.zero(se)
    for fe, coeff in parts.items():
        rebuilt = rebuilt + coeff.embed(se, "eta", fe)
    assert rebuilt == p


def test_embed_requires_the_space_without_the_family():
    se = sigma_eta_space(2)
    for p in (x(2, 1), s(3, 1), Poly.variable(se, "eta", 1)):
        with pytest.raises(ValueError):
            p.embed(se, "eta", (0, 0))


def test_embed_refuses_the_exponents_the_constructor_refuses():
    se = sigma_eta_space(1)
    for block in ((1.5,), (True,), (-1,), ("1",)):
        with pytest.raises(ValueError):
            Poly(se, {(0,) + block: 1})
        with pytest.raises(ValueError):
            Poly.one(sigma_space(1)).embed(se, "eta", block)
    assert Poly.one(sigma_space(1)).embed(se, "eta", (2,)) == Poly.variable(se, "eta", 1) ** 2


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.data())
def test_sum_of_products_is_the_sum_of_scaled_products(k, data):
    space = sigma_space(k)
    triples = data.draw(st.lists(st.tuples(polys(space), polys(space), st.just(0) | coeffs), max_size=5))
    # some triples again with c negated: those products cancel
    again = data.draw(st.lists(st.sampled_from(triples), max_size=3)) if triples else []
    triples = data.draw(st.permutations(triples + [(a, b, -c) for a, b, c in again]))
    got = Poly.sum_of_products(space, iter(triples))
    assert_clean(got)
    assert got == Poly.sum(space, ((a * b).scale(c) for a, b, c in triples))
    assert Poly.sum_of_products(space, triples + [(a, b, -c) for a, b, c in triples]).is_zero()
    assert Poly.sum_of_products(space, ()) == Poly.zero(space)
    # a factor over another space is refused wherever it stands
    other = Poly.one(sigma_space(k + 1))
    pos = data.draw(st.integers(0, len(triples)))
    for bad in ((other, Poly.one(space), 1), (Poly.one(space), other, 1)):
        with pytest.raises(SpaceMismatchError):
            Poly.sum_of_products(space, triples[:pos] + [bad] + triples[pos:])


def test_ring_operations_refuse_other_types():
    S = sigma_space(2)
    s1, d1 = s(2, 1), WeylOp.partial(S, 1)
    # a polynomial on the left of an operator is left multiplication
    assert s1 * d1 == WeylOp(S, {(1, 0): s1})
    mixes = [lambda: d1 * s1, lambda: s1 + d1, lambda: d1 + s1, lambda: s1 - d1, lambda: d1 - s1,
             lambda: s1 + 1, lambda: 1 - s1, lambda: s1 * "2", lambda: d1 * "2"]
    for mix in mixes:
        with pytest.raises(TypeError):
            mix()


def test_canonical_term_order_is_graded_lex():
    p = s(2, 2) + s(2, 1) ** 2 + Poly.one(sigma_space(2))
    exps = [e for e, _ in p.sorted_terms()]
    assert exps == [(2, 0), (0, 1), (0, 0)]


def test_random_ring_axioms():
    rng = random.Random(11)
    for _ in range(30):
        k = rng.randint(1, 4)
        a = random_sigma_poly(rng, k)
        b = random_sigma_poly(rng, k)
        c = random_sigma_poly(rng, k)
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        assert a * b == b * a


def test_sum_streams_its_pieces():
    # 60 telescoping pieces of 2,000 terms each, fed from a generator; a
    # sum that holds every piece peaks at about 60 pieces
    import tracemalloc

    space = x_space(2)

    def terms(i, c):
        return {(i, j): c for j in range(1000)}

    def piece(i):
        return Poly(space, {**terms(i, 1), **terms(i - 1, -1)})

    tracemalloc.start()
    try:
        # take every 2-tuple off the interpreter's free list, and keep them:
        # tuples freed before tracing began are reused untraced, so one piece
        # had read as little as half its size and the bound below was flaky
        held = [(j, j) for j in range(5000)]
        before = tracemalloc.get_traced_memory()[0]
        one = piece(1)
        size = tracemalloc.get_traced_memory()[0] - before
        del one
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        total = Poly.sum(space, (piece(i) for i in range(1, 61)))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert total == Poly(space, {**terms(60, 1), **terms(0, -1)})
    assert peak < 5 * size
