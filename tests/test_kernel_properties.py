"""Property tests for the trusted construction path of the exact kernel.

The ring operations wrap their term dicts of packed exponent keys without
re-validating them, so every result is checked against a reference built
through the validated constructor from plain dict arithmetic on exponent
tuples, read back through ``sorted_terms``, and for the storage
invariants the constructor would enforce: every coefficient in canonical
form (a nonzero int, or a Fraction with denominator > 1), exponents of
length space.nvars with no negative entry.  Coefficients are drawn with
denominators up to 3, so sums and products that become integral
(1/2 * 2, 1/3 + 2/3) exercise the demotion to int.  The packing itself
is checked to round-trip, to sort as ``term_sort_key`` does, and to
refuse a degree it cannot hold rather than carry into the next field.
"""

from collections import defaultdict
from fractions import Fraction
from functools import reduce
from math import comb, factorial, perm, prod
from operator import or_

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symtrace.poly import BITS, MAX_DEGREE, Poly, _canon, term_sort_key
from symtrace.spaces import SpaceMismatchError, VarSpace, sigma_eta_space, sigma_space, x_space, x_xi_space
from symtrace.weyl import WeylOp

BOUNDED = settings(max_examples=40, deadline=None)

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def exponents(n: int, max_exp: int = 2):
    return st.tuples(*[st.integers(0, max_exp)] * n)


@st.composite
def polys(draw, space, max_terms: int = 4, max_exp: int = 2):
    terms = draw(st.dictionaries(exponents(space.nvars, max_exp), coeffs, max_size=max_terms))
    return Poly(space, terms)


@st.composite
def poly_pairs(draw):
    space = sigma_space(draw(st.integers(1, 3)))
    return draw(polys(space)), draw(polys(space))


@st.composite
def weylops(draw, space, max_terms: int = 3):
    terms = draw(st.dictionaries(exponents(space.nvars, 2), polys(space, 3, 2), max_size=max_terms))
    return WeylOp(space, terms)


@st.composite
def weyl_triples(draw):
    space = sigma_space(draw(st.integers(1, 3)))
    return draw(weylops(space)), draw(weylops(space)), draw(weylops(space)), draw(polys(space, 4, 3))


def terms_of(p: Poly) -> dict:
    """{exponent tuple: coefficient} of p, read through its accessor."""
    return dict(p.sorted_terms())


def assert_clean(p: Poly) -> None:
    n = p.space.nvars
    for exp, c in p.sorted_terms():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
        assert c != 0
        assert isinstance(exp, tuple) and len(exp) == n and min(exp, default=0) >= 0
    # each stored key is the one the validated constructor packs for its exponent
    assert len(p.terms) == len(p.sorted_terms()) and Poly(p.space, terms_of(p)) == p


def assert_matches(p: Poly, space, reference: dict) -> None:
    """p is clean and equals the validated build of a dict that may hold zeros."""
    assert_clean(p)
    assert p.space == space
    assert p == Poly(space, reference)


def dict_sum(*term_dicts, signs=None):
    out = defaultdict(Fraction)
    for i, terms in enumerate(term_dicts):
        sign = 1 if signs is None else signs[i]
        for e, c in terms.items():
            out[e] += sign * c
    return out


@BOUNDED
@given(poly_pairs())
def test_add_sub_neg_match_reference(pair):
    a, b = pair
    assert_matches(a + b, a.space, dict_sum(terms_of(a), terms_of(b)))
    assert_matches(a - b, a.space, dict_sum(terms_of(a), terms_of(b), signs=(1, -1)))
    assert_matches(-a, a.space, dict_sum(terms_of(a), signs=(-1,)))
    assert (a - a).is_zero()


@st.composite
def summands(draw, pieces):
    """Drawn pieces, then some of them again (the same objects) with their
    negations, in a drawn order: the repeats cancel against the negations."""
    drawn = draw(st.lists(pieces, max_size=5))
    again = draw(st.lists(st.sampled_from(drawn), max_size=3)) if drawn else []
    return draw(st.permutations(drawn + again + [-p for p in again]))


def consumed_once(items: list, seen: list):
    """A one-shot generator over items that records each item it yields."""
    return (seen.append(p) or p for p in items)


@BOUNDED
@given(st.integers(1, 3), st.data())
def test_sum_matches_reference(k, data):
    space = sigma_space(k)
    pieces = data.draw(summands(polys(space)))
    seen: list = []
    total = Poly.sum(space, consumed_once(pieces, seen))
    assert seen == pieces
    assert_matches(total, space, dict_sum(*map(terms_of, pieces)))


@BOUNDED
@given(st.integers(1, 3), st.data())
def test_weyl_sum_matches_reference(k, data):
    space = sigma_space(k)
    ops = data.draw(summands(weylops(space)))
    seen: list = []
    total = WeylOp.sum(space, consumed_once(ops, seen))
    assert seen == ops
    assert total.space == space
    assert_matches(total.poly, sigma_eta_space(k), dict_sum(*(terms_of(op.poly) for op in ops)))


def test_sum_of_nothing_is_zero_and_pieces_share_one_space():
    S = sigma_space(2)
    assert Poly.sum(S, iter(())) == Poly.zero(S)
    assert WeylOp.sum(S, []) == WeylOp(S)
    with pytest.raises(SpaceMismatchError):
        Poly.sum(S, [Poly.one(S), Poly.one(sigma_space(3))])
    with pytest.raises(SpaceMismatchError):
        WeylOp.sum(S, [WeylOp.partial(S, 1), WeylOp.partial(x_space(2), 1)])


@BOUNDED
@given(poly_pairs(), coeffs)
def test_mul_and_scale_match_reference(pair, c):
    a, b = pair
    product = defaultdict(Fraction)
    for e1, c1 in a.sorted_terms():
        for e2, c2 in b.sorted_terms():
            product[tuple(x + y for x, y in zip(e1, e2))] += c1 * c2
    assert_matches(a * b, a.space, product)
    assert_matches(a.scale(c), a.space, {e: c * v for e, v in a.sorted_terms()})
    assert_matches(a * 0, a.space, {})


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.data())
def test_scale_is_the_termwise_canonical_product(k, data):
    # int coefficients that c = p/q divides and that it does not, Fraction
    # coefficients, and c negative, integral, or an integral Fraction
    p = data.draw(polys(sigma_space(k), 6) | st.builds(
        Poly, st.just(sigma_space(k)), st.dictionaries(exponents(k), st.integers(-24, 24), max_size=6)))
    c = data.draw(st.integers(-6, 6) | st.fractions(min_value=-6, max_value=6, max_denominator=6)
                  | st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3])))
    got = p.scale(c)
    assert_clean(got)
    assert terms_of(got) == {e: _canon(c * v) for e, v in p.sorted_terms() if c * v}


@BOUNDED
@given(poly_pairs(), st.data())
def test_partial_and_swap_match_reference(pair, data):
    a, _ = pair
    n = a.space.nvars
    pos = data.draw(st.integers(0, n - 1))
    derivative = defaultdict(Fraction)
    for e, c in a.sorted_terms():
        if e[pos]:
            derivative[e[:pos] + (e[pos] - 1,) + e[pos + 1:]] += c * e[pos]
    assert_matches(a.partial_pos(pos), a.space, derivative)
    i, j = sorted(data.draw(st.lists(st.integers(1, n), min_size=2, max_size=2)))
    swapped = {}
    for e, c in a.sorted_terms():
        f = list(e)
        f[i - 1], f[j - 1] = f[j - 1], f[i - 1]
        swapped[tuple(f)] = c
    assert_matches(a.swap("sigma", i, j), a.space, swapped)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.booleans(), st.data())
def test_divided_partial_is_the_partial_chain_over_delta_factorial(k, over_x, data):
    space, families = (x_xi_space(k), ("x", "xi")) if over_x else (sigma_eta_space(k), ("sigma", "eta"))
    family = data.draw(st.sampled_from(families))
    p = data.draw(polys(space, 6, 4))
    delta = data.draw(exponents(k, 4))
    chain = p
    for pos, d in enumerate(delta, start=space.offset(family)):
        for _ in range(d):
            chain = chain.partial_pos(pos)
    got = p.divided_partial(family, delta)
    assert_clean(got)
    assert got == chain.scale(Fraction(1, prod(map(factorial, delta))))


def test_divided_partial_at_zero_past_the_degree_and_on_bad_input():
    for space, family in ((sigma_eta_space(2), "eta"), (x_xi_space(2), "xi"), (x_xi_space(2), "x")):
        p = Poly(space, {(1, 2, 3, 1): Fraction(1, 3), (0, 0, 1, 0): 2, (3, 1, 0, 0): Fraction(-5, 2)})
        assert p.divided_partial(family, (0, 0)) == p
        assert p.divided_partial(family, (4, 0)).is_zero() and p.divided_partial(family, (0, 3)).is_zero()
        for bad in ((1,), (1, 0, 0), (-1, 0), (True, 0), (1.0, 0)):
            with pytest.raises(ValueError):
                p.divided_partial(family, bad)
    se = sigma_eta_space(2)
    p = Poly(se, {(1, 2, 3, 1): Fraction(1, 3), (0, 0, 4, 2): Fraction(1, 2)})
    # binom(3, 3) binom(1, 1) / 3 and binom(4, 3) binom(2, 1) / 2
    assert p.divided_partial("eta", (3, 1)) == Poly(se, {(1, 2, 0, 0): Fraction(1, 3), (0, 0, 1, 1): 4})
    for bad in ("xi", "x", "t"):
        with pytest.raises(KeyError):
            p.divided_partial(bad, (1, 0))


@BOUNDED
@given(st.integers(1, 3), st.data())
def test_collect_embed_match_reference(k, data):
    se = sigma_eta_space(k)
    p = data.draw(polys(se, 5, 2))
    parts = p.collect("eta")
    rebuilt = defaultdict(Fraction)
    for fam_exp, coeff in parts.items():
        assert_matches(coeff, sigma_space(k), {e[:k]: c for e, c in p.sorted_terms() if e[k:] == fam_exp})
        embedded = coeff.embed(se, "eta", fam_exp)
        assert_clean(embedded)
        for e, c in embedded.sorted_terms():
            rebuilt[e] += c
    assert Poly(se, rebuilt) == p


@BOUNDED
@given(st.integers(1, 3), st.data())
def test_compose_matches_pointwise_evaluation(k, data):
    source = sigma_space(k)
    target = sigma_space(2)
    p = data.draw(polys(source, 4, 2))
    images = {("sigma", h): data.draw(polys(target, 3, 2)) for h in range(1, k + 1)}
    composed = p.compose(target, images)
    assert_clean(composed)
    assert composed == Poly(target, terms_of(composed))
    point = data.draw(st.lists(coeffs, min_size=2, max_size=2))
    values = [images[("sigma", h)].evaluate({"sigma": point}) for h in range(1, k + 1)]
    assert composed.evaluate({"sigma": point}) == p.evaluate({"sigma": values})


@BOUNDED
@given(weyl_triples())
def test_weyl_product_is_associative_and_acts_by_composition(triple):
    a, b, c, f = triple
    ab = a * b
    for op in (ab, a + b, a - b):
        for _, coeff in op.sorted_terms():
            assert_clean(coeff)
            assert coeff.space == a.space and not coeff.is_zero()
    assert ab * c == a * (b * c)
    image = ab.apply(f)
    assert_clean(image)
    assert image == a.apply(b.apply(f))


# -- the packed keys ------------------------------------------------------------

THREE_FAMILIES = VarSpace((("sigma", 2), ("eta", 2), ("t", 1)))
WIDE_SPACES = [sigma_space(1), sigma_space(3), sigma_eta_space(2), THREE_FAMILIES]


@st.composite
def wide_terms(draw):
    """A space and a term dict over it whose exponents reach far into a
    field, up to one variable at MAX_DEGREE."""
    space = draw(st.sampled_from(WIDE_SPACES))
    n = space.nvars
    spread = st.tuples(*[st.integers(0, MAX_DEGREE // n)] * n)
    top = st.integers(0, n - 1).map(lambda i: (0,) * i + (MAX_DEGREE,) + (0,) * (n - 1 - i))
    return space, draw(st.dictionaries(spread | top | exponents(n, 2), coeffs, max_size=6))


@BOUNDED
@given(wide_terms())
def test_packed_keys_round_trip_and_sort_graded_lex(case):
    space, terms = case
    p = Poly(space, terms)
    nonzero = {e: c for e, c in terms.items() if c}
    assert terms_of(p) == nonzero
    assert all(p.coefficient(e) == c for e, c in terms.items())
    # descending key order is term_sort_key order
    assert [e for e, _ in p.sorted_terms()] == sorted(nonzero, key=term_sort_key)


@BOUNDED
@given(st.integers(1, 3), st.data())
def test_sum_of_products_matches_reference(k, data):
    space = sigma_eta_space(k)
    triples = data.draw(st.lists(st.tuples(polys(space, 3, 3), polys(space, 3, 3), coeffs), max_size=4))
    reference = defaultdict(Fraction)
    for a, b, c in triples:
        for e1, c1 in a.sorted_terms():
            for e2, c2 in b.sorted_terms():
                reference[tuple(x + y for x, y in zip(e1, e2))] += c * c1 * c2
    assert_matches(Poly.sum_of_products(space, iter(triples)), space, reference)


@BOUNDED
@given(polys(THREE_FAMILIES, 6, 3))
def test_every_family_of_a_three_family_space_matches_reference(p):
    # a family with fields on both sides of it, as well as at either end
    space = THREE_FAMILIES
    for family, count in space.families:
        off = space.offset(family)
        reference = defaultdict(dict)
        for e, c in p.sorted_terms():
            reference[e[off:off + count]][e[:off] + e[off + count:]] = c
        parts = p.collect(family)
        assert parts.keys() == reference.keys()
        for block, coeff in parts.items():
            assert_matches(coeff, space.drop(family), reference[block])
        assert Poly.sum(space, (c.embed(space, family, b) for b, c in parts.items())) == p
        assert p.degree_in(family) == max(map(sum, reference), default=-1)
        # one bound per exponent, the OR of its values, so at least their maximum
        assert p.exponent_bound(family) == tuple(reduce(or_, column, 0) for column in zip((0,) * count, *reference))
    for pos in range(space.nvars):
        derivative = {e[:pos] + (e[pos] - 1,) + e[pos + 1:]: c * e[pos] for e, c in p.sorted_terms() if e[pos]}
        assert_matches(p.partial_pos(pos), space, derivative)
    assert_matches(p.swap("eta", 1, 2), space, {e[:2] + (e[3], e[2]) + e[4:]: c for e, c in p.sorted_terms()})


HALF = 1 << BITS - 1


@pytest.mark.parametrize("space, pos", [(sigma_space(1), 0), (sigma_eta_space(2), 1), (sigma_eta_space(2), 3)])
@pytest.mark.parametrize("d1, d2", [(MAX_DEGREE, 0), (MAX_DEGREE - 1, 1), (MAX_DEGREE, 1),
                                    (HALF, HALF - 1), (HALF, HALF), (2 ** BITS - 1, 1)])
def test_a_product_at_the_field_edge_is_exact_or_refused(space, pos, d1, d2):
    # degrees summing to 2^BITS - 1 and to 2^BITS fill or pass the field:
    # the product is exact or a ValueError, never a carry into the next field
    def power(d):
        exp = [0] * space.nvars
        exp[pos] = d
        return tuple(exp)

    if d1 + d2 <= MAX_DEGREE:
        product = Poly.monomial(space, power(d1)) * Poly.monomial(space, power(d2))
        assert product.sorted_terms() == [(power(d1 + d2), 1)]
    else:
        with pytest.raises(ValueError):
            Poly.monomial(space, power(d1)) * Poly.monomial(space, power(d2))


def test_the_degree_guard_holds_on_every_path_that_raises_a_degree():
    s1 = Poly.variable(sigma_space(1), "sigma", 1)
    top = s1 ** MAX_DEGREE
    assert top.sorted_terms() == [((MAX_DEGREE,), 1)]
    for grow in (lambda: s1 ** (2 ** BITS - 1) * s1, lambda: top * s1,
                 lambda: top.embed(sigma_eta_space(1), "eta", (1,)),
                 lambda: Poly.monomial(sigma_eta_space(1), (HALF, 0)),
                 lambda: WeylOp.partial(sigma_space(1), 1, HALF)):
        with pytest.raises(ValueError):
            grow()


def test_a_high_order_partial_multiplies_and_acts_exactly():
    S = sigma_space(2)
    d = WeylOp.partial(S, 2, 1200)
    s2 = Poly.variable(S, "sigma", 2)
    assert d.order() == 1200
    assert d.apply(s2 ** 1200) == Poly.constant(S, factorial(1200))
    # Leibniz: d^n s^n = sum_j C(n, j) n!/(n-j)! s^(n-j) d^(n-j)
    expected = {(0, 1200 - j): Poly.monomial(S, (0, 1200 - j), comb(1200, j) * perm(1200, j))
                for j in range(1201)}
    assert d * WeylOp.from_poly(s2 ** 1200) == WeylOp(S, expected)


# -- evaluate -------------------------------------------------------------------

POINT_VALUES = {
    "int": st.integers(-5, 5),
    "integral Fraction": st.integers(-5, 5).map(Fraction),
    "proper Fraction": st.fractions(-4, 4, max_denominator=6).filter(lambda v: v.denominator > 1),
    "float": st.floats(-4, 4),
    "complex": st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False),
}


def evaluate_term_by_term(p: Poly, point: list):
    """sum of c * v**e over p.sorted_terms(), in that order, with the values
    as given; None for the zero polynomial."""
    acc = None
    for exp, c in p.sorted_terms():
        term = c
        for v, e in zip(point, exp):
            if e:
                term = term * v ** e
        acc = term if acc is None else acc + term
    return acc


@st.composite
def polys_and_points(draw):
    k = draw(st.integers(1, 3))
    space = sigma_eta_space(k)
    # built from its sorted terms, p stores them in that order, so the
    # float sums of evaluate and of the formula run in one order
    p = Poly(space, terms_of(draw(polys(space, 5, 3))))
    kind = draw(st.sampled_from([*POINT_VALUES, "mixed"]))
    values = st.one_of(*POINT_VALUES.values()) if kind == "mixed" else POINT_VALUES[kind]
    return p, draw(st.lists(values, min_size=2 * k, max_size=2 * k))


S1 = sigma_eta_space(1)


# 200 draws, so that a change of summation order shows in some float sum
@settings(max_examples=200, deadline=None)
@given(polys_and_points())
@example((Poly(S1, {(1, 0): 1, (0, 0): 1}), [Fraction(2), 5]))  # integral Fraction point: a Fraction
@example((Poly.constant(S1, 3), [Fraction(2), 5]))  # no value raised: the coefficient, an int
@example((Poly.zero(S1), [2, 5]))  # zero polynomial: Fraction(0)
@example((Poly(S1, {(0, 1): 1}), [Fraction(2), 0.5]))  # only the float raised: a float
def test_evaluate_matches_the_term_by_term_formula(p_and_point):
    p, point = p_and_point
    k = len(point) // 2
    got = p.evaluate({"sigma": point[:k], "eta": point[k:]})
    want = evaluate_term_by_term(p, point)
    if isinstance(want, (float, complex)):
        assert type(got) is type(want) and repr(got) == repr(want)  # bit for bit, signed zeros included
    else:
        # exact: the value and the type the terms give, Fraction(0) for zero
        assert got == (want or 0)
        assert type(got) is (Fraction if want is None else type(want))
