"""Property tests for the trusted construction path of the exact kernel.

The ring operations wrap their term dicts without re-validating them, so
every result is checked against a reference built through the validated
constructor from plain dict arithmetic, and for the storage invariants
the constructor would enforce: every coefficient in canonical form (a
nonzero int, or a Fraction with denominator > 1), exponents of length
space.nvars with no negative entry.  Coefficients are drawn with
denominators up to 3, so sums and products that become integral
(1/2 * 2, 1/3 + 2/3) exercise the demotion to int.
"""

from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symtrace.poly import Poly
from symtrace.spaces import SpaceMismatchError, sigma_eta_space, sigma_space, x_space
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


def assert_clean(p: Poly) -> None:
    n = p.space.nvars
    for exp, c in p.terms.items():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
        assert c != 0
        assert isinstance(exp, tuple) and len(exp) == n and min(exp, default=0) >= 0


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
    assert_matches(a + b, a.space, dict_sum(a.terms, b.terms))
    assert_matches(a - b, a.space, dict_sum(a.terms, b.terms, signs=(1, -1)))
    assert_matches(-a, a.space, dict_sum(a.terms, signs=(-1,)))
    assert (a - a).terms == {}


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
    assert_matches(total, space, dict_sum(*(p.terms for p in pieces)))


@BOUNDED
@given(st.integers(1, 3), st.data())
def test_weyl_sum_matches_reference(k, data):
    space = sigma_space(k)
    ops = data.draw(summands(weylops(space)))
    seen: list = []
    total = WeylOp.sum(space, consumed_once(ops, seen))
    assert seen == ops
    assert total.space == space
    assert_matches(total.poly, sigma_eta_space(k), dict_sum(*(op.poly.terms for op in ops)))


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
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            product[tuple(x + y for x, y in zip(e1, e2))] += c1 * c2
    assert_matches(a * b, a.space, product)
    assert_matches(a.scale(c), a.space, {e: c * v for e, v in a.terms.items()})
    assert_matches(a * 0, a.space, {})


@BOUNDED
@given(poly_pairs(), st.data())
def test_partial_and_swap_match_reference(pair, data):
    a, _ = pair
    n = a.space.nvars
    pos = data.draw(st.integers(0, n - 1))
    derivative = defaultdict(Fraction)
    for e, c in a.terms.items():
        if e[pos]:
            derivative[e[:pos] + (e[pos] - 1,) + e[pos + 1:]] += c * e[pos]
    assert_matches(a.partial_pos(pos), a.space, derivative)
    i, j = sorted(data.draw(st.lists(st.integers(1, n), min_size=2, max_size=2)))
    swapped = {}
    for e, c in a.terms.items():
        f = list(e)
        f[i - 1], f[j - 1] = f[j - 1], f[i - 1]
        swapped[tuple(f)] = c
    assert_matches(a.swap("sigma", i, j), a.space, swapped)


@BOUNDED
@given(st.integers(1, 3), st.data())
def test_collect_embed_match_reference(k, data):
    se = sigma_eta_space(k)
    p = data.draw(polys(se, 5, 2))
    parts = p.collect("eta")
    rebuilt = defaultdict(Fraction)
    for fam_exp, coeff in parts.items():
        assert_matches(coeff, sigma_space(k), {e[:k]: c for e, c in p.terms.items() if e[k:] == fam_exp})
        embedded = coeff.embed(se, "eta", fam_exp)
        assert_clean(embedded)
        for e, c in embedded.terms.items():
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
    assert composed == Poly(target, composed.terms)
    point = data.draw(st.lists(coeffs, min_size=2, max_size=2))
    values = [images[("sigma", h)].evaluate({"sigma": point}) for h in range(1, k + 1)]
    assert composed.evaluate({"sigma": point}) == p.evaluate({"sigma": values})


@BOUNDED
@given(weyl_triples())
def test_weyl_product_is_associative_and_acts_by_composition(triple):
    a, b, c, f = triple
    ab = a * b
    for op in (ab, a + b, a - b):
        for coeff in op.terms.values():
            assert_clean(coeff)
            assert coeff.space == a.space and not coeff.is_zero()
    assert ab * c == a * (b * c)
    image = ab.apply(f)
    assert_clean(image)
    assert image == a.apply(b.apply(f))
