"""The transport's partition-coefficient path against full x-space references.

A symmetric x-polynomial is fixed by its coefficients at non-increasing
exponents.  `xi_transport` builds its images R_beta = theta(P[s^beta])
on those coefficients alone: e-products by the e_r . m_lam rule,
operator application by the apply rule, and the leading-term descent
over partitions.  Each rule is checked here against the same step done
on full x-space polynomials, for hypothesis-drawn symmetric operators
(the S_k-orbit sums of drawn terms) and symmetric polynomials, k <= 4.
"""

from itertools import permutations
from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st

import symtrace.symfun as symfun
import symtrace.transport as transport
from symtrace.poly import Poly
from symtrace.spaces import x_space, x_xi_space
from symtrace.symfun import e_product, e_times, elementary_symmetric, reduce_partitions, reduce_to_sigma
from symtrace.transport import (
    SymmetricOperator,
    _multi_indices,
    apply_partitions,
    elementary_symmetric_op,
    xi_transport,
)
from symtrace.weyl import WeylOp

BOUNDED = settings(max_examples=40, deadline=None)

coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)


def partition_coefficients(p: Poly) -> dict:
    return {e: c for e, c in p.terms.items() if list(e) == sorted(e, reverse=True)}


def full_e_product(k: int, beta) -> Poly:
    """prod_h e_h(x)^beta_h, multiplied out in x-space."""
    return prod((elementary_symmetric(k, h) ** b for h, b in enumerate(beta, start=1)), start=Poly.one(x_space(k)))


def orbit_sum(k: int, terms) -> dict:
    """{exponent: coefficient} of the S_k-orbit sum of the drawn (exponent, c);
    an exponent over (x, xi) has both halves permuted together."""
    out: dict = {}
    for exp, c in terms:
        for perm in permutations(range(k)):
            key = tuple(exp[start + i] for start in range(0, len(exp), k) for i in perm)
            out[key] = out.get(key, 0) + c
    return out


@st.composite
def symmetric_polys(draw, max_k: int = 4):
    k = draw(st.integers(1, max_k))
    exps = st.tuples(*[st.integers(0, 3)] * k)
    terms = draw(st.lists(st.tuples(exps, coeffs), min_size=1, max_size=3))
    return k, Poly(x_space(k), orbit_sum(k, terms))


@st.composite
def symmetric_operators(draw, k, max_order: int = 2, max_terms: int = 3):
    """The S_k-orbit sum of up to max_terms drawn terms c x^a d^b, |b| <= max_order."""
    small = st.tuples(*[st.integers(0, 2)] * k)
    drawn = []
    for _ in range(draw(st.integers(1, max_terms))):
        a = draw(small)
        b = draw(small.filter(lambda b: sum(b) <= max_order))
        drawn.append((a + b, draw(coeffs)))
    return SymmetricOperator(WeylOp.of_symbol(Poly(x_xi_space(k), orbit_sum(k, drawn))), k)


@st.composite
def operator_cases(draw):
    k = draw(st.integers(1, 4))
    return draw(symmetric_operators(k, max_order=2 if k < 4 else 1))


@BOUNDED
@given(symmetric_polys(), st.integers(0, 4))
def test_e_times_equals_the_full_product(case, r):
    k, f = case
    r = min(r, k)
    assert e_times(r, partition_coefficients(f), k) == partition_coefficients(elementary_symmetric(k, r) * f)


@BOUNDED
@given(st.integers(1, 4).flatmap(lambda k: st.tuples(st.just(k), st.tuples(*[st.integers(0, 3)] * k))))
def test_e_product_equals_the_full_product(case):
    k, beta = case
    memo: dict = {}
    assert e_product(k, beta, memo) == partition_coefficients(full_e_product(k, beta))
    # every prefix product in the memo is right too
    for b, parts in memo.items():
        assert parts == partition_coefficients(full_e_product(k, b))


@BOUNDED
@given(symmetric_polys())
def test_reduce_partitions_equals_reduce_to_sigma(case):
    k, f = case
    assert reduce_partitions(partition_coefficients(f), k, {}) == reduce_to_sigma(f, k)


@BOUNDED
@given(operator_cases())
def test_partition_images_equal_the_full_reference(p):
    k = p.k
    memo: dict = {}
    for beta in _multi_indices(k, max(p.order(), 0)):
        full = p.op.apply(full_e_product(k, beta))
        parts = apply_partitions(p, e_product(k, beta, memo))
        assert parts == partition_coefficients(full)
        assert reduce_partitions(parts, k, memo) == reduce_to_sigma(full, k)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.tuples(symmetric_operators(k, 1, 2), symmetric_operators(k, 1, 2))))
def test_transport_is_algebra_map_on_drawn_pairs(pair):
    a, b = pair
    assert xi_transport(SymmetricOperator(a.op * b.op, a.k)) == xi_transport(a) * xi_transport(b)


def module_cache_sizes() -> dict:
    """The sizes of the module-level dicts and functools caches of symfun
    and transport, by (module, name)."""
    sizes = {}
    for mod in (symfun, transport):
        for name, value in vars(mod).items():
            if isinstance(value, dict) and not name.startswith("__"):
                sizes[mod.__name__, name] = len(value)
            elif hasattr(value, "cache_info") and value.__module__ == mod.__name__:
                sizes[mod.__name__, name] = value.cache_info().currsize
    return sizes


def test_xi_transport_leaves_no_module_level_cache_grown():
    k = 4
    p = elementary_symmetric_op(k, k)
    e_cache = ("symtrace.symfun", "elementary_symmetric")
    before = module_cache_sizes()
    assert e_cache in before
    xi_transport(p)
    after = module_cache_sizes()
    assert after.keys() == before.keys()
    grown = {key for key in after if after[key] != before[key]}
    assert grown <= {e_cache}
    # at most the e_h of this k, h = 0..k, are new
    assert after[e_cache] - before[e_cache] <= k + 1
