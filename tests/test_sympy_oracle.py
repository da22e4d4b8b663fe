"""The discriminant against sympy as an independent oracle.

sympy is a test-only dependency.  Its discriminant of the monic
polynomial z^k + sum_h (-1)^h s_h z^(k-h) is expanded once per k and
turned into a plain {exponent: Fraction} dict, which the exact
symbolic polynomial must equal term by term and the pointwise resultant
must match at drawn rational points.  sympy's expansion takes about 2 s
at k=6 and minutes at k=7, so the oracle stops at 6.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symtrace.symfun import discriminant, discriminant_at

sympy = pytest.importorskip("sympy")

ORACLE_K = range(2, 7)


@cache
def sympy_discriminant(k: int) -> dict[tuple[int, ...], Fraction]:
    z = sympy.Symbol("z")
    s = sympy.symbols(f"s1:{k + 1}")
    p = z**k + sum((-1) ** h * s[h - 1] * z ** (k - h) for h in range(1, k + 1))
    d = sympy.Poly(sympy.expand(sympy.discriminant(p, z)), *s)
    return {exp: Fraction(int(c.p), int(c.q)) for exp, c in d.terms()}


def evaluate(terms: dict[tuple[int, ...], Fraction], sigma) -> Fraction:
    return sum((c * prod(v**e for v, e in zip(sigma, exp)) for exp, c in terms.items()), Fraction(0))


def sigma_of_roots(xs) -> list[Fraction]:
    """sigma_h = e_h(xs), so that P(z) = prod (z - x_i)."""
    return [sum((prod(c) for c in combinations(xs, h)), Fraction(0)) for h in range(1, len(xs) + 1)]


@pytest.mark.parametrize("k", ORACLE_K)
def test_discriminant_matches_sympy_coefficients(k):
    assert discriminant(k).terms == sympy_discriminant(k)


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


def test_discriminant_at_refuses_bad_input():
    with pytest.raises(ValueError):
        discriminant_at([Fraction(1)])
    with pytest.raises(ValueError):
        discriminant_at([])
    for bad in ([2.0, 1], [Fraction(2), 1.0], [2, 1j], [True, 1]):
        with pytest.raises(TypeError):
            discriminant_at(bad)
