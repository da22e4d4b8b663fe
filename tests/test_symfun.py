import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    distinct_rational_point,
    dpoly_at_root,
    elementary_values,
    random_x_poly,
    rational_point,
    shallow_stack,
)
from exact_oracles import newton_varouchas, primitive_by_fractions, symmetrize
from symtrace.numerics import _coefficients
from symtrace.poly import Poly
from symtrace.spaces import sigma_space, x_space
from symtrace.symfun import (
    NotSymmetricError,
    char_poly,
    discriminant,
    NewtonFamily,
    elementary_symmetric,
    family,
    horner,
    reduce_to_sigma,
    sigma_to_x,
)


def x(k, i):
    return Poly.variable(x_space(k), "x", i)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4), min_size=1, max_size=6, unique=True))
def test_char_poly_row_has_the_roots_it_was_built_from(xs):
    k = len(xs)
    sigma = elementary_values(xs)
    row = char_poly(sigma)
    drow = [(k - h) * c for h, c in enumerate(row[:-1])]
    for j, xj in enumerate(xs):
        assert horner(row, xj) == 0
        assert horner(drow, xj) == dpoly_at_root(xs, j)
    assert _coefficients(sigma) == [complex(c) for c in row]


def test_elementary_symmetric_small_cases():
    assert elementary_symmetric(3, 1) == x(3, 1) + x(3, 2) + x(3, 3)
    assert elementary_symmetric(3, 3) == x(3, 1) * x(3, 2) * x(3, 3)
    assert elementary_symmetric(2, 2) == x(2, 1) * x(2, 2)
    assert elementary_symmetric(4, 0) == Poly.one(x_space(4))
    with pytest.raises(ValueError):
        elementary_symmetric(3, 4)


def test_reduce_power_sum():
    p = x(2, 1) ** 2 + x(2, 2) ** 2
    expected = Poly(sigma_space(2), {(2, 0): 1, (0, 1): -2})
    assert reduce_to_sigma(p, 2) == expected


def test_reduce_full_product_and_constant():
    k = 4
    prod = x(k, 1) * x(k, 2) * x(k, 3) * x(k, 4)
    assert reduce_to_sigma(prod, k) == Poly.variable(sigma_space(k), "sigma", 4)
    p = x(3, 1) + x(3, 2) + x(3, 3) + Poly.one(x_space(3))
    assert reduce_to_sigma(p, 3) == Poly.variable(sigma_space(3), "sigma", 1) + Poly.one(sigma_space(3))


def test_reduce_rejects_non_symmetric_naming_transposition():
    with pytest.raises(NotSymmetricError) as err:
        reduce_to_sigma(x(3, 1) ** 2 + x(3, 2), 3)
    assert err.value.transposition in ((1, 2), (2, 3))


def test_reduce_recomposes_exactly_randomized():
    rng = random.Random(17)
    count = 0
    for _ in range(25):
        k = rng.randint(2, 4)
        p = random_x_poly(rng, k)
        sym = Poly.zero(x_space(k))
        # symmetrize by averaging the orbit of a random polynomial
        from itertools import permutations

        perms = list(permutations(range(k)))
        for perm in perms:
            q_terms = {}
            for exp, c in p.sorted_terms():
                new = [0] * k
                for i, e in enumerate(exp):
                    new[perm[i]] = e
                q_terms[tuple(new)] = q_terms.get(tuple(new), Fraction(0)) + c
            sym = sym + Poly(x_space(k), q_terms)
        if sym.is_zero():
            continue
        count += 1
        reduced = reduce_to_sigma(sym, k)
        assert sigma_to_x(reduced, k) == sym
    assert count >= 15


def test_newton_small_and_paper_value():
    for k in (1, 2, 3, 4):
        assert family(k).newton(1) == Poly.variable(sigma_space(k), "sigma", 1)
    assert family(2).newton(2) == Poly(sigma_space(2), {(2, 0): 1, (0, 1): -2})
    n6 = Poly(sigma_space(3), {
        (6, 0, 0): 1, (4, 1, 0): -6, (3, 0, 1): 6, (2, 2, 0): 9,
        (1, 1, 1): -12, (0, 3, 0): -2, (0, 0, 2): 3,
    })
    assert family(3).newton(6) == n6


def test_newton_matches_power_sum_oracle():
    rng = random.Random(23)
    for k in (1, 2, 3, 4):
        for _ in range(50):
            xs = rational_point(rng, k)
            sig = elementary_values(xs)
            for m in range(0, 13):
                lhs = family(k).newton(m).evaluate({"sigma": list(sig)})
                rhs = sum(v ** m for v in xs)
                assert lhs == rhs


def test_newton_recurrences_take_no_recursion_depth():
    # The caches fill bottom-up, so a large index needs no deep call stack.
    # Under a recursion limit 150 frames above the current depth, a
    # recursion on m fails long before m = 600.  (family(2).newton(3000) itself
    # returns as well, but its exact 900-digit arithmetic takes about 35 s.)
    fam = NewtonFamily(2)
    with shallow_stack():
        n = fam.newton(600)
        dn = fam.derived(600)
        pn = fam.primitive(600)
    assert n.evaluate({"sigma": [3, 2]}) == 1 + 2 ** 600  # roots 1 and 2
    assert dn.evaluate({"sigma": [3, 2]}) == 2 ** 601 - 1  # 2^601/P'(2) + 1^601/P'(1)
    assert pn.weight() == 600


def test_varouchas_form_agrees():
    assert newton_varouchas(3, 1) == Poly.variable(sigma_space(3), "sigma", 1)
    assert newton_varouchas(2, 2) == Poly(sigma_space(2), {(2, 0): 1, (0, 1): -2})
    for k in (1, 2, 3, 4):
        for m in range(1, 11):
            assert newton_varouchas(k, m) == family(k).newton(m)


def test_derived_newton_seeds_and_values():
    assert family(3).derived(0) == Poly.one(sigma_space(3))
    assert family(2).derived(-1).is_zero()
    assert family(2).derived(2) == Poly(sigma_space(2), {(2, 0): 1, (0, 1): -1})
    with pytest.raises(ValueError):
        family(2).derived(-2)


def test_derived_newton_root_oracle():
    # DN_m = sum_j x_j^(m+k-1) / P'(x_j) at distinct-root points
    rng = random.Random(29)
    for k in (2, 3, 4):
        for _ in range(20):
            xs = distinct_rational_point(rng, k)
            sig = elementary_values(xs)
            for m in range(-k + 1, 9):
                lhs = family(k).derived(m).evaluate({"sigma": list(sig)})
                rhs = sum(xs[j] ** (m + k - 1) / dpoly_at_root(xs, j) for j in range(k))
                assert lhs == rhs


def test_derived_newton_signed_recurrence():
    for k in (2, 3, 4):
        for m in range(1, 13):
            acc = Poly.zero(sigma_space(k))
            for h in range(0, k + 1):
                sign = -1 if h % 2 else 1
                term = family(k).derived(m - h).scale(sign)
                if h:
                    term = Poly.variable(sigma_space(k), "sigma", h) * term
                acc = acc + term
            assert acc.is_zero()


def test_newton_gradient_is_derived_newton():
    for k in (1, 2, 3, 4):
        for m in range(0, 11):
            for h in range(1, k + 1):
                sign = -1 if (h - 1) % 2 else 1
                expected = family(k).derived(m - h).scale(m * sign) if m - h >= -k + 1 else None
                got = family(k).newton(m).partial("sigma", h)
                if expected is None:
                    assert got.is_zero()
                else:
                    assert got == expected


def test_primitive_newton_values():
    S4 = sigma_space(4)
    assert family(4).primitive(1) == Poly(S4, {(1, 0, 0, 0): -1})
    assert family(4).primitive(2) == Poly(S4, {(2, 0, 0, 0): Fraction(1, 2), (0, 1, 0, 0): 1})
    # the defining sums force these signs; the published example table
    # disagrees on PN_3/PN_4 and is tracked as a golden deviation
    assert family(4).primitive(3) == Poly(S4, {
        (3, 0, 0, 0): Fraction(1, 6), (1, 1, 0, 0): -1, (0, 0, 1, 0): -1,
    })
    assert family(4).primitive(4) == Poly(S4, {
        (4, 0, 0, 0): Fraction(1, 12), (2, 1, 0, 0): Fraction(-1, 2),
        (0, 2, 0, 0): Fraction(1, 2), (1, 0, 1, 0): 1, (0, 0, 0, 1): 1,
    })


def test_primitive_equals_its_sum_with_one_fraction_per_term():
    for k in range(1, 7):
        for m in range(1, 31):
            pn = family(k).primitive(m)
            assert pn == primitive_by_fractions(k, m), (k, m)
            assert all(type(c) is int or c.denominator > 1 for _, c in pn.sorted_terms()), (k, m)


def test_primitive_newton_gradient_signs():
    for k in (2, 3, 4):
        for m in range(1, 11):
            pn = family(k).primitive(m)
            for p in range(1, k + 1):
                got = pn.partial("sigma", p)
                if m > p:
                    sign = -1 if (p - 1) % 2 else 1
                    assert got == family(k).newton(m - p).scale(Fraction(sign, m - p))
                elif m == p:
                    assert got == Poly.constant(sigma_space(k), (-1) ** p)
                else:
                    assert got.is_zero()


def test_primitive_newton_pure_weight():
    for k in (2, 3, 4):
        for m in range(1, 9):
            assert family(k).primitive(m).weight() == m


def test_symmetrize_examples():
    half = symmetrize(Poly.variable(x_space(1), "x", 1), 1, 2)
    assert half == (x(2, 1) + x(2, 2)).scale(Fraction(1, 2))
    p = x(3, 1) * x(3, 2) + x(3, 1) * x(3, 3) + x(3, 2) * x(3, 3)
    assert symmetrize_to_self(p)
    for m in (1, 2, 5):
        k = 3
        lhs = symmetrize(Poly.variable(x_space(1), "x", 1) ** m, 1, k)
        rhs = sigma_to_x(family(k).newton(m), k).scale(Fraction(1, k))
        assert lhs == rhs
    with pytest.raises(ValueError):
        symmetrize(Poly.variable(x_space(3), "x", 1), 3, 2)


def symmetrize_to_self(p):
    return symmetrize(p, 3, 3) == p


def test_discriminant_values():
    assert discriminant(2) == Poly(sigma_space(2), {(2, 0): 1, (0, 1): -4})
    d3 = discriminant(3)
    assert d3.evaluate({"sigma": [Fraction(6), Fraction(11), Fraction(6)]}) == 4
    assert discriminant(2).evaluate({"sigma": [Fraction(2), Fraction(1)]}) == 0
    with pytest.raises(ValueError):
        discriminant(1)


def test_discriminant_matches_root_product():
    # dual route: the resultant-based polynomial equals the reduced
    # expansion of prod_{i<j} (x_i - x_j)^2
    for k in (2, 3, 4):
        prod = Poly.one(x_space(k))
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                prod = prod * (x(k, i) - x(k, j)) ** 2
        assert reduce_to_sigma(prod, k) == discriminant(k)


def test_family_weights_pure():
    fam = family(3)
    for m in range(0, 10):
        assert fam.newton(m).weight() == m or fam.newton(m).is_zero()
        assert fam.derived(m).weight() == m or fam.derived(m).is_zero()
