import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import shallow_stack
from exact_oracles import descend_by_table, rewrite_table
from symtrace.annihilators import generator_system, op_A, op_T
from symtrace.charvar import (
    NotOnVarietyError,
    decompose_in_minors,
    minor_generator,
    minors,
    recombine,
    rewrite_eta_product,
    sample_z_points,
    theta_contraction_sides,
    vanishes_on_Z,
)
from symtrace.poly import Poly
from symtrace.spaces import sigma_eta_space, sigma_space, x_space
from symtrace.symfun import char_poly, discriminant, horner


def eta(k, h):
    return Poly.variable(sigma_eta_space(k), "eta", h)


def sig(k, h):
    return Poly.variable(sigma_eta_space(k), "sigma", h)


def test_minor_values():
    ms = minors(2)
    assert ms[1, 2] == eta(2, 1) ** 2 + (sig(2, 1) * eta(2, 1) + sig(2, 2) * eta(2, 2)) * eta(2, 2)
    assert minors(3)[2, 3] == eta(3, 2) ** 2 - eta(3, 1) * eta(3, 3)
    assert len(minors(4)) == 6
    with pytest.raises(ValueError):
        minors(1)


def test_minors_match_generator_symbols():
    for k in (2, 3, 4, 5, 6):
        gens = generator_system(k, "newton")
        assert len(minors(k)) == k * (k - 1) // 2
        for (i, j), m in minors(k).items():
            gid, sign = minor_generator((i, j))
            assert m == gens[gid].symbol().scale(sign)
            if i == 1:
                assert gid == f"T({j})" and sign == 1
            else:
                assert gid == f"A({i - 1},{j},1)" and sign == -1


_MISMATCHED_SYMBOLS = """
import symtrace.annihilators as ann
from symtrace.report import run_suite

true_T = ann.op_T
ann.op_T = lambda k, m: true_T(k, m).scale(2)
rep = run_suite("symbols", 3)
print(next(e.status for e in rep.entries if e.id == "symbols:minors-vs-generators"))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_minors_vs_generators_fails_on_mismatch_even_under_O(flags):
    # python -O strips assert statements; the check must not pass vacuously
    proc = subprocess.run([sys.executable, *flags, "-c", _MISMATCHED_SYMBOLS],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "fail\n"


def test_minors_homogeneous_and_pure_weight():
    for k in (2, 3, 4, 5):
        for (i, j), m in minors(k).items():
            assert m.degree_in("eta") == 2
            assert m.weight() == -(i + j - 1)


def test_rewrite_base_case_and_example():
    u, v = rewrite_eta_product(2, 2, 2)
    assert u == {} and v == eta(2, 2)
    u, v = rewrite_eta_product(2, 1, 1)
    assert set(u) == {(1, 2)} and u[(1, 2)] == Poly.one(sigma_eta_space(2))
    assert v == -(sig(2, 1) * eta(2, 1) + sig(2, 2) * eta(2, 2))


def test_rewrite_roundtrip_all_pairs():
    for k in (2, 3, 4, 5):
        se = sigma_eta_space(k)
        for i in range(1, k + 1):
            for j in range(i, k + 1):
                u, v = rewrite_eta_product(k, i, j)
                assert all(c.space == se and c.degree_in("eta") == 0 for c in u.values())
                assert v.degree_in("eta") <= 1
                lhs = eta(k, i) * eta(k, j)
                assert lhs == recombine(k, u) + eta(k, k) * v


def test_rewrite_matches_reference_table():
    # the decomposition is not unique, so the round trip alone would pass
    # a valid rewrite with other cofactors; the table pins these ones
    for k in range(1, 8):
        for i in range(1, k + 1):
            for j in range(i, k + 1):
                assert rewrite_eta_product(k, i, j) == rewrite_table(k, i, j), (k, i, j)


@st.composite
def minor_combinations(draw):
    """(k, sum_a c_a m_a) with every c_a eta-homogeneous of one degree."""
    k = draw(st.integers(2, 4))
    se = sigma_eta_space(k)
    ms = list(minors(k).values())
    degree = draw(st.integers(0, 2))
    f = Poly.zero(se)
    for _ in range(draw(st.integers(1, 6))):
        exp = [draw(st.integers(0, 2)) for _ in range(k)] + [0] * k
        for h in draw(st.lists(st.integers(k, 2 * k - 1), min_size=degree, max_size=degree)):
            exp[h] += 1
        f = f + Poly.monomial(se, exp, draw(st.integers(-4, 4).filter(bool))) * draw(st.sampled_from(ms))
    return k, f


@settings(max_examples=60, deadline=None)
@given(minor_combinations())
def test_descent_matches_reference_descent(case):
    k, f = case
    assume(not f.is_zero())
    assert decompose_in_minors(f, k) == descend_by_table(f.collect("eta"), k)


def test_vanishes_on_variety():
    for k in (2, 3, 4):
        for m in minors(k).values():
            assert vanishes_on_Z(m, k)
            assert vanishes_on_Z(m * (sig(k, 1) + eta(k, k)), k)  # ideal closure
    assert not vanishes_on_Z(eta(2, 1) * eta(2, 2), 2)
    assert not vanishes_on_Z(eta(3, 2) ** 2, 3)


def test_decompose_simple_cases():
    k = 2
    m = minors(k)[1, 2]
    dec = decompose_in_minors(m, k)
    assert dec == {(1, 2): Poly.one(sigma_eta_space(k))}
    with pytest.raises(NotOnVarietyError):
        decompose_in_minors(eta(2, 1) * eta(2, 2), 2)
    with pytest.raises(NotOnVarietyError):
        decompose_in_minors(eta(2, 1), 2)


def test_decompose_roundtrip_randomized():
    rng = random.Random(61)
    done = 0
    for k in (2, 3, 4):
        se = sigma_eta_space(k)
        ms = minors(k)
        while done < 34 * (k - 1):
            target = rng.randint(2, 4)
            combo = Poly.zero(se)
            for mid, m in ms.items():
                coeff_terms = {}
                for _ in range(rng.randint(0, 2)):
                    exp = [0] * (2 * k)
                    for _ in range(rng.randint(0, 2)):
                        exp[rng.randint(0, k - 1)] += 1
                    extra = target - 2
                    for _ in range(extra):
                        exp[k + rng.randint(0, k - 1)] += 1
                    coeff_terms[tuple(exp)] = Fraction(rng.randint(-4, 4))
                combo = combo + Poly(se, coeff_terms) * m
            if combo.is_zero():
                continue
            done += 1
            dec = decompose_in_minors(combo, k)
            assert recombine(k, dec) == combo
    assert done >= 100


def test_recombine_rejects_coefficients_over_another_space():
    x1 = Poly.variable(x_space(2), "x", 1)
    with pytest.raises(ValueError):
        recombine(2, {(1, 2): x1})
    s1 = Poly.variable(sigma_space(2), "sigma", 1)
    with pytest.raises(ValueError):
        recombine(2, {(1, 2): s1})


def test_decompose_rejects_inhomogeneous():
    k = 2
    bad = minors(k)[1, 2] + eta(k, 1)
    with pytest.raises(ValueError):
        decompose_in_minors(bad, k)


def test_vanishing_decision_consistent_with_sampled_points():
    # random non-member quadratics are reported false, with a sampled
    # witness point where they are nonzero; members vanish at every
    # sampled point
    rng = random.Random(59)
    for k in (2, 3):
        se = sigma_eta_space(k)
        pts = sample_z_points(k, seed=13, n=50)
        rejected = 0
        while rejected < 20:
            terms = {}
            for _ in range(rng.randint(1, 3)):
                exp = [0] * (2 * k)
                exp[rng.randint(0, k - 1)] += rng.randint(0, 1)
                for _ in range(2):
                    exp[k + rng.randint(0, k - 1)] += 1
                terms[tuple(exp)] = Fraction(rng.randint(-3, 3))
            f = Poly(se, terms)
            if f.is_zero():
                continue
            values = [f.evaluate({"sigma": pt.sigma, "eta": pt.eta}) for pt in pts]
            if vanishes_on_Z(f, k):
                assert all(v == 0 for v in values)
            else:
                rejected += 1
                assert any(v != 0 for v in values)
        for m in minors(k).values():
            assert all(m.evaluate({"sigma": pt.sigma, "eta": pt.eta}) == 0 for pt in pts)


def test_sampled_points_satisfy_ray_and_root_identities():
    for k in (2, 3, 4):
        pts = sample_z_points(k, seed=9, n=60)
        assert len(pts) == 60
        for pt in pts:
            l = sum(s * e for s, e in zip(pt.sigma, pt.eta))
            assert l != 0
            assert pt.eta[k - 1] == 1
            for h in range(1, k + 1):
                assert pt.eta[h - 1] == pt.eta[0] * (-pt.eta[0] / l) ** (h - 1)
            assert horner(char_poly(pt.sigma), l / pt.eta[0]) == 0
            assert pt.sigma == tuple(Fraction((-1) ** h) * pt.s[h - 1] for h in range(1, k + 1))


def test_every_field_of_a_sampled_point_is_a_fraction():
    # the sampler draws and checks in ints; the fields stay Fractions, so
    # l / eta_1 in the symbols suite is exact division
    for k in (2, 3, 5):
        for pt in sample_z_points(k, seed=5, n=20):
            values = [*pt.sigma, *pt.eta, *pt.s, pt.zeta0, pt.zeta1]
            assert len(values) == 3 * k + 2
            assert {type(v) for v in values} == {Fraction}


def test_sampling_deterministic_and_mostly_nondegenerate():
    a = sample_z_points(3, seed=4, n=30)
    b = sample_z_points(3, seed=4, n=30)
    assert a == b
    disc = discriminant(3)
    degenerate = sum(
        1 for pt in sample_z_points(3, seed=10, n=200)
        if disc.evaluate({"sigma": list(pt.sigma)}) * pt.eta[0] == 0
    )
    assert degenerate < 20


def test_worked_sample_arithmetic():
    # t = 2, s_1 = 3 at k = 2 gives sigma = (-3, 2), eta = (2, 1);
    # the contracted ray hits the root -2 of z^2 + 3 z + 2
    t, s1 = Fraction(2), Fraction(3)
    s2 = -(t ** 2 - s1 * t)
    sigma = (Fraction(-1) * s1, s2)
    eta_pt = (t, Fraction(1))
    assert sigma == (Fraction(-3), Fraction(2))
    minor = minors(2)[1, 2]
    assert minor.evaluate({"sigma": sigma, "eta": eta_pt}) == 0
    l = sigma[0] * eta_pt[0] + sigma[1] * eta_pt[1]
    assert horner(char_poly(sigma), l / eta_pt[0]) == 0
    assert l / eta_pt[0] == -2


def test_theta_contraction_closed_form():
    cases = [
        (2, [3, 2], 1, 5),
        (3, [1, 4, -2], Fraction(2, 3), Fraction(-7, 2)),
        (2, [3, 2], Fraction(-1, 2), 2),  # a z = -1 branch
    ]
    rng = random.Random(67)
    for k in (2, 3, 4):
        for _ in range(10):
            sigma = [Fraction(rng.randint(-6, 6)) for _ in range(k)]
            a = Fraction(0)
            while a == 0:
                a = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            z = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            cases.append((k, sigma, a, z))
    for case in cases:
        lhs, rhs = theta_contraction_sides(*case)
        assert lhs == rhs, case
    with pytest.raises(ValueError):
        theta_contraction_sides(2, [1, 1], 0, 1)


def test_theta_contraction_vanishes_at_distinct_roots():
    # roots 1 and 2 of z^2 - 3 z + 2: take z = 1 and -1/a = 2
    from symtrace.transport import theta

    sigma = [Fraction(3), Fraction(2)]
    a = Fraction(-1, 2)
    total = sum(
        theta(2, h).evaluate({"sigma": sigma, "t": [Fraction(1)]}) * a ** (h - 1)
        for h in (1, 2)
    )
    assert total == 0
    # double root: z = -1/a = 1 for z^2 - 2 z + 1
    sigma = [Fraction(2), Fraction(1)]
    a = Fraction(-1)
    total = sum(
        theta(2, h).evaluate({"sigma": sigma, "t": [Fraction(1)]}) * a ** (h - 1)
        for h in (1, 2)
    )
    assert total == 0


def test_symbols_of_generators_vanish_on_variety():
    for k in (2, 3, 4):
        for m in range(2, k + 1):
            assert vanishes_on_Z(op_T(k, m).symbol(), k)
        for p in range(1, k):
            for q in range(2, k + 1):
                if p != q - 1:
                    assert vanishes_on_Z(op_A(k, p, q, 1).symbol(), k)


def test_descent_takes_no_recursion_depth():
    # one loop pass per eta-degree, carrying the power of eta_k divided out
    k = 2
    f = minors(k)[1, 2] * eta(k, 2) ** 298
    with shallow_stack():
        with pytest.raises(NotOnVarietyError):
            decompose_in_minors(eta(k, 2) ** 300, k)
        coeffs = decompose_in_minors(f, k)
    assert recombine(k, coeffs) == f
    assert coeffs == {(1, 2): eta(k, 2) ** 298}
