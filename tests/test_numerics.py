import itertools
import json
import random
from fractions import Fraction
from functools import reduce
from operator import mul
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symtrace import numerics
from symtrace.annihilators import generator_system, op_A, op_T, op_T0
from symtrace.cli import dispatch
from symtrace.numerics import (
    EXP,
    ROOT_BACKWARD_ERROR,
    SIN,
    NODES,
    RootConvergenceError,
    contour_annihilation_check,
    contour_radius,
    dn_contour,
    poly_roots,
    power_function,
    trace_contour,
)
from symtrace.poly import Poly
from symtrace.spaces import SpaceMismatchError, sigma_space, x_space
from symtrace.symfun import family
from symtrace.weyl import WeylOp

from conftest import elementary_values, rational_point


def test_roots_simple_factorization():
    r = sorted(poly_roots([3, 2]).real)
    assert abs(r[0] - 1) < 1e-9 and abs(r[1] - 2) < 1e-9


def test_roots_all_zero():
    assert np.allclose(poly_roots([0, 0, 0]), 0)


def test_roots_double_root_residual():
    r = poly_roots([2, 1])
    for z in r:
        assert abs(z ** 2 - 2 * z + 1) <= 1e-10 * max(1.0, abs(z)) ** 2


def sigma_of(planted):  # np.poly gives (-1)^h s_h
    return list(np.poly(planted)[1:] * (-1) ** np.arange(1, len(planted) + 1))


def test_roots_residual_criterion_random():
    draws = []
    for seed in range(30):
        rng = random.Random(seed)
        for _ in range(25):
            k = rng.randint(1, 12)
            pool = rng.sample(range(-5, 6), rng.randint(1, min(k, 11)))
            repeated = [rng.choice(pool) for _ in range(k)]  # multiplicities up to k
            simple = rng.sample(range(-6, 7), k)
            draws += [([complex(rng.uniform(-4, 4), rng.uniform(-2, 2)) for _ in range(k)], None),
                      (sigma_of(repeated), repeated), (sigma_of(simple), simple)]
    for sigma, planted in draws:
        k = len(sigma)
        roots = poly_roots(sigma)
        assert len(roots) == k
        coeffs = [1] + [(-1) ** h * sigma[h - 1] for h in range(1, k + 1)]
        for z in roots:
            # P and the scale sum_h |c_h| |z|^(k-h) as Python sums, constant term first
            terms = [coeffs[h] * z ** (k - h) for h in range(k, -1, -1)]
            assert abs(sum(terms)) <= ROOT_BACKWARD_ERROR * k * sum(abs(t) for t in terms)
        if planted is not None and len(set(planted)) == k:
            assert all(min(abs(roots - r)) < 1e-10 for r in planted)


def test_roots_raise_when_a_root_misses_the_backward_error_bound(monkeypatch):
    monkeypatch.setattr(np, "roots", lambda coeffs: np.array([1.0, 2.0]) + 1e-9)
    with pytest.raises(RootConvergenceError) as err:
        poly_roots([3, 2])
    # the worse root is 1 + 1e-9: |P| = 1e-9 (1 - 1e-9), scale 1 + 3 + 2
    assert err.value.backward_error == pytest.approx(1e-9 / 6, rel=1e-6)


def test_contour_radius_dominates_the_root_bound():
    radius = contour_radius([3, 2])
    assert radius == 2.0 * max(1.0, abs(3) + abs(2) ** 0.5)
    assert radius >= 2.0
    assert NODES == 256


def test_trace_of_constant_and_exp():
    tv = trace_contour(power_function(0), [3, 2])
    assert abs(tv.value - 2) < 1e-12
    tv = trace_contour(EXP, [3, 2])
    oracle = sum(np.exp(z) for z in poly_roots([3, 2]))
    assert abs(tv.value - oracle) <= 1e-9 * abs(oracle)
    assert tv.difference < 1e-9


def test_trace_of_powers_matches_power_sums_pinned():
    # the pinned example point: within 1e-9 up to m = 8
    for m in range(0, 9):
        tv = trace_contour(power_function(m), [3, 2]).value
        exact = float(family(2).newton(m).evaluate({"sigma": [3, 2]}))
        assert abs(tv - exact) <= 1e-9 * max(1.0, abs(exact))


def test_trace_of_powers_matches_power_sums_random():
    rng = random.Random(79)
    for k in (2, 3, 4):
        hi = 2 if k == 4 else 3  # keeps the contour radius (and roundoff) small
        for _ in range(5):
            sigma = [rng.randint(-hi, hi) for _ in range(k)]
            for m in range(0, 7):
                tv = trace_contour(power_function(m), sigma).value
                exact = float(family(k).newton(m).evaluate({"sigma": sigma}))
                assert abs(tv - exact) <= 1e-8 * max(1.0, abs(exact))


def test_trace_both_forms_agree():
    rng = random.Random(83)
    for k in (2, 3, 4, 5):
        for _ in range(4):
            sigma = [rng.randint(-3, 3) for _ in range(k)]
            tv = trace_contour(EXP, sigma)
            assert abs(tv.value - tv.residue_form) <= 1e-9 * max(1.0, abs(tv.value))


def test_root_sum_oracle_for_sin_and_exp():
    rng = random.Random(89)
    for k in (2, 3, 4):
        sigma = [rng.randint(-3, 3) for _ in range(k)]
        roots = poly_roots(sigma)
        for f, np_f in ((EXP, np.exp), (SIN, np.sin)):
            tv = trace_contour(f, sigma).value
            oracle = sum(np_f(z) for z in roots)
            assert abs(tv - oracle) <= 1e-8 * max(1.0, abs(oracle))


def _numpy_contour(sigma):
    """The row of P, the nodes and P on them, as numpy arrays: the contour
    sums below take numpy's summation order and complex arithmetic."""
    coeffs = np.array([1.0] + [(-1) ** h * s for h, s in enumerate(sigma, start=1)], complex)
    z = contour_radius(sigma) * np.exp(2j * np.pi * np.arange(NODES) / NODES)
    return coeffs, z, np.polyval(coeffs, z)


def _numpy_trace(f: str, sigma):
    """The log form and the residue form of trace_contour on numpy arrays."""
    k = len(sigma)
    coeffs, z, p = _numpy_contour(sigma)
    if f.startswith("pow:"):
        m = int(f[4:])
        fz, dfz, f0 = z ** m, m * z ** (m - 1), 0.0 ** m
    else:
        fn, dfn = {"exp": (np.exp, np.exp), "sin": (np.sin, np.cos)}[f]
        fz, dfz, f0 = fn(z), dfn(z), fn(0.0)
    residue = np.mean(fz * np.polyval(np.polyder(coeffs), z) / p * z)
    return -np.mean(dfz * np.log(p / z ** k) * z) + k * f0, residue


def test_scalar_contour_sums_match_the_numpy_oracle_on_the_benchmark_draws(monkeypatch, capsys):
    # the benchmark's numcheck inputs and its NUMCHECK_RTOL rule: agreement
    # to 1e-12 times the largest |f| on the contour (e^R for exp and sin,
    # R^m for pow:m); every draw exits 0, and the CLI's value passes the
    # benchmark's root-sum oracle
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "bench"))
    from oracles import NUMCHECK_RTOL, numcheck_problems
    from workloads import numcheck_sigma

    draws = 0
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for k in range(2, 13):
            sigma = [float(s) for s in numcheck_sigma(rng, k)]
            _, z, p = _numpy_contour(sigma)
            for m in range(-k + 1, 2 * k + 1):  # dn_contour's integrand, scaled by its largest value
                v = z ** (m + k) / p
                assert abs(dn_contour(m, sigma) - np.mean(v)) <= NUMCHECK_RTOL * max(1.0, np.max(np.abs(v)))
            radius = contour_radius(sigma)
            for f in ("exp", "sin", f"pow:{2 * k}"):
                fn = power_function(2 * k) if f.startswith("pow:") else {"exp": EXP, "sin": SIN}[f]
                scale = max(1.0, radius ** (2 * k) if f.startswith("pow:") else np.exp(radius))
                log, residue = _numpy_trace(f, sigma)
                tv = trace_contour(fn, sigma)
                assert abs(tv.value - log) <= NUMCHECK_RTOL * scale, (seed, k, f)
                assert abs(tv.residue_form - residue) <= NUMCHECK_RTOL * scale, (seed, k, f)
                text = ",".join(map(repr, sigma))
                assert dispatch(["numcheck", "--k", str(k), f"--sigma={text}", "--f", f]) == 0
                doc = json.loads(capsys.readouterr().out)
                assert numcheck_problems(doc, {"sigma": text, "f": f}) == [], (seed, k, f)
                draws += 1
    assert draws == 99


def test_dn_contour_values():
    assert abs(dn_contour(-1, [3, 2])) < 1e-10
    assert abs(dn_contour(0, [3, 2]) - 1) < 1e-12
    assert abs(dn_contour(2, [3, 2]) - 7) < 1e-9
    with pytest.raises(ValueError):
        dn_contour(-2, [3, 2])


def test_dn_contour_matches_symbolic():
    rng = random.Random(97)
    for k in (2, 3, 4):
        for _ in range(5):
            sigma = [rng.randint(-3, 3) for _ in range(k)]
            for m in range(-k + 1, 9):
                got = dn_contour(m, sigma)
                exact = float(family(k).derived(m).evaluate({"sigma": sigma}))
                assert abs(got - exact) <= 1e-8 * max(1.0, abs(exact))


def test_quadrature_geometric_convergence(monkeypatch):
    # doubling the node count shrinks the error at least 100-fold until
    # the machine floor; checked on the power family
    sigma = [3, 2]
    exact = float(family(2).newton(6).evaluate({"sigma": sigma}))
    errors = []
    for n in (8, 16, 32, 64):
        monkeypatch.setattr(numerics, "NODES", n)
        errors.append(abs(trace_contour(power_function(6), sigma).value - exact))
    asserted = 0
    for a, b in zip(errors, errors[1:]):
        if a > 1e-8:  # above the roundoff floor for this magnitude
            assert b <= a / 100.0
            asserted += 1
    assert asserted >= 1


def test_contour_check_annihilation_of_system_on_trace_exp():
    res = contour_annihilation_check(op_T(2, 2), EXP, [3, 2])
    assert res.residual <= res.tolerance
    res = contour_annihilation_check(op_A(3, 1, 3, 1), EXP, [1, Fraction(1, 4), 2])
    assert res.residual <= res.tolerance


def _generators_and_t0(k):
    return [*generator_system(k, "newton").values(), *(op_T0(k, mu) for mu in range(k - 1))]


def test_contour_check_detects_non_annihilator():
    res = contour_annihilation_check(WeylOp.partial(sigma_space(2), 1), EXP, [3, 2])
    assert res.residual > 1e8 * res.tolerance
    # off the locus at a large contour radius, where finite differences of
    # the contour value failed: every generator and T0(mu) passes, and d_1
    # stands clear of the rounding bound
    for roots, radius, margin in (((-3, -2, 0, 2, 3, 4), 33.0, 1e4), ((-2, -1, 0, 1, 2, 3), 21.5, 1e8)):
        sigma = list(elementary_values(roots))
        assert contour_radius(sigma) == pytest.approx(radius, abs=0.05)
        for op in _generators_and_t0(6):
            res = contour_annihilation_check(op, EXP, sigma)
            assert res.residual <= res.tolerance, (roots, op)
        res = contour_annihilation_check(WeylOp.partial(sigma_space(6), 1), EXP, sigma)
        assert res.residual > margin * res.tolerance, roots


def test_contour_check_passes_on_the_discriminant_locus():
    # T(f) is entire in s, so a repeated root needs no guard
    points = [[2, 1], [3, -13, -39, 36, 108, 0]]  # roots 1, 1 and -3, -2, 0, 2, 3, 3
    for sigma in points:
        for op in _generators_and_t0(len(sigma)):
            res = contour_annihilation_check(op, EXP, sigma)
            assert res.residual <= res.tolerance, (sigma, op)
    rng = random.Random(31)
    for _ in range(60):
        k = rng.randint(2, 12)
        roots = [rng.randint(-3, 3) for _ in range(k - 1)]
        roots.append(rng.choice(roots))
        res = contour_annihilation_check(op_T(k, 2), EXP, list(elementary_values(roots)))
        assert res.residual <= res.tolerance, roots
    # k = 1: d_1 of T(exp) = exp(s_1)
    res = contour_annihilation_check(WeylOp.partial(sigma_space(1), 1), EXP, [Fraction(1, 2)])
    assert abs(res.value - np.exp(0.5)) <= res.tolerance


def test_contour_check_works_at_any_order():
    S = sigma_space(2)
    member = WeylOp.partial(S, 1) * op_T(2, 2)  # order 3, in the left ideal
    assert member.order() == 3
    res = contour_annihilation_check(member, EXP, [3, 2])
    assert res.residual <= res.tolerance
    res = contour_annihilation_check(WeylOp.partial(S, 1, 3), EXP, [3, 2])
    assert res.residual > res.tolerance


def test_contour_check_rejects_a_mismatched_space():
    with pytest.raises(SpaceMismatchError):
        contour_annihilation_check(op_T(3, 2), EXP, [3, 2])
    with pytest.raises(SpaceMismatchError):
        contour_annihilation_check(WeylOp.partial(x_space(2), 1), EXP, [3, 2])


def test_contour_derivatives_of_power_traces_match_exact_values():
    # d^beta N_m at a rational point, |beta| <= 3 (beta = 0 included), to the stated bound
    rng = random.Random(101)
    for k in (2, 3, 4):
        S = sigma_space(k)
        sigma = rational_point(rng, k, -3, 3, 2)
        for beta in itertools.product(range(4), repeat=k):
            if sum(beta) > 3:
                continue
            D = reduce(mul, [WeylOp.partial(S, h, b) for h, b in enumerate(beta, start=1)])
            for m in range(9):
                exact = D.apply(family(k).newton(m)).evaluate({"sigma": sigma})
                res = contour_annihilation_check(D, power_function(m), sigma)
                assert abs(res.value - complex(exact)) <= res.tolerance, (k, beta, m)


_HALVES = st.integers(-2, 2).map(lambda n: Fraction(n, 2))


@st.composite
def left_combinations(draw):
    """(k, sum_i c_i gen_i, roots): each c_i a polynomial times a partial of
    order <= 2, so the combination has order <= 4; roots in [-1, 1] by
    halves, so repeated roots are frequent and the contour radius <= 18.1."""
    k = draw(st.integers(2, 4))
    S = sigma_space(k)
    gens = list(generator_system(k, "newton").values())
    exps = st.tuples(*[st.integers(0, 1)] * k)
    pieces = []
    for _ in range(draw(st.integers(1, 3))):
        cofactor = Poly(S, draw(st.dictionaries(exps, st.integers(-3, 3), min_size=1, max_size=3)))
        h = draw(st.integers(1, k))
        partial = WeylOp.partial(S, h, draw(st.integers(0, 2)))
        pieces.append(WeylOp.from_poly(cofactor) * partial * draw(st.sampled_from(gens)))
    return k, WeylOp.sum(S, pieces), draw(st.lists(_HALVES, min_size=k, max_size=k))


@settings(max_examples=60, deadline=None)
@given(left_combinations())
def test_left_combinations_of_generators_pass_and_a_partial_fails(case):
    k, G, roots = case
    sigma = list(elementary_values(roots))
    res = contour_annihilation_check(G, EXP, sigma)
    assert res.residual <= res.tolerance
    # d_k T(exp) = (-1)^(k+1) [x_1, .., x_k] exp, the mean of e^(t.x) over the
    # simplex: at least e^-1 / (k-1)! for real roots in [-1, 1]
    res = contour_annihilation_check(G + WeylOp.partial(sigma_space(k), k), EXP, sigma)
    assert res.residual > res.tolerance
