import json
import random
from pathlib import Path

import numpy as np
import pytest

from symtrace import numerics
from symtrace.annihilators import op_A, op_T
from symtrace.cli import dispatch
from symtrace.numerics import (
    EXP,
    ROOT_BACKWARD_ERROR,
    SIN,
    NODES,
    RootConvergenceError,
    UnsafeStencilError,
    contour_radius,
    dn_contour,
    fd_annihilation_check,
    poly_roots,
    power_function,
    trace_contour,
    trace_function_handle,
)
from symtrace.spaces import sigma_space
from symtrace.symfun import family
from symtrace.weyl import WeylOp


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


def test_fd_annihilation_of_system_on_trace_exp():
    F2 = trace_function_handle(EXP)
    res = fd_annihilation_check(op_T(2, 2), F2, [3.0, 2.0])
    assert res.residual <= 1e-6 * res.scale
    assert 1.5 < res.convergence_order < 2.5

    res = fd_annihilation_check(op_A(3, 1, 3, 1), trace_function_handle(EXP), [1.0, 0.25, 2.0])
    assert res.residual <= 1e-6 * res.scale


def test_fd_control_case_detects_non_annihilator():
    F = trace_function_handle(EXP)
    res = fd_annihilation_check(WeylOp.partial(sigma_space(2), 1), F, [3.0, 2.0])
    assert res.residual > 1e-6 * res.scale * 100


def test_fd_rejects_stencil_near_discriminant():
    F = trace_function_handle(EXP)
    with pytest.raises(UnsafeStencilError):
        fd_annihilation_check(op_T(2, 2), F, [2.0, 1.0])  # double root locus
    # roots -3, -2, 0, 2, 3, 3: the other roots spread, the discriminant is still 0
    with pytest.raises(UnsafeStencilError):
        fd_annihilation_check(op_T(6, 2), F, [3.0, -13.0, -39.0, 36.0, 108.0, 0.0])
    rng = random.Random(31)
    for _ in range(60):
        k = rng.randint(2, 12)
        roots = [rng.randint(-3, 3) for _ in range(k - 1)]
        roots.append(rng.choice(roots))
        with pytest.raises(UnsafeStencilError):
            fd_annihilation_check(op_T(k, 2), F, sigma_of(roots))
    # k = 1 has no locus: d_1 of T(exp) = exp(s_1)
    res = fd_annihilation_check(WeylOp.partial(sigma_space(1), 1), F, [0.5])
    assert res.residual == pytest.approx(np.exp(0.5), rel=1e-8)


def test_fd_rejects_high_order():
    F = trace_function_handle(EXP)
    S = sigma_space(2)
    cubic = WeylOp.partial(S, 1, 3)
    with pytest.raises(ValueError):
        fd_annihilation_check(cubic, F, [3.0, 2.0])
