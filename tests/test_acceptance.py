"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Every exact assertion is zero-tolerance; numeric assertions
carry their stated tolerances; each criterion asserts its runtime
budget.
"""

import random
import time
from fractions import Fraction

import numpy as np

from symtrace.annihilators import generator_system, op_T0
from symtrace.charvar import (
    decompose_in_minors,
    minor_generator,
    minors,
    recombine,
    rewrite_eta_product,
    sample_z_points,
)
from symtrace.membership import reduce_modulo_system, verify_certificate
from symtrace.numerics import (
    EXP,
    contour_annihilation_check,
    dn_contour,
    poly_roots,
    power_function,
    trace_contour,
)
from symtrace.poly import Poly
from symtrace.report import golden_check
from symtrace.serialize import weyl_from_dict
from symtrace.spaces import sigma_eta_space, sigma_space
from symtrace.symfun import (
    char_poly,
    discriminant,
    family,
    horner,
)
from symtrace.transport import elementary_symmetric_op, xi_transport
from symtrace.weyl import WeylOp


def _stamp(name: str, t0: float, budget: float):
    # the FAIL counterpart is printed by the hook in conftest.py
    elapsed = time.time() - t0
    assert elapsed < budget, f"{name} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s)")


def test_criterion_golden_formulas():
    t0 = time.time()
    import json

    from symtrace.report import golden_dir

    with open(golden_dir() / "sigma2_k2.json", encoding="utf-8") as fh:
        stored = weyl_from_dict(json.load(fh)["value"])
    assert xi_transport(elementary_symmetric_op(2, 2)) == stored

    rep = golden_check()
    status = {e.id: e.status for e in rep.entries}
    for name in ("golden:sigma2_k3", "golden:sigma3_k3"):
        assert status[name] in ("pass", "deviation")
        if status[name] == "deviation":
            # a deviating transported operator must still pass its own checks
            k = 3
            h = 2 if "sigma2" in name else 3
            op = xi_transport(elementary_symmetric_op(k, h))
            assert all(op.apply(family(k).newton(m)).is_zero() for m in range(2 * k + 7))
    assert status["golden:sigma2_k2"] == "pass"
    assert rep.counts["fail"] == 0
    _stamp("golden-formula-reproduction", t0, 5.0)


def test_criterion_worked_example():
    t0 = time.time()
    sigma3 = xi_transport(elementary_symmetric_op(3, 3))
    assert sigma3.apply(family(3).newton(6)).is_zero()
    _stamp("worked-example-sigma3-n6", t0, 1.0)


def test_criterion_annihilation_suite():
    t0 = time.time()
    for k in range(2, 6):
        max_m = 2 * k + 6
        fam = family(k)
        for op in generator_system(k, "newton").values():
            for m in range(max_m + 1):
                assert op.apply(fam.newton(m)).is_zero()
        for op in generator_system(k, "dnewton").values():
            for m in range(max_m + 1):
                assert op.apply(fam.derived(m)).is_zero()
        for gid, op in generator_system(k, "pnewton").items():
            diagonal = int(gid[2:].split(")")[0]) if gid.startswith("T(") else None
            for m in range(1, max_m + 1):
                image = op.apply(fam.primitive(m))
                if m == diagonal:
                    # computed identity; the published blanket claim misses
                    # this constant (recorded as a deviation in the suite)
                    assert image == Poly.constant(sigma_space(k), (-1) ** m)
                else:
                    assert image.is_zero()
            for p in range(1, k + 1):
                assert op.apply(Poly.variable(sigma_space(k), "sigma", p)).is_zero()
    _stamp("annihilation-suite-k2-to-k5", t0, 60.0)


def test_criterion_relation_suite():
    t0 = time.time()
    from symtrace.report import suite_relations, suite_weights

    for k in range(2, 6):
        rel = suite_relations(k)
        wts = suite_weights(k)
        assert rel.counts["fail"] == 0
        assert wts.counts["fail"] == 0
        assert rel.counts["deviation"] >= 1  # the T-from-T0 display sign
        assert wts.counts["deviation"] >= 1  # the A.U0 display sign
    _stamp("relation-suite-k-le-5", t0, 30.0)


def test_criterion_symbol_charvar_suite():
    t0 = time.time()
    # symbol identities of the T-generators and index-swap generators
    for k in range(2, 6):
        gens = generator_system(k, "newton")
        for mid, m in minors(k).items():
            gid, sign = minor_generator(mid)
            assert m == gens[gid].symbol().scale(sign)
        se = sigma_eta_space(k)
        for i in range(1, k + 1):
            for j in range(i, k + 1):
                u, v = rewrite_eta_product(k, i, j)
                lhs = Poly.variable(se, "eta", i) * Poly.variable(se, "eta", j)
                assert lhs == recombine(k, u) + Poly.variable(se, "eta", k) * v

    # 100 random ideal elements decompose and recombine exactly
    rng = random.Random(101)
    done = 0
    while done < 100:
        k = rng.randint(2, 4)
        se = sigma_eta_space(k)
        target = rng.randint(2, 4)
        combo = Poly.zero(se)
        for m in minors(k).values():
            terms = {}
            for _ in range(rng.randint(0, 2)):
                exp = [0] * (2 * k)
                for _ in range(rng.randint(0, 2)):
                    exp[rng.randint(0, k - 1)] += 1
                for _ in range(target - 2):
                    exp[k + rng.randint(0, k - 1)] += 1
                terms[tuple(exp)] = Fraction(rng.randint(-4, 4))
            combo = combo + Poly(se, terms) * m
        if combo.is_zero():
            continue
        done += 1
        dec = decompose_in_minors(combo, k)
        assert recombine(k, dec) == combo

    # 1000 sampled variety points: minors vanish (asserted inside the
    # sampler), the ray identities hold, and degeneracy is rare
    degenerate = 0
    per_k = {2: 250, 3: 250, 4: 250, 5: 250}
    for k, n in per_k.items():
        disc = discriminant(k)
        for pt in sample_z_points(k, seed=1000 + k, n=n):
            l = sum(s * e for s, e in zip(pt.sigma, pt.eta))
            assert l != 0
            for h in range(1, k + 1):
                assert pt.eta[h - 1] == pt.eta[0] * (-pt.eta[0] / l) ** (h - 1)
            assert horner(char_poly(pt.sigma), l / pt.eta[0]) == 0
            if disc.evaluate({"sigma": list(pt.sigma)}) * pt.eta[0] == 0:
                degenerate += 1
    assert degenerate <= 100  # generic nonvanishing of disc * eta_1
    _stamp("symbol-charvar-suite", t0, 60.0)


def test_criterion_membership_instances():
    t0 = time.time()
    for k in (2, 3, 4):
        for h in range(2, k + 1):
            op = xi_transport(elementary_symmetric_op(k, h))
            cert = reduce_modulo_system(op, k)
            assert cert.is_member, (k, h)
            assert cert.remainder.is_zero()
            assert verify_certificate(op, cert)
    _stamp("membership-instances", t0, 120.0)


def test_criterion_family_identities():
    t0 = time.time()
    # gradient of the power sums lands in the derived family
    for k in (2, 3, 4):
        for m in range(0, 11):
            for h in range(1, k + 1):
                sign = -1 if (h - 1) % 2 else 1
                got = family(k).newton(m).partial("sigma", h)
                if m == 0:
                    assert got.is_zero()
                else:
                    assert got == family(k).derived(m - h).scale(m * sign)

    # derived-family seeds, signed recurrence, integrality
    for k in (2, 3, 4):
        assert family(k).derived(0) == Poly.one(sigma_space(k))
        for m in range(-k + 1, 0):
            assert family(k).derived(m).is_zero()
        for m in range(1, 13):
            acc = Poly.zero(sigma_space(k))
            for h in range(0, k + 1):
                sign = -1 if h % 2 else 1
                term = family(k).derived(m - h).scale(sign)
                if h:
                    term = Poly.variable(sigma_space(k), "sigma", h) * term
                acc = acc + term
            assert acc.is_zero()
            assert all(c.denominator == 1 for _, c in family(k).derived(m).sorted_terms())
        for h in range(1, k + 1):
            coeff = family(k).derived(h).coefficient(
                tuple(1 if i == h - 1 else 0 for i in range(k))
            )
            assert coeff == (-1) ** (h - 1)

    # gradients of the primitive family with the corrected signs,
    # validated against the published example table where it is
    # self-consistent (PN_1, PN_2); PN_3/PN_4 displays deviate
    S4 = sigma_space(4)
    assert family(4).primitive(1) == Poly(S4, {(1, 0, 0, 0): -1})
    assert family(4).primitive(2) == Poly(S4, {(2, 0, 0, 0): Fraction(1, 2), (0, 1, 0, 0): 1})
    rep = golden_check()
    status = {e.id: e.status for e in rep.entries}
    assert status["golden:pn1_k4"] == "pass" and status["golden:pn2_k4"] == "pass"
    assert status["golden:pn3_k4"] == "deviation" and status["golden:pn4_k4"] == "deviation"
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
    _stamp("family-identities", t0, 30.0)


def test_criterion_numeric_cross_validation():
    t0 = time.time()
    rng = random.Random(111)
    for k in (2, 3, 4):
        hi = 2 if k == 4 else 3
        for _ in range(20):
            sigma = [rng.randint(-hi, hi) for _ in range(k)]
            roots = poly_roots(sigma)
            tv = trace_contour(EXP, sigma)
            oracle = sum(np.exp(z) for z in roots)
            assert abs(tv.value - oracle) <= 1e-8 * max(1.0, abs(oracle))
            assert abs(tv.value - tv.residue_form) <= 1e-8 * max(1.0, abs(tv.value))
            m = rng.randint(0, 6)
            exact = float(family(k).newton(m).evaluate({"sigma": sigma}))
            pv = trace_contour(power_function(m), sigma).value
            assert abs(pv - exact) <= 1e-8 * max(1.0, abs(exact))
            md = rng.randint(-k + 1, 6)
            dn_exact = float(family(k).derived(md).evaluate({"sigma": sigma}))
            assert abs(dn_contour(md, sigma) - dn_exact) <= 1e-8 * max(1.0, abs(dn_exact))

    # one contour sum: the system annihilates the analytic trace of exp
    cases = {
        2: [3.0, 2.0],
        3: [1.0, 0.25, 2.0],
        4: [0.0, -1.25, 0.0, 0.25],
    }
    for k, sigma0 in cases.items():
        for op in generator_system(k, "newton").values():
            res = contour_annihilation_check(op, EXP, sigma0)
            assert res.residual <= res.tolerance, (k, res)
        for mu in range(0, k - 1):
            res = contour_annihilation_check(op_T0(k, mu), EXP, sigma0)
            assert res.residual <= res.tolerance
    control = contour_annihilation_check(WeylOp.partial(sigma_space(2), 1), EXP, [3.0, 2.0])
    assert control.residual > 1e8 * control.tolerance
    _stamp("numeric-cross-validation", t0, 30.0)
