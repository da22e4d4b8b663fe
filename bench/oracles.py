"""The per-op correctness gate, with oracles that do not use symtrace.

Polynomials here are plain dicts {exponent tuple: Fraction} over the
(sigma_1..sigma_k, eta_1..eta_k) space, so the decomposition and
variety-point checks share no code with the program they check.
"""

from __future__ import annotations

import cmath
import hashlib
import json
from fractions import Fraction

import numpy as np

NUMCHECK_RTOL = 1e-12  # times the largest |f| on the contour, see numcheck_problems


# -- sparse polynomials over Q ------------------------------------------------------


def unit(n: int, pos: int | None = None) -> tuple[int, ...]:
    """The exponent of the variable at slot `pos` (the constant when None)."""
    exp = [0] * n
    if pos is not None:
        exp[pos] = 1
    return tuple(exp)


def add(a: dict, b: dict) -> dict:
    out = dict(a)
    for exp, c in b.items():
        s = out.get(exp, 0) + c
        if s:
            out[exp] = s
        else:
            out.pop(exp, None)
    return out


def mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out = add(out, {tuple(x + y for x, y in zip(e1, e2)): c1 * c2})
    return out


def evaluate(p: dict, point: list[Fraction]) -> Fraction:
    total = Fraction(0)
    for exp, c in p.items():
        term = c
        for v, e in zip(point, exp):
            term *= v ** e
        total += term
    return total


def minors(k: int) -> dict[tuple[int, int], dict]:
    """m(i,j) = eta_i eta_{j-1} - eta_{i-1} eta_j for 1 <= i < j <= k,
    where the eta_0 slot holds -l and l = sum_h sigma_h eta_h."""
    n = 2 * k

    def eta(h):
        return {unit(n, k + h - 1): Fraction(1)}

    l_form: dict = {}
    for h in range(1, k + 1):
        l_form = add(l_form, mul({unit(n, h - 1): Fraction(1)}, eta(h)))
    out = {}
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            if i == 1:
                m = add(mul(eta(1), eta(j - 1)), mul(l_form, eta(j)))
            else:
                m = add(mul(eta(i), eta(j - 1)), mul({unit(n): Fraction(-1)}, mul(eta(i - 1), eta(j))))
            out[(i, j)] = m
    return out


def poly_to_doc(p: dict, k: int) -> dict:
    return {"space": f"sigma:{k}+eta:{k}",
            "terms": [{"coeff": f"{c.numerator}/{c.denominator}", "exp": list(exp)}
                      for exp, c in sorted(p.items())]}


def poly_from_doc(d: dict) -> dict:
    return {tuple(t["exp"]): Fraction(t["coeff"]) for t in d["terms"]}


# -- the gate -------------------------------------------------------------------------


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(data: bytes):
    """Parse stdout as UTF-8 JSON, refusing NaN and Infinity."""
    return json.loads(data.decode("utf-8"), parse_constant=_reject_constant)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_op(op, rc: int | None, stdout: bytes, references: dict, work) -> list[str]:
    """Every way this op's result misses its gate; empty when it passes."""
    if rc is None:
        return ["killed at the time cap"]
    problems = []
    if rc != op.expect_rc:
        problems.append(f"exit code {rc}, expected {op.expect_rc}")
    try:
        doc = strict_json(stdout)
    except ValueError as exc:   # includes UnicodeDecodeError and JSONDecodeError
        return problems + [f"stdout is not strict JSON: {exc}"]
    if op.hashed:
        want = references.get(op.id)
        if want is None:
            problems.append("no reference hash recorded for this op")
        elif sha256(stdout) != want:
            problems.append("stdout differs from the reference output")
    try:
        problems += check_semantics(op.check, doc, work)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problems.append(f"malformed output: {exc!r}")
    return problems


def check_semantics(check: dict, doc: dict, work) -> list[str]:
    kind = check["kind"]
    if kind == "report":
        ok = doc["counts"]["fail"] == 0 and doc["exit_status"] == 0
        return [] if ok else [f"report counts {doc['counts']}"]
    if kind == "family":
        return [] if doc["object"] == "family" and doc["entries"] else ["empty family table"]
    if kind == "weylop":
        return [] if doc["object"] == "weylop" and doc["op"]["terms"] else ["empty operator"]
    if kind == "member":
        return [] if doc["member"] is True and doc["verified"] is True else [
            f"member={doc['member']} verified={doc['verified']}"]
    if kind == "zpoints":
        return zpoints_problems(doc, check["k"])
    if kind == "decompose":
        return decompose_problems(doc, check, work)
    if kind == "numcheck":
        return numcheck_problems(doc, check)
    raise ValueError(f"unknown check kind {kind!r}")


def zpoints_problems(doc: dict, k: int) -> list[str]:
    ms = minors(k)
    for n, pt in enumerate(doc["points"]):
        point = [Fraction(v) for v in pt["sigma"]] + [Fraction(v) for v in pt["eta"]]
        for mid, m in ms.items():
            if evaluate(m, point) != 0:
                return [f"sample point {n} misses minor {mid}"]
    return []


def decompose_problems(doc: dict, check: dict, work) -> list[str]:
    if doc["member_of_minor_ideal"] is not check["member"]:
        return [f"member_of_minor_ideal={doc['member_of_minor_ideal']}, expected {check['member']}"]
    if not check["member"]:
        return []
    if doc["recombines"] is not True:
        return ["recombines is not true"]
    k = check["k"]
    f = poly_from_doc(json.loads((work / check["input"]).read_text(encoding="utf-8")))
    ms = minors(k)
    total: dict = {}
    for name, coeff in doc["coefficients"].items():
        i, j = (int(v) for v in name[2:-1].split(","))
        c = poly_from_doc(coeff)
        if coeff["space"] == f"sigma:{k}":
            c = {exp + (0,) * k: v for exp, v in c.items()}
        total = add(total, mul(c, ms[(i, j)]))
    return [] if total == f else ["coefficients do not recombine to the input"]


def power_sum(sigma: list[Fraction], m: int) -> Fraction:
    """sum_j x_j^m of the roots, exactly, by Newton's identities (s_h = e_h)."""
    k = len(sigma)
    p = [Fraction(k)]
    for n in range(1, m + 1):
        acc = Fraction(0)
        for i in range(1, min(n - 1, k) + 1):
            acc += (-1) ** (i - 1) * sigma[i - 1] * p[n - i]
        if n <= k:
            acc += (-1) ** (n - 1) * n * sigma[n - 1]
        p.append(acc)
    return p[m]


def numcheck_oracle(sigma: list[float], f: str) -> complex:
    if f.startswith("pow:"):
        return complex(power_sum([Fraction(s) for s in sigma], int(f[4:])))
    coeffs = [1.0] + [(-1) ** h * s for h, s in enumerate(sigma, start=1)]
    fn = cmath.exp if f == "exp" else cmath.sin
    return sum(fn(complex(r)) for r in np.roots(coeffs))


def numcheck_problems(doc: dict, check: dict) -> list[str]:
    """The contour value must match the oracle to NUMCHECK_RTOL times the
    largest |f| on the contour (e^R for exp and sin, R^m for pow:m), the
    scale of the floating-point cancellation in the quadrature mean."""
    sigma = [float(s) for s in check["sigma"].split(",")]
    f = check["f"]
    radius = float(doc["radius"])
    scale = max(1.0, radius ** int(f[4:]) if f.startswith("pow:") else cmath.exp(radius).real)
    value = complex(*doc["trace"]["value"])
    want = numcheck_oracle(sigma, f)
    err = abs(value - want)
    if not err <= NUMCHECK_RTOL * scale:
        return [f"numcheck {f}: |value - oracle| = {err:.3e} above {NUMCHECK_RTOL * scale:.3e}"]
    return []
