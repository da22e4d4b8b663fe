"""Machine-readable verification reports.

Every suite runs exact identities and records one entry per check.  A
"deviation" marks an exact computation that contradicts a published
display; deviations never silently alter the computed result and only
fail a run under strict mode.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Callable

from . import __version__
from .annihilators import (
    FAMILIES,
    Witness,
    a_pairs,
    check_images,
    family_members,
    generator_system,
    op_A,
    op_T,
    op_T0,
    op_U0,
    op_nabla,
)
from .charvar import (
    char_poly_value,
    minor_matches_symbol,
    minors,
    recombine,
    rewrite_eta_product,
    sample_z_points,
    theta_contraction_check,
)
from .poly import Poly
from .serialize import poly_from_dict, weyl_from_dict
from .spaces import sigma_eta_space, sigma_space
from .symfun import discriminant_at
from .symfun import family as newton_family
from .transport import elementary_symmetric_op, xi_transport
from .weyl import WeylOp

PASS = "pass"
FAIL = "fail"
DEVIATION = "deviation"
WITNESS_CHARS = 120


@dataclass
class CheckEntry:
    id: str
    status: str
    detail: str = ""
    witness: Witness | None = None

    def to_dict(self) -> dict:
        """The entry, with the witness (op id, m, term count, truncated image)
        only when the check failed."""
        out = {"id": self.id, "status": self.status, "detail": self.detail}
        w = self.witness
        if self.status == FAIL and w is not None:
            text = str(w.image)
            if len(text) > WITNESS_CHARS:
                text = text[:WITNESS_CHARS] + "..."
            out["witness"] = {"op": w.op, "m": w.m, "terms": len(w.image.terms), "image": text}
        return out


@dataclass
class RunReport:
    k: int
    suite: str
    entries: list[CheckEntry] = field(default_factory=list)
    version: str = __version__

    def add(self, id: str, ok: bool, detail: str = "", witness: Witness | None = None):
        self.entries.append(CheckEntry(id, PASS if ok else FAIL, detail, witness))

    def deviation(self, id: str, detail: str):
        self.entries.append(CheckEntry(id, DEVIATION, detail))

    @property
    def counts(self) -> dict[str, int]:
        out = {PASS: 0, FAIL: 0, DEVIATION: 0}
        for e in self.entries:
            out[e.status] += 1
        return out

    def exit_status(self, strict_paper: bool = False) -> int:
        c = self.counts
        if c[FAIL] or (strict_paper and c[DEVIATION]):
            return 2
        return 0

    def to_dict(self, strict_paper: bool = False) -> dict:
        return {
            "schema": "symtrace-report/1",
            "version": self.version,
            "k": self.k,
            "suite": self.suite,
            "checks": [e.to_dict() for e in self.entries],
            "counts": self.counts,
            "exit_status": self.exit_status(strict_paper),
        }

    def to_text(self) -> str:
        lines = [f"suite {self.suite} (k={self.k})"]
        for e in self.entries:
            lines.append(f"  {e.status.upper():9s} {e.id}" + (f"  {e.detail}" if e.detail else ""))
            w = e.to_dict().get("witness")
            if w:
                lines.append(f"            witness: {w['op']} at m = {w['m']}, "
                             f"{w['terms']} terms: {w['image']}")
        c = self.counts
        lines.append(f"  {c[PASS]} pass, {c[FAIL]} fail, {c[DEVIATION]} deviation")
        return "\n".join(lines)


# the suites that check a family against its system, by suite name
SUITE_FAMILIES = {fam.suite: name for name, fam in FAMILIES.items()}


def default_max_m(k: int) -> int:
    """The last family index a family check draws by default."""
    return 2 * k + 6


def _annihilates(rep: RunReport, ops: dict[str, WeylOp], family: str, max_m: int,
                 label: Callable[[str], str], expected=None) -> None:
    """Apply ops to the family's members up to max_m (see `check_images`)
    and add one entry per op, with its detail label(id)."""
    fails = check_images(ops, family_members(rep.k, family, max_m), expected)
    for gid in ops:
        rep.add(f"annihilates:{gid}:{family}", gid not in fails, label(gid), fails.get(gid))


def suite_system(k: int, max_m: int | None = None) -> RunReport:
    """Exact annihilation of the power-sum family by the system and its
    integral-formula companions."""
    max_m = default_max_m(k) if max_m is None else max_m
    rep = RunReport(k, "system")
    ops = generator_system(k, "newton") | {f"T0({mu})": op_T0(k, mu) for mu in range(k - 1)}
    _annihilates(rep, ops, "newton", max_m, lambda _: f"N_m = 0 exactly for m <= {max_m}")
    return rep


def suite_relations(k: int) -> RunReport:
    """Exact operator identities among the generators."""
    if k < 2:
        raise ValueError("the system needs k >= 2")
    rep = RunReport(k, "relations")
    S = sigma_space(k)

    ok = True
    for m in range(2, k + 1):
        T = op_T(k, m)
        for h in range(1, k + 1):
            dh = WeylOp.partial(S, h)
            if dh.commutator(T) != WeylOp.partial(S, m) * dh:
                ok = False
    rep.add("bracket:partial-with-T", ok, "[d_h, T(m)] = d_m d_h for all h, m")

    ok = True
    for p in range(1, k + 1):
        for q in range(1, k + 1):
            for i in range(0, k):
                if all(1 <= v <= k for v in (p, q, p + i, q - i, p + i + 1, q - i - 1)):
                    if op_A(k, p, q, i + 1) != op_A(k, p, q, i) + op_A(k, p + i, q - i, 1):
                        ok = False
    rep.add("ladder:A-step", ok, "A(p,q,i+1) = A(p,q,i) + A(p+i,q-i,1) wherever legal")

    ok = True
    for m in range(2, k + 1):
        corrections = (op_A(k, h, m, 1).left_mul_poly(Poly.variable(S, "sigma", h)) for h in range(1, k))
        if op_T(k, m) != WeylOp.sum(S, [op_T0(k, k - m), *corrections]):
            ok = False
    rep.add("identity:T-from-T0", ok, "T(m) = T0(k-m) + sum_h s_h A(h,m,1), exactly")
    rep.deviation(
        "identity:T-from-T0:display-sign",
        "published display subtracts the A-correction; exact expansion forces addition",
    )

    nabla = op_nabla(k)
    ok = True
    for h in range(2, k + 1):
        raised = [op_T(k, h + 1).scale(-(k - h))] if h < k else []
        if nabla.commutator(op_T(k, h)) != WeylOp.sum(S, [op_A(k, 1, h, 1).scale(k - 1), *raised]):
            ok = False
    rep.add(
        "bracket:nabla-with-T", ok,
        "[nabla, T(h)] = -(k-h) T(h+1) + (k-1) A(1,h,1), the exact correction term",
    )

    ok = True
    for p, q in a_pairs(k):
        # the raised A(a,b,1) that exist: a + 1 <= k and b <= k
        rhs = WeylOp.sum(S, (op_A(k, a, b, 1).scale(-c) for a, b, c in
                             ((p + 1, q, k - p - 1), (p, q + 1, k - q)) if a < k and b <= k))
        if nabla.commutator(op_A(k, p, q, 1)) != rhs:
            ok = False
    rep.add(
        "bracket:nabla-with-A", ok,
        "[nabla, A(p,q,1)] = -(k-p-1) A(p+1,q,1) - (k-q) A(p,q+1,1), exactly as displayed",
    )

    fam = newton_family(k)
    fails = check_images({"nabla": nabla}, ((m, fam.newton(m)) for m in range(1, 11)),
                         lambda _, m: fam.newton(m - 1).scale(m))
    rep.add("action:nabla-lowers-newton", not fails, "nabla[N_m] = m N_{m-1} for m <= 10",
            fails.get("nabla"))
    return rep


def suite_weights(k: int) -> RunReport:
    """Commutators with the weight operator and pure-weight bookkeeping."""
    rep = RunReport(k, "weights")
    U0 = op_U0(k)

    ok = True
    for m in range(2, k + 1):
        T = op_T(k, m)
        if T.commutator(U0) != T.scale(m) or T.weight().value != -m:
            ok = False
    rep.add("weight:T", ok, "[T(m), U0] = m T(m); pure weight -m")

    ok = True
    for p, q in a_pairs(k):
        A = op_A(k, p, q, 1)
        if A.commutator(U0) != A.scale(p + q) or A.weight().value != -(p + q):
            ok = False
    rep.add("weight:A", ok, "[A(p,q,1), U0] = (p+q) A(p,q,1); pure weight -(p+q)")
    rep.deviation(
        "weight:A:display-sign",
        "published commutation display shows (U0 - (p+q)).A; computation forces "
        "(U0 + (p+q)).A, matching the stated pure weight -(p+q)",
    )

    nabla = op_nabla(k)
    rep.add(
        "weight:nabla",
        nabla.commutator(U0) == nabla and nabla.weight().value == -1,
        "[nabla, U0] = nabla; pure weight -1",
    )

    ok = True
    for G in generator_system(k, "newton").values():
        w = -G.weight().value
        if G * U0 - (U0 + WeylOp.from_poly(Poly.constant(sigma_space(k), w))) * G != WeylOp.zero(sigma_space(k)):
            ok = False
    rep.add("weight:ideal-stability", ok, "G.U0 = (U0 + w_G).G for every generator")

    fam = newton_family(k)
    fails = check_images({"U0": U0}, family_members(k, "newton", default_max_m(k)),
                         lambda _, m: fam.newton(m).scale(m))
    ok = not fails and all(fam.newton(m).weight().value == m for m in range(default_max_m(k) + 1))
    rep.add("weight:newton-eigen", ok, "U0[N_m] = m N_m and N_m has pure weight m", fails.get("U0"))

    ok = all(m.weight().value == -(i + j - 1) for (i, j), m in minors(k).items())
    rep.add("weight:minors", ok, "minor (i,j) has pure weight -(i+j-1) with eta_h of weight -h")
    return rep


def suite_forms(k: int, max_m: int | None = None) -> RunReport:
    """The shifted system annihilates the derived family."""
    max_m = default_max_m(k) if max_m is None else max_m
    rep = RunReport(k, "forms")
    family = SUITE_FAMILIES["forms"]
    _annihilates(rep, generator_system(k, family), family, max_m,
                 lambda _: f"DN_m = 0 exactly for m <= {max_m}")
    return rep


def primitive_gradient_holds(pn: Poly, m: int) -> bool:
    """The exact gradient of PN_m over sigma_space(k): d_p PN_m is
    (-1)^(p-1) N_{m-p}/(m-p) for m > p, (-1)^p at m = p, 0 below."""
    k = pn.space.nvars
    fam = newton_family(k)
    for p in range(1, k + 1):
        if m > p:
            expected = fam.newton(m - p).scale(Fraction((-1) ** (p - 1), m - p))
        elif m == p:
            expected = Poly.constant(sigma_space(k), (-1) ** p)
        else:
            expected = Poly.zero(sigma_space(k))
        if pn.partial("sigma", p) != expected:
            return False
    return True


def suite_primitive(k: int, max_m: int | None = None) -> RunReport:
    """The lowered system on the primitive family: exact images, including
    the diagonal constant the published claim misses."""
    max_m = default_max_m(k) if max_m is None else max_m
    rep = RunReport(k, "primitive")
    family = SUITE_FAMILIES["primitive"]
    gens = generator_system(k, family)
    diagonals = {FAMILIES[family].t_id.format(m=m): m for m in range(2, k + 1)}

    def diagonal_image(gid: str, m: int) -> Poly | None:
        return Poly.constant(sigma_space(k), (-1) ** m) if diagonals.get(gid) == m else None

    def label(gid: str) -> str:
        m = diagonals.get(gid)
        return "PN_m = 0 exactly off the diagonal" + (f"; image at m = {m} is the constant (-1)^{m}" if m else "")

    _annihilates(rep, gens, family, max_m, label, diagonal_image)
    rep.deviation(
        "annihilates:pnewton:diagonal",
        "published claim: the lowered system kills every PN_m; exact computation "
        "gives (T(m) - d_m)[PN_m] = (-1)^m, zero only off the diagonal",
    )

    fails = check_images(gens, ((p, Poly.variable(sigma_space(k), "sigma", p)) for p in range(1, k + 1)))
    rep.add("annihilates:system:sigma", not fails, "every s_p is an exact solution",
            next(iter(fails.values()), None))

    ok = all(primitive_gradient_holds(newton_family(k).primitive(m), m) for m in range(1, max_m + 1))
    rep.add(
        "gradient:pnewton", ok,
        "d_p PN_m = (-1)^(p-1) N_{m-p}/(m-p) for m > p, (-1)^p at m = p, 0 below",
    )
    rep.deviation(
        "gradient:pnewton:display-sign",
        "published gradient display uses (-1)^(m-p); differentiation of the defining "
        "sums forces (-1)^(p-1) for m > p and (-1)^p at m = p",
    )
    return rep


def suite_symbols(k: int, samples: int = 50, seed: int = 2024) -> RunReport:
    """Symbol identities, rewriting round-trips, and variety samples."""
    rep = RunReport(k, "symbols")
    se = sigma_eta_space(k)

    try:
        matches = minor_matches_symbol(k)
        rep.add("symbols:minors-vs-generators", True,
                "every minor is the symbol of T(j) or -A(i-1,j,1): " +
                ", ".join(f"m{mid}={'+' if s > 0 else '-'}{gid}" for mid, gid, s in matches))
    except AssertionError:
        rep.add("symbols:minors-vs-generators", False, "minor/symbol identification failed")

    ok = True
    for i in range(1, k + 1):
        for j in range(i, k + 1):
            u, v = rewrite_eta_product(k, i, j)
            lhs = Poly.variable(se, "eta", i) * Poly.variable(se, "eta", j)
            if lhs != recombine(k, u) + Poly.variable(se, "eta", k) * v:
                ok = False
    rep.add("rewrite:eta-products", ok, "eta_i eta_j reconstruct exactly for all pairs")

    pts = sample_z_points(k, seed, samples)
    ok = True
    degenerate = 0
    for pt in pts:
        l = sum(s * e for s, e in zip(pt.sigma, pt.eta))
        if l == 0:
            ok = False
        for h in range(1, k + 1):
            if pt.eta[h - 1] != pt.eta[0] * (-pt.eta[0] / l) ** (h - 1):
                ok = False
        if char_poly_value(pt.sigma, l / pt.eta[0]) != 0:
            ok = False
        if discriminant_at(pt.sigma) * pt.eta[0] == 0:
            degenerate += 1
    rep.add(
        "variety:sampled-points", ok,
        f"{samples} samples kill all minors and satisfy the root/ray identities; "
        f"{degenerate} degenerate draws",
    )

    ok = (
        theta_contraction_check(k, [Fraction(i + 1) for i in range(k)], Fraction(2), Fraction(3))
        and theta_contraction_check(k, [Fraction(1)] * k, Fraction(-1, 3), Fraction(3))
    )
    rep.add("contraction:theta-ray", ok, "closed form of the contracted cotangent sum holds exactly")
    rep.deviation(
        "contraction:theta-ray:display",
        "published closed form shows a plus sign and exponent -k; computation "
        "validates the minus sign and exponent -k+1",
    )
    return rep


SUITES = {
    "system": suite_system,
    "relations": suite_relations,
    "weights": suite_weights,
    "forms": suite_forms,
    "primitive": suite_primitive,
    "symbols": suite_symbols,
}


def run_suite(name: str, k: int, max_m: int | None = None) -> RunReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    fn = SUITES[name]
    if max_m is None:
        return fn(k)
    if name not in SUITE_FAMILIES:
        raise ValueError(f"max-m applies only to the system, forms and primitive suites, not {name!r}")
    return fn(k, max_m)


# -- golden comparisons ------------------------------------------------------


def golden_dir() -> Path:
    return Path(resources.files("symtrace") / "golden")


def _diff_weyl(computed: WeylOp, stored: WeylOp) -> str:
    ours, theirs, zero = computed.terms, stored.terms, Poly.zero(computed.space)
    lines = []
    for dexp in sorted(ours.keys() | theirs.keys()):
        a, b = ours.get(dexp, zero), theirs.get(dexp, zero)
        if a != b:
            lines.append(f"d^{list(dexp)}: computed {a}, stored {b}")
    return "computed operator differs: " + "; ".join(lines)


# kind -> (parse the stored value, describe a mismatch as (computed, stored))
GOLDEN_KINDS = {
    "weylop": (lambda doc: weyl_from_dict(doc["value"]), _diff_weyl),
    "poly": (lambda doc: poly_from_dict(doc["value"]), lambda c, s: f"computed {c} vs stored {s}"),
    "poly-table": (
        lambda doc: {key: poly_from_dict(v) for key, v in doc["entries"].items()},
        lambda c, s: "table mismatch",
    ),
}


def golden_check(path: str | Path | None = None) -> RunReport:
    """Re-derive every stored published formula and compare structurally.

    Mismatches against a display whose computed replacement still passes
    its own validity checks are deviations, not failures.
    """
    base = Path(path) if path is not None else golden_dir()
    if not base.is_dir():
        raise FileNotFoundError(f"no such directory: {base}")
    rep = RunReport(0, "golden")

    def compare(name: str, compute, validate=None):
        file = base / f"{name}.json"
        gid = f"golden:{name}"
        if not file.exists():
            rep.add(gid, False, f"missing golden file {file.name}")
            return
        try:
            doc = json.loads(file.read_text(encoding="utf-8"))
            kind = doc["kind"]
            if kind not in GOLDEN_KINDS:
                rep.add(gid, False, f"unknown kind {kind!r}")
                return
            parse, describe = GOLDEN_KINDS[kind]
            stored = parse(doc)
            computed = compute()
            if computed == stored:
                rep.add(gid, True, doc.get("label", ""))
            elif validate is not None and validate(computed):
                rep.deviation(gid, describe(computed, stored))
            else:
                rep.add(gid, False, describe(computed, stored))
        except Exception as exc:  # corrupted file: report, do not crash
            rep.add(gid, False, f"unreadable golden file {file.name}: {exc}")

    for name, k, h in (("sigma2_k2", 2, 2), ("sigma2_k3", 3, 2), ("sigma3_k3", 3, 3)):
        compare(name, lambda k=k, h=h: xi_transport(elementary_symmetric_op(k, h)),
                lambda op, k=k: not check_images({"op": op}, family_members(k, "newton", default_max_m(k))))
    compare("n6_k3", lambda: newton_family(3).newton(6))
    for m in range(1, 5):
        compare(f"pn{m}_k4", lambda m=m: newton_family(4).primitive(m),
                lambda p, m=m: primitive_gradient_holds(p, m))
    compare("minors_k2", lambda: {f"m({i},{j})": p for (i, j), p in minors(2).items()})
    compare("minors_k3", lambda: {f"m({i},{j})": p for (i, j), p in minors(3).items()})
    return rep
