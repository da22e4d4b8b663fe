"""Machine-readable verification reports.

Every suite runs exact identities and records one entry per check.  An
identity over many cases goes through `RunReport.identity`, a family
check through `check_images`; either way a failed entry carries the
witness where it first fails.  A "deviation" marks an exact computation
that contradicts a published display; deviations never silently alter
the computed result and only fail a run under strict mode.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable

from . import __version__
from .annihilators import (
    A_ID,
    FAMILIES,
    Witness,
    a_pairs,
    check_images,
    default_max_m,
    family_members,
    generator_system,
    op_A,
    op_T,
    op_T0,
    op_U0,
    op_nabla,
)
from .charvar import (
    minor_generator,
    minors,
    recombine,
    rewrite_eta_product,
    sample_z_points,
    theta_contraction_sides,
)
from .poly import Poly
from .serialize import poly_from_dict, weyl_from_dict
from .spaces import sigma_eta_space, sigma_space
from .symfun import char_poly, discriminant_at, horner
from .symfun import family as newton_family
from .transport import elementary_symmetric_op, xi_transport
from .weyl import WeylOp

PASS = "pass"
FAIL = "fail"
DEVIATION = "deviation"
WITNESS_CHARS = 120
SYMBOL_SAMPLES, SYMBOL_SEED = 50, 2024  # the variety points the symbols suite draws

# (case label, lhs, rhs): one case of an identity
Case = tuple[str, object, object]


@dataclass
class CheckEntry:
    id: str
    status: str
    detail: str = ""
    witness: Witness | None = None

    def to_dict(self) -> dict:
        """The entry, with the witness only when the check failed: the op id
        and m of a family check or the case of an identity check, then the
        term count and the truncated image."""
        out = {"id": self.id, "status": self.status, "detail": self.detail}
        w = self.witness
        if self.status == FAIL and w is not None:
            text = str(w.image)
            if len(text) > WITNESS_CHARS:
                text = text[:WITNESS_CHARS] + "..."
            where = {"case": w.op} if w.m is None else {"op": w.op, "m": w.m}
            out["witness"] = {**where, "terms": len(getattr(w.image, "terms", [w.image])), "image": text}
        return out


def first_mismatch(cases: Iterable[Case]) -> Witness | None:
    """The witness of the first case whose sides differ: its label and the
    residual lhs - rhs.  No case is drawn after it."""
    for case, lhs, rhs in cases:
        if lhs != rhs:
            # a non-pure weight is None, which has no difference
            return Witness(case, None, "non-pure" if lhs is None else lhs - rhs)
    return None


@dataclass
class RunReport:
    k: int
    suite: str
    entries: list[CheckEntry] = field(default_factory=list)
    version: str = __version__

    def add(self, id: str, ok: bool, detail: str = "", witness: Witness | None = None):
        self.entries.append(CheckEntry(id, PASS if ok else FAIL, detail, witness))

    def identity(self, id: str, detail: str, cases: Iterable[Case]):
        """One entry for an identity over lazily drawn cases: it passes when
        every lhs equals its rhs, and fails with the `first_mismatch`."""
        w = first_mismatch(cases)
        self.add(id, w is None, detail, w)

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
                where = w["case"] if "case" in w else f"{w['op']} at m = {w['m']}"
                lines.append(f"            witness: {where}, {w['terms']} terms: {w['image']}")
        c = self.counts
        lines.append(f"  {c[PASS]} pass, {c[FAIL]} fail, {c[DEVIATION]} deviation")
        return "\n".join(lines)


# the suites that check a family against its system, by suite name
SUITE_FAMILIES = {fam.suite: name for name, fam in FAMILIES.items()}


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
    d = {h: WeylOp.partial(S, h) for h in range(1, k + 1)}
    T = {m: op_T(k, m) for m in range(2, k + 1)}
    rep.identity("bracket:partial-with-T", "[d_h, T(m)] = d_m d_h for all h, m", (
        (f"h = {h}, m = {m}", d[h].commutator(T[m]), d[m] * d[h]) for m in T for h in d))
    rep.identity("ladder:A-step", "A(p,q,i+1) = A(p,q,i) + A(p+i,q-i,1) wherever legal", (
        (f"p = {p}, q = {q}, i = {i}", op_A(k, p, q, i + 1), op_A(k, p, q, i) + op_A(k, p + i, q - i, 1))
        for p in range(1, k + 1) for q in range(1, k + 1) for i in range(k)
        if all(1 <= v <= k for v in (p, q, p + i, q - i, p + i + 1, q - i - 1))))
    rep.identity("identity:T-from-T0", "T(m) = T0(k-m) + sum_h s_h A(h,m,1), exactly", (
        (f"m = {m}", T[m], WeylOp.sum(S, [op_T0(k, k - m), *(
            op_A(k, h, m, 1).left_mul_poly(Poly.variable(S, "sigma", h)) for h in range(1, k))]))
        for m in T))
    rep.deviation(
        "identity:T-from-T0:display-sign",
        "published display subtracts the A-correction; exact expansion forces addition",
    )

    nabla = op_nabla(k)
    rep.identity(
        "bracket:nabla-with-T",
        "[nabla, T(h)] = -(k-h) T(h+1) + (k-1) A(1,h,1), the exact correction term",
        ((f"h = {h}", nabla.commutator(T[h]), WeylOp.sum(S, [op_A(k, 1, h, 1).scale(k - 1), *(
            [T[h + 1].scale(-(k - h))] if h < k else [])])) for h in T),
    )
    rep.identity(
        "bracket:nabla-with-A",
        "[nabla, A(p,q,1)] = -(k-p-1) A(p+1,q,1) - (k-q) A(p,q+1,1), exactly as displayed",
        # the raised A(a,b,1) that exist: a + 1 <= k and b <= k
        ((f"p = {p}, q = {q}", nabla.commutator(op_A(k, p, q, 1)), WeylOp.sum(S, (
            op_A(k, a, b, 1).scale(-c) for a, b, c in ((p + 1, q, k - p - 1), (p, q + 1, k - q))
            if a < k and b <= k))) for p, q in a_pairs(k)),
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
    S = sigma_space(k)
    U0 = op_U0(k)

    def weighs(label: str, G: WeylOp, w: int) -> Iterable[Case]:
        yield f"[{label}, U0]", G.commutator(U0), G.scale(w)
        yield f"weight of {label}", G.weight(), -w

    rep.identity("weight:T", "[T(m), U0] = m T(m); pure weight -m",
                 (c for m in range(2, k + 1) for c in weighs(FAMILIES["newton"].t_id.format(m=m), op_T(k, m), m)))
    rep.identity("weight:A", "[A(p,q,1), U0] = (p+q) A(p,q,1); pure weight -(p+q)",
                 (c for p, q in a_pairs(k) for c in weighs(A_ID.format(p=p, q=q), op_A(k, p, q, 1), p + q)))
    rep.deviation(
        "weight:A:display-sign",
        "published commutation display shows (U0 - (p+q)).A; computation forces "
        "(U0 + (p+q)).A, matching the stated pure weight -(p+q)",
    )
    rep.identity("weight:nabla", "[nabla, U0] = nabla; pure weight -1", weighs("nabla", op_nabla(k), 1))
    # a non-pure G (weight None) is held to w = 0, which it fails
    rep.identity("weight:ideal-stability", "G.U0 = (U0 + w_G).G for every generator", (
        (gid, G * U0, (U0 + WeylOp.from_poly(Poly.constant(S, -(G.weight() or 0)))) * G)
        for gid, G in generator_system(k, "newton").items()))

    fam, max_m = newton_family(k), default_max_m(k)
    w = (check_images({"U0": U0}, family_members(k, "newton", max_m),
                      lambda _, m: fam.newton(m).scale(m)).get("U0")
         or first_mismatch((f"weight of N_{m}", fam.newton(m).weight(), m) for m in range(max_m + 1)))
    rep.add("weight:newton-eigen", w is None, "U0[N_m] = m N_m and N_m has pure weight m", w)
    rep.identity("weight:minors", "minor (i,j) has pure weight -(i+j-1) with eta_h of weight -h",
                 ((f"m{mid}", m.weight(), 1 - sum(mid)) for mid, m in minors(k).items()))
    return rep


def suite_forms(k: int, max_m: int | None = None) -> RunReport:
    """The shifted system annihilates the derived family."""
    max_m = default_max_m(k) if max_m is None else max_m
    rep = RunReport(k, "forms")
    family = SUITE_FAMILIES["forms"]
    _annihilates(rep, generator_system(k, family), family, max_m,
                 lambda _: f"DN_m = 0 exactly for m <= {max_m}")
    return rep


def primitive_gradient(pn: Poly, m: int) -> Iterable[Case]:
    """The cases of the exact gradient of PN_m over sigma_space(k): d_p PN_m
    is (-1)^(p-1) N_{m-p}/(m-p) for m > p, (-1)^p at m = p, 0 below."""
    k = pn.space.nvars
    fam = newton_family(k)
    for p in range(1, k + 1):
        if m > p:
            expected = fam.newton(m - p).scale(Fraction((-1) ** (p - 1), m - p))
        elif m == p:
            expected = Poly.constant(sigma_space(k), (-1) ** p)
        else:
            expected = Poly.zero(sigma_space(k))
        yield f"m = {m}, p = {p}", pn.partial("sigma", p), expected


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

    rep.identity(
        "gradient:pnewton",
        "d_p PN_m = (-1)^(p-1) N_{m-p}/(m-p) for m > p, (-1)^p at m = p, 0 below",
        (c for m in range(1, max_m + 1) for c in primitive_gradient(newton_family(k).primitive(m), m)),
    )
    rep.deviation(
        "gradient:pnewton:display-sign",
        "published gradient display uses (-1)^(m-p); differentiation of the defining "
        "sums forces (-1)^(p-1) for m > p and (-1)^p at m = p",
    )
    return rep


def _ray_and_root(n: int, pt) -> Iterable[Case]:
    """The identities of sampled point n, with l = sum_h s_h eta_h: the ray
    eta_h l^(h-1) = eta_1 (-eta_1)^(h-1), which for h = 2 needs l != 0,
    then the root P(l / eta_1) = 0."""
    l = sum(s * e for s, e in zip(pt.sigma, pt.eta))
    for h in range(2, len(pt.eta) + 1):
        yield f"point {n}, h = {h}", pt.eta[h - 1] * l ** (h - 1), pt.eta[0] * (-pt.eta[0]) ** (h - 1)
    yield f"point {n}", horner(char_poly(pt.sigma), l / pt.eta[0]), 0


def suite_symbols(k: int) -> RunReport:
    """Symbol identities, rewriting round-trips, and variety samples."""
    rep = RunReport(k, "symbols")
    se = sigma_eta_space(k)

    ms, gens = minors(k), generator_system(k, "newton")
    ids = {mid: minor_generator(mid) for mid in ms}
    rep.identity(
        "symbols:minors-vs-generators",
        "every minor is the symbol of T(j) or -A(i-1,j,1): " +
        ", ".join(f"m{mid}={'+' if s > 0 else '-'}{gid}" for mid, (gid, s) in ids.items()),
        ((f"m{mid}", ms[mid], gens[gid].symbol().scale(s)) for mid, (gid, s) in ids.items()),
    )

    eta = {h: Poly.variable(se, "eta", h) for h in range(1, k + 1)}
    rep.identity("rewrite:eta-products", "eta_i eta_j reconstruct exactly for all pairs", (
        (f"i = {i}, j = {j}", eta[i] * eta[j], recombine(k, u) + eta[k] * v)
        for i in eta for j in range(i, k + 1) for u, v in (rewrite_eta_product(k, i, j),)))

    pts = sample_z_points(k, SYMBOL_SEED, SYMBOL_SAMPLES)
    degenerate = sum(discriminant_at(pt.sigma) * pt.eta[0] == 0 for pt in pts)
    rep.identity(
        "variety:sampled-points",
        f"{SYMBOL_SAMPLES} samples kill all minors and satisfy the root/ray identities; "
        f"{degenerate} degenerate draws",
        (c for n, pt in enumerate(pts, 1) for c in _ray_and_root(n, pt)),
    )

    rep.identity("contraction:theta-ray", "closed form of the contracted cotangent sum holds exactly", (
        (label, *theta_contraction_sides(k, sigma, a, Fraction(3))) for label, sigma, a in (
            ("sigma_h = h, a = 2, z = 3", [Fraction(i + 1) for i in range(k)], Fraction(2)),
            ("sigma_h = 1, a = -1/3, z = 3", [Fraction(1)] * k, Fraction(-1, 3)))))
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
    ours, theirs, zero = dict(computed.sorted_terms()), dict(stored.sorted_terms()), Poly.zero(computed.space)
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
                lambda p, m=m: first_mismatch(primitive_gradient(p, m)) is None)
    compare("minors_k2", lambda: {f"m({i},{j})": p for (i, j), p in minors(2).items()})
    compare("minors_k3", lambda: {f"m({i},{j})": p for (i, j), p in minors(3).items()})
    return rep
