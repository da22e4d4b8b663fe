"""The benchmark's workloads: lists of symtrace CLI commands swept over k.

A workload is a function of the seed that returns one pass: the ordered
list of operations the closed loop runs, each one CLI invocation in a
fresh interpreter.  Inputs that depend on the seed (numcheck sigmas,
decompose polynomials with planted off-variety perturbations) are written
into the run's work directory; `member` ops read the pass's own `xi`
outputs.  `smoke=True` keeps only the smallest k of every sweep.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracles

SAMPLE_SEED = 7      # charvar --sample seed: fixed, so its output is hashed
SAMPLE_COUNT = 20
GEN_K = 5
GEN_MAX_M = 30


@dataclass
class Op:
    """One CLI invocation and what its output must satisfy."""

    id: str                      # stable name; keys the reference hash table
    argv: list[str]
    expect_rc: int = 0
    hashed: bool = True          # stdout must match the recorded SHA-256
    check: dict = field(default_factory=dict)   # semantic check, see oracles.check_semantics

    @property
    def subcommand(self) -> str:
        return self.argv[0]

    @property
    def out(self) -> str:
        """Name of the stdout file inside the work directory."""
        return "".join(ch if ch.isalnum() else "_" for ch in self.id) + ".json"


def _ks(lo: int, hi: int, smoke: bool) -> range:
    return range(lo, lo + 1) if smoke else range(lo, hi + 1)


def verify_sweep(seed: int, work: Path, smoke: bool = False) -> list[Op]:
    """Apply-heavy: the suites that differentiate N_m / DN_m / PN_m."""
    ops = []
    for k in _ks(3, 7, smoke):
        for suite in ("system", "forms", "primitive"):
            ops.append(Op(f"verify {suite} k={k}",
                           ["verify", "--k", str(k), "--suite", suite],
                           check={"kind": "report"}))
    for k in (3,) if smoke else (3, 8):
        for suite in ("relations", "weights"):
            ops.append(Op(f"verify {suite} k={k}",
                           ["verify", "--k", str(k), "--suite", suite],
                           check={"kind": "report"}))
    gen_k, gen_m = (3, 8) if smoke else (GEN_K, GEN_MAX_M)
    for family in ("newton", "dnewton", "pnewton"):
        ops.append(Op(f"gen {family} k={gen_k} max-m={gen_m}",
                       ["gen", "--family", family, "--k", str(gen_k), "--max-m", str(gen_m)],
                       check={"kind": "family"}))
    return ops


def transport_member(seed: int, work: Path, smoke: bool = False) -> list[Op]:
    """Product- and composition-heavy: xi of S_h, then membership of the result."""
    ops = []
    for k in _ks(3, 5, smoke):
        for h in range(2, k + 1):
            xi = Op(f"xi S{h} k={k}", ["xi", "--k", str(k), "--op", f"S{h}"],
                     check={"kind": "weylop"})
            member = Op(f"member xi(S{h}) k={k}",
                         ["member", "--k", str(k), "--op", str(work / xi.out)],
                         check={"kind": "member"})
            ops += [xi, member]
    return ops


def variety_numeric(seed: int, work: Path, smoke: bool = False) -> list[Op]:
    """Discriminant, charvar sampling and decomposition, numerics, golden."""
    rng = random.Random(seed)
    ops = []
    for k in _ks(3, 7, smoke):
        ops.append(Op(f"verify symbols k={k}",
                       ["verify", "--k", str(k), "--suite", "symbols"],
                       check={"kind": "report"}))
    for k in _ks(3, 8, smoke):
        ops.append(Op(f"charvar sample k={k}",
                       ["charvar", "--k", str(k), "--sample", str(SAMPLE_COUNT),
                        "--seed", str(SAMPLE_SEED)],
                       check={"kind": "zpoints", "k": k}))
    for k in _ks(4, 6, smoke):
        for planted in (False, True):
            f = decompose_input(rng, k, off_variety=planted)
            name = f"decompose{'-off' if planted else ''}-k{k}.json"
            (work / name).write_text(json.dumps(oracles.poly_to_doc(f, k)), encoding="utf-8")
            ops.append(Op(f"charvar decompose{' off-variety' if planted else ''} k={k}",
                           ["charvar", "--k", str(k), "--decompose", str(work / name)],
                           expect_rc=2 if planted else 0, hashed=False,
                           check={"kind": "decompose", "k": k, "input": name,
                                  "member": not planted}))
    functions = ("exp", "sin", "pow")
    for i, k in enumerate(_ks(2, 12, smoke)):
        sigma = numcheck_sigma(rng, k)
        f = functions[i % 3]
        if f == "pow":
            f = f"pow:{rng.randint(2, 2 * k + 2)}"
        text = ",".join(repr(float(s)) for s in sigma)
        ops.append(Op(f"numcheck {f} k={k}",
                       ["numcheck", "--k", str(k), f"--sigma={text}", "--f", f],
                       hashed=False, check={"kind": "numcheck", "sigma": text, "f": f}))
    ops.append(Op("golden", ["golden"], check={"kind": "report"}))
    return ops


WORKLOADS = {
    "verify-sweep": verify_sweep,
    "transport-member": transport_member,
    "variety-numeric": variety_numeric,
}


# -- seeded inputs --------------------------------------------------------------


def numcheck_sigma(rng: random.Random, k: int) -> list[Fraction]:
    """Elementary symmetric values of k distinct roots drawn from
    {-1/2, -7/16, .., 1/2}.  Every s_h is a dyadic rational with a small
    numerator, so its float is exact and the contour radius stays small."""
    roots = rng.sample([Fraction(i, 16) for i in range(-8, 9)], k)
    e = [Fraction(1)] + [Fraction(0)] * k
    for x in roots:
        for h in range(k, 0, -1):
            e[h] += x * e[h - 1]
    return e[1:]


def decompose_input(rng: random.Random, k: int, off_variety: bool) -> dict:
    """An eta-homogeneous combination of the minors with small random
    coefficients over Q[sigma] (times one eta for a degree-3 input); the
    planted variant adds a single monomial of the same eta-degree, whose
    pull-back to the variety's chart is a nonzero monomial, so the sum
    cannot vanish on the variety."""
    minors = oracles.minors(k)
    eta_degree = rng.choice((2, 3))
    while True:
        f: dict = {}
        for mid in rng.sample(sorted(minors), rng.randint(2, 3)):
            coeff = {oracles.unit(2 * k): Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))}
            h = rng.randint(1, k)
            coeff = oracles.add(coeff, {oracles.unit(2 * k, h - 1): Fraction(rng.randint(-2, 2))})
            if eta_degree == 3:
                coeff = oracles.mul(coeff, {oracles.unit(2 * k, k + rng.randint(0, k - 1)): Fraction(1)})
            f = oracles.add(f, oracles.mul(coeff, minors[mid]))
        if f:
            break
    if off_variety:
        exp = [0] * (2 * k)
        for _ in range(eta_degree):
            exp[k + rng.randint(0, k - 1)] += 1
        exp[rng.randint(0, k - 1)] += rng.randint(0, 1)
        f = oracles.add(f, {tuple(exp): Fraction(rng.choice((-1, 1)), rng.randint(1, 3))})
    return f

