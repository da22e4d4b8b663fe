"""The symtrace benchmark: cold CLI sweeps over k, one client in a closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the repository root is the parent of this directory and
the program is imported from its `src/`.  Each operation is one CLI command
in a fresh interpreter (`bench/child.py`), started only after the previous
one exited, so every per-process cache starts empty.  A pass runs the
workload's whole op list; passes repeat while the next one still fits in
S seconds (at least one), and timings are medians over passes.

With --trace 0 the passes are untraced and the result carries the
end-to-end metrics.  With --trace 1 untraced and traced passes alternate
(at least one of each) and the result carries the per-layer metrics,
including the tracing overhead (traced minus untraced pass wall time).

Every op passes a correctness gate (see oracles.py) or counts as failed.
Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  Linux only:
child processes are awaited through pidfds.

`bench/selftest.py` tests the gate and the tracer; `bench/record_reference.py`
re-records the reference output hashes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import oracles
import tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
REFERENCE = BENCH / "reference.json"

OP_CAP_S = 60.0       # an op running longer is killed and counts as failed
RUN_DEADLINE_S = 165.0  # no op may run past this point of a run
IMPORTTIME_REPEATS = 3

END_TO_END = {        # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "dispatch_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "poly.constructions": "count",
    "poly.self_s": "s",
    "poly.share": "ratio",
    "poly.mul.calls": "count",
    "poly.mul.self_s": "s",
    "poly.mul.merge_ratio": "ratio",
    "poly.add.calls": "count",
    "poly.add.self_s": "s",
    "poly.scale.calls": "count",
    "poly.scale.self_s": "s",
    "poly.partial_pos.calls": "count",
    "poly.partial_pos.self_s": "s",
    "poly.compose.calls": "count",
    "poly.compose.self_s": "s",
    "poly.evaluate.calls": "count",
    "poly.evaluate.self_s": "s",
    "weyl.apply.calls": "count",
    "weyl.apply.incl_s": "s",
    "weyl.apply.self_s": "s",
    "weyl.mul.calls": "count",
    "weyl.mul.incl_s": "s",
    "weyl.mul.self_s": "s",
    "symfun.family.calls": "count",
    "symfun.family.incl_s": "s",
    "symfun.reduce_to_sigma.calls": "count",
    "symfun.reduce_to_sigma.incl_s": "s",
    "symfun.discriminant.incl_s": "s",
    "annihilators.generator_system.incl_s": "s",
    "transport.xi_transport.incl_s": "s",
    "transport.coeff_yield": "ratio",
    "membership.reduce_modulo_system.incl_s": "s",
    "membership.verify_certificate.incl_s": "s",
    "membership.descent_steps": "count",
    "charvar.vanishes_on_Z.calls": "count",
    "charvar.vanishes_on_Z.incl_s": "s",
    "charvar.decompose_in_minors.calls": "count",
    "charvar.decompose_in_minors.incl_s": "s",
    "charvar.recombine.incl_s": "s",
    "charvar.sample_z_points.incl_s": "s",
    "charvar.rewrite_eta_product.calls": "count",
    "charvar.rejected_ratio": "ratio",
    "report.run_suite.incl_s": "s",
    "report.self_s": "s",
    "serialize.dumps.incl_s": "s",
    "serialize.weyl_to_dict.incl_s": "s",
    "serialize.weyl_from_dict.incl_s": "s",
    "serialize.poly_from_dict.incl_s": "s",
    "serialize.bytes_out": "bytes",
    "numerics.trace_contour.calls": "count",
    "numerics.trace_contour.incl_s": "s",
    "numerics.poly_roots.calls": "count",
    "cli.dispatch.self_s": "s",
    "setup.numpy_import_s": "s",
    "setup.symtrace_import_s": "s",
    "trace.overhead_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# -- one op, one pass ---------------------------------------------------------------


def run_op(op, work: Path, traced: bool, references: dict, cap_s: float) -> dict:
    """Spawn the child, wait for it (killing it at the cap), gate its output."""
    side = work / (op.out + ".side")
    side.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), str(side), "1" if traced else "0", *op.argv]
    with open(work / op.out, "wb") as out, open(work / (op.out + ".err"), "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited, _, _ = select.select([pidfd], [], [], cap_s)
            if not exited:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        ended = time.monotonic()
    proc.returncode = rc = os.waitstatus_to_exitcode(status)
    stdout = (work / op.out).read_bytes()
    record = {"id": op.id, "subcommand": op.subcommand, "wall_s": ended - spawned,
              "spawned": spawned, "ended": ended, "rc": rc,
              "maxrss_kb": usage.ru_maxrss, "setup_s": None, "dispatch_s": None}
    try:
        doc = json.loads(side.read_text(encoding="utf-8"))
        record["setup_s"] = doc["imported"] - spawned
        record["dispatch_s"] = doc["dispatch_s"]
        record["trace"] = doc.get("trace")
    except (OSError, ValueError, KeyError) as exc:
        doc = None
        record["side_error"] = repr(exc)
    problems = oracles.check_op(op, rc if exited else None, stdout, references, work)
    if doc is None:
        problems.append("no timing record from the child")
    record["problems"] = problems
    return record


def run_pass(ops, work: Path, traced: bool, references: dict, deadline: float) -> dict:
    records = []
    for op in ops:
        cap = min(OP_CAP_S, max(0.5, deadline - time.monotonic()))
        records.append(run_op(op, work, traced, references, cap))
    return {
        "traced": traced,
        "records": records,
        "wall_s": records[-1]["ended"] - records[0]["spawned"],
        "dispatch_s": sum(r["dispatch_s"] or 0.0 for r in records),
        "failed": sum(1 for r in records if r["problems"]),
    }


# -- set-up breakdown ----------------------------------------------------------------


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)")


def import_breakdown() -> dict:
    """`python -X importtime -c "import symtrace.cli"`: numpy's cumulative
    import time, and the rest of importing symtrace.cli."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import symtrace.cli"],
                          capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"importing symtrace.cli failed:\n{proc.stderr[-2000:]}")
    cumulative = {}
    for m in _IMPORTTIME.finditer(proc.stderr):
        name = m.group(4)
        if not m.group(3) or name == "numpy":   # top-level imports, and numpy's nested one
            cumulative[name] = int(m.group(2)) * 1e-6
    numpy_s = cumulative.get("numpy", 0.0)
    total = cumulative.get("symtrace", 0.0) + cumulative.get("symtrace.cli", 0.0)
    return {"setup.numpy_import_s": numpy_s, "setup.symtrace_import_s": total - numpy_s}


# -- metrics ---------------------------------------------------------------------------


def end_to_end(passes: list[dict]) -> dict:
    records = [r for p in passes for r in p["records"]]
    setups = [r["setup_s"] for r in records if r["setup_s"] is not None]
    return {
        "setup_s": statistics.median(setups) if setups else 0.0,   # 0 only when every op failed
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "dispatch_s": statistics.median(p["dispatch_s"] for p in passes),
        "peak_rss_mb": max(r["maxrss_kb"] for r in records) / 1024.0,
    }


def by_subcommand(passes: list[dict]) -> dict:
    """Median over passes of the dispatch time summed per subcommand."""
    names = sorted({r["subcommand"] for p in passes for r in p["records"]})
    return {f"{name}_s": statistics.median(
        sum(r["dispatch_s"] or 0.0 for r in p["records"] if r["subcommand"] == name)
        for p in passes) for name in names}


def pass_layers(p: dict) -> dict:
    """Per-layer values of one traced pass, summed over its ops."""
    stats: dict[str, list] = {}
    counters = dict.fromkeys(tracer.COUNTERS, 0)
    for r in p["records"]:
        tr = r.get("trace") or {"stats": {}, "counters": {}}
        for name, (calls, incl, self_s) in tr["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += incl
            acc[2] += self_s
        for key, n in tr["counters"].items():
            counters[key] += n
    out = {}
    for name, _, _ in tracer.TARGETS:
        calls, incl, self_s = stats.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.incl_s"] = incl
        out[f"{name}.self_s"] = self_s
    for layer in ("poly", "report"):
        out[f"{layer}.self_s"] = sum(v for k, v in out.items()
                                     if k.startswith(layer + ".") and k.endswith(".self_s"))
    out["poly.share"] = _ratio(out["poly.self_s"], out["cli.dispatch.incl_s"])
    out["poly.constructions"] = counters["poly.constructions"]
    out["poly.mul.merge_ratio"] = _ratio(counters["poly.mul.result_terms"],
                                         counters["poly.mul.term_products"])
    out["transport.coeff_yield"] = _ratio(counters["transport.nonzero_coeffs"],
                                          counters["transport.indices_solved"])
    out["membership.descent_steps"] = counters["membership.descent_steps"]
    out["charvar.rejected_ratio"] = _ratio(counters["charvar.rejected"],
                                           counters["charvar.decompose_attempts"])
    out["serialize.bytes_out"] = counters["serialize.bytes_out"]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(passes: list[dict], setup: dict) -> dict:
    traced = [pass_layers(p) for p in passes if p["traced"]]
    plain = [p["wall_s"] for p in passes if not p["traced"]]
    out = {name: statistics.median(t[name] for t in traced)
           for name in PER_LAYER if name in traced[0]}
    out.update(setup)
    out["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in passes if p["traced"])
                               - statistics.median(plain))
    return out


# -- the run ---------------------------------------------------------------------------


def run_context(seed: int) -> dict:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    return {"git_sha": sha, "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "loadavg_before": os.getloadavg(), "seed": seed,
            "op_cap_s": OP_CAP_S}


def plan_passes(ops, work: Path, seconds: float, trace: bool, references: dict) -> list[dict]:
    """Untraced passes (alternating with traced ones under --trace 1) while
    the next pass, predicted from the longest of its kind, ends within budget."""
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    passes: list[dict] = []
    longest = {}
    kinds = [False, True] if trace else [False]
    while True:
        traced = kinds[len(passes) % len(kinds)]
        passes.append(run_pass(ops, work, traced, references, deadline))
        longest[traced] = max(longest.get(traced, 0.0), passes[-1]["wall_s"])
        if len(passes) < len(kinds):
            continue
        nxt = kinds[len(passes) % len(kinds)]
        if time.monotonic() - start + longest[nxt] > seconds:
            return passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "symtrace" / "cli.py").is_file():
        print(f"error: no symtrace sources under {SRC}", file=sys.stderr)
        return 1
    references = json.loads(REFERENCE.read_text(encoding="utf-8"))["sha256"]
    context = run_context(args.seed)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setups = [import_breakdown() for _ in range(IMPORTTIME_REPEATS)]   # also warms bytecode
    setup = {key: statistics.median(s[key] for s in setups) for key in setups[0]}
    ops = WORKLOADS[args.workload](args.seed, work)
    passes = plan_passes(ops, work, args.seconds, bool(args.trace), references)
    context["loadavg_after"] = os.getloadavg()

    untraced = [p for p in passes if not p["traced"]]
    if args.trace:
        metrics, units = per_layer(passes, setup), PER_LAYER
    else:
        metrics, units = end_to_end(untraced), END_TO_END
    attempted = sum(len(p["records"]) for p in passes)
    failed = sum(p["failed"] for p in passes)

    print(f"workload {args.workload}: {len(ops)} ops per pass, "
          f"{len(untraced)} untraced + {len(passes) - len(untraced)} traced passes")
    print("context " + json.dumps(context))
    for name, value in by_subcommand(untraced).items():
        print(f"  {name:44s} {value:14.6f} s   (dispatch time of these ops, per pass)")
    if not args.trace:
        for name, value in setup.items():
            print(f"  {name:44s} {value:14.6f} s")
    for name, value in metrics.items():
        print(f"  {name:44s} {value:14.6f} {units[name]}")
    for p in passes:
        for r in p["records"]:
            if r["problems"]:
                print(f"FAILED {r['id']}: {'; '.join(r['problems'])}")
    (work / "result.json").write_text(json.dumps(
        {"context": context, "metrics": metrics, "passes": passes}), encoding="utf-8")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
