"""The benchmark's own tests: the gate is not vacuous and the tracer misses nothing.

    python3 bench/selftest.py

1. A flipped output byte and, separately, a wrong exit code each make an op
   fail its gate, for outputs of real smallest-k ops of every workload.
2. A pass whose op gets an unexpected exit code counts one failed op.
3. For a smallest-k smoke pass of every workload, each wrapped function's
   traced call count equals the count of calls into its code object seen
   by a profiler in an untraced child, so every function the pass reaches
   has nonzero calls and no binding of it was missed.
4. BENCHMARK.json names the workloads and metrics bench/run.py reports.
5. Seeded inputs repeat for a seed and change with it.
6. Without the program's sources the benchmark exits nonzero and prints
   no result.

Not named test_*.py, so the repository's own pytest run does not collect it.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time

import oracles
import run
import tracer
from workloads import WORKLOADS

SEED = 3


def flip(data: bytes, pos: int) -> bytes:
    return data[:pos] + bytes([data[pos] ^ 0x01]) + data[pos + 1:]


def value_digit(data: bytes, marker: bytes) -> int:
    """Position of the third digit after `marker`, a byte inside a number."""
    start = data.index(marker) + len(marker)
    digits = [i for i in range(start, len(data)) if chr(data[i]).isdigit()]
    return digits[2]


def corruptions(op, stdout: bytes):
    """(label, stdout) pairs that change the op's result by one byte."""
    if op.hashed:
        yield "middle byte", flip(stdout, len(stdout) // 2)
    elif op.check["kind"] == "numcheck":
        yield "trace digit", flip(stdout, value_digit(stdout, b'"value": ['))
    elif op.check["kind"] == "decompose" and op.check["member"]:
        yield "coefficient digit", flip(stdout, value_digit(stdout, b'"coeff": "'))
    elif op.check["kind"] == "decompose":
        at = stdout.index(b"false")
        yield "verdict", stdout[:at] + b"true " + stdout[at + 5:]


def check_gate(references: dict) -> None:
    for name, build in sorted(WORKLOADS.items()):
        work = run.WORK / "selftest" / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        for op in build(SEED, work, smoke=True):
            record = run.run_op(op, work, False, references, run.OP_CAP_S)
            assert not record["problems"], (op.id, record["problems"])
            stdout = (work / op.out).read_bytes()
            for label, bad in corruptions(op, stdout):
                assert bad != stdout and len(bad) == len(stdout)
                problems = oracles.check_op(op, record["rc"], bad, references, work)
                assert problems, f"{op.id}: corrupted {label} passed the gate"
            wrong_rc = 1 if op.expect_rc != 1 else 0
            assert oracles.check_op(op, wrong_rc, stdout, references, work), op.id
            assert oracles.check_op(op, None, stdout, references, work), op.id
        print(f"PASS gate: every smoke op of {name} fails on a flipped byte or a wrong exit code")


def check_pass_counts_failure(references: dict) -> None:
    work = run.WORK / "selftest" / "wrong-rc"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = WORKLOADS["variety-numeric"](SEED, work, smoke=True)
    ops = [dataclasses.replace(op, expect_rc=0) if op.expect_rc == 2 else op for op in ops]
    p = run.run_pass(ops, work, False, references, time.monotonic() + 120)
    assert p["failed"] == 1, [r["problems"] for r in p["records"]]
    print("PASS gate: a pass with one op exiting 2 where 0 was expected counts 1 failed op")


# -- tracer completeness ---------------------------------------------------------------


def count_calls(argv: list[str]) -> dict:
    """Child mode: run one CLI command under a profiler; print call counts
    per traced function, keyed like the tracer's metrics."""
    import importlib

    import symtrace.cli

    codes = {}
    for name, module, attr in tracer.TARGETS + [("poly.constructions", "symtrace.poly", "Poly.__init__")]:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        codes[obj.__code__] = name
    counts = dict.fromkeys(codes.values(), 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        symtrace.cli.dispatch(argv)
    finally:
        sys.setprofile(None)
    return counts


def check_tracer(references: dict) -> None:
    for name, build in sorted(WORKLOADS.items()):
        work = run.WORK / "selftest" / f"trace-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        ops = build(SEED, work, smoke=True)
        p = run.run_pass(ops, work, True, references, time.monotonic() + 120)
        assert p["failed"] == 0, [r["problems"] for r in p["records"]]
        traced = {t: 0 for t, _, _ in tracer.TARGETS}
        traced["poly.constructions"] = 0
        profiled = dict(traced)
        for op, record in zip(ops, p["records"]):
            for t, stat in record["trace"]["stats"].items():
                traced[t] += stat[0]
            traced["poly.constructions"] += record["trace"]["counters"]["poly.constructions"]
            proc = subprocess.run([sys.executable, __file__, "--count-calls", *op.argv],
                                  capture_output=True, text=True, env=run.child_env(),
                                  cwd=run.ROOT, timeout=120)
            for t, n in json.loads(proc.stdout.splitlines()[-1]).items():
                profiled[t] += n
        reached = sorted(t for t, n in profiled.items() if n)
        assert traced == profiled, {t: (traced[t], profiled[t])
                                    for t in traced if traced[t] != profiled[t]}
        assert all(traced[t] > 0 for t in reached)
        print(f"PASS tracer: {name}: {len(reached)} wrapped functions reached, "
              f"traced calls equal profiled calls for each; not reached: "
              f"{sorted(set(traced) - set(reached)) or 'none'}")


# -- inputs and failure without sources ------------------------------------------------


def check_seeded_inputs() -> None:
    work = run.WORK / "selftest" / "seeds"
    texts = {}
    for seed in (SEED, SEED, SEED + 1):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        ops = WORKLOADS["variety-numeric"](seed, work)
        files = sorted((p.name, p.read_bytes()) for p in work.iterdir())
        texts.setdefault(seed, []).append((json.dumps([op.argv for op in ops]), files))
    assert texts[SEED][0] == texts[SEED][1], "same seed, different inputs"
    assert texts[SEED][0] != texts[SEED + 1][0], "different seeds, same inputs"
    print("PASS seeds: the same seed gives byte-identical inputs, another seed other inputs")


def check_fails_without_sources() -> None:
    bare = run.WORK / "selftest" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=bare, timeout=180)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, (proc.returncode, proc.stdout)
    shutil.rmtree(bare)
    print("PASS bare: with only BENCHMARK.json and bench/ the benchmark exits "
          f"{proc.returncode} and prints no result")


def check_benchmark_json() -> None:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in doc["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    print("PASS BENCHMARK.json: workloads and metric units match bench/run.py")


def main() -> int:
    if sys.argv[1:2] == ["--count-calls"]:
        print(json.dumps(count_calls(sys.argv[2:])))
        return 0
    references = json.loads(run.REFERENCE.read_text(encoding="utf-8"))["sha256"]
    check_benchmark_json()
    check_seeded_inputs()
    check_fails_without_sources()
    check_gate(references)
    check_pass_counts_failure(references)
    check_tracer(references)
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
