"""Command-line entry point.

Subcommands: gen, xi, verify, charvar, member, numcheck, golden.  All
structured output is UTF-8 JSON with a top-level schema field; exit 0
means every check passed, 2 is a semantic negative (non-member, failed
check), 1 a usage or internal error, reported on one `error:` line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from pathlib import Path

from . import __version__
from .annihilators import FAMILIES, family_members
from .charvar import (
    NotOnVarietyError,
    decompose_in_minors,
    recombine,
    sample_z_points,
)
from .membership import reduce_modulo_system, verify_certificate
from .numerics import EXP, NODES, SIN, contour_radius, power_function, trace_contour
from .report import SUITES, golden_check, golden_dir, run_suite
from .serialize import SCHEMA, dump, poly_from_dict, rational_to_str, weyl_from_dict
from .transport import SymmetricOperator, elementary_symmetric_op, xi_transport


def _print(doc: dict):
    dump(doc, sys.stdout.write)  # every value and check in doc is final before the first byte


def _print_report(rep, args) -> int:
    """Print a verification report in the chosen format; its exit status."""
    if args.format == "json":
        _print(rep.to_dict(strict_paper=args.strict_paper))
    else:
        print(rep.to_text())
    return rep.exit_status(strict_paper=args.strict_paper)


def cmd_gen(args) -> int:
    members = family_members(args.k, args.family, args.max_m)
    if args.format == "json":
        entries = [{"m": m, "poly": f} for m, f in members]
        _print({"schema": SCHEMA, "object": "family", "family": args.family,
                "k": args.k, "max_m": args.max_m, "entries": entries})
    else:
        for m, f in members:
            print(f"{args.family}[{m}] = {f}")
    return 0


def _resolve_input(path: str) -> Path:
    """The file at path; failing that, a bare NAME or golden/NAME names
    the packaged golden file NAME."""
    p = Path(path)
    if p.exists():
        return p
    fallback = golden_dir() / p.name
    if p.parent in (Path("."), Path("golden")) and fallback.exists():
        return fallback
    raise FileNotFoundError(f"no such file: {path}")


def _load_value(path: str, *wrappers: str):
    """The JSON document in a file, unwrapped from the given keys in turn
    where it is an object that has them."""
    with open(_resolve_input(path), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    for key in wrappers:
        if isinstance(doc, dict) and key in doc:
            doc = doc[key]
    return doc


def cmd_xi(args) -> int:
    k = args.k
    if args.op.upper().startswith("S") and args.op[1:].isdigit():
        h = int(args.op[1:])
        sym = elementary_symmetric_op(k, h)
    else:
        sym = SymmetricOperator(weyl_from_dict(_load_value(args.op, "value", "op")), k)
    transported = xi_transport(sym)
    if args.format == "json":
        _print({"schema": SCHEMA, "object": "weylop", "k": k, "source": args.op, "op": transported})
    else:
        print(transported)
    return 0


def cmd_verify(args) -> int:
    return _print_report(run_suite(args.suite, args.k, args.max_m), args)


def cmd_charvar(args) -> int:
    k = args.k
    if args.seed is not None and args.sample is None:
        raise ValueError("--seed applies only to --sample")
    if (args.format != "json" or args.strict_paper) and not args.check_symbols:
        raise ValueError("--format text and --strict-paper apply only to --check-symbols")
    if args.sample is not None:
        seed = args.seed or 0
        pts = sample_z_points(k, seed, args.sample)
        _print({
            "schema": SCHEMA, "object": "zpoints", "k": k, "seed": seed,
            "points": [
                {
                    "sigma": [rational_to_str(v) for v in p.sigma],
                    "eta": [rational_to_str(v) for v in p.eta],
                    "s": [rational_to_str(v) for v in p.s],
                    "zeta0": rational_to_str(p.zeta0),
                    "zeta1": rational_to_str(p.zeta1),
                }
                for p in pts
            ],
        })
        return 0
    if args.check_symbols:
        return _print_report(run_suite("symbols", k), args)
    f = poly_from_dict(_load_value(args.decompose, "value"))
    try:
        coeffs = decompose_in_minors(f, k)
    except NotOnVarietyError as exc:
        _print({"schema": SCHEMA, "object": "minor-decomposition", "k": k,
                "member_of_minor_ideal": False, "reason": str(exc)})
        return 2
    _print({
        "schema": SCHEMA, "object": "minor-decomposition", "k": k,
        "member_of_minor_ideal": True,
        "coefficients": {f"m({i},{j})": c for (i, j), c in sorted(coeffs.items())},
        "recombines": recombine(k, coeffs) == f,
    })
    return 0


def cmd_member(args) -> int:
    op = weyl_from_dict(_load_value(args.op, "value", "op"))
    cert = reduce_modulo_system(op, args.k, args.newton_bound)
    doc = {
        "schema": SCHEMA,
        "object": "membership-certificate",
        "k": args.k,
        "member": cert.is_member,
        "newton_bound": cert.newton_bound,
        "failing_newton_index": cert.failing_newton_index,
        "entries": [{"generator": gid, "cofactor": cof} for gid, cof in cert.entries],
        "remainder": cert.remainder,
        "verified": verify_certificate(op, cert),
    }
    _print(doc)
    return 0 if cert.is_member else 2


def _sigma_entry(n: int, text: str) -> complex:
    """Sigma entry n, a float where it reads as one, else complex."""
    for parse in (float, complex):
        with contextlib.suppress(ValueError):
            return parse(text)
    raise ValueError(f"sigma entry {n} is not a number: {text.strip()!r}")


def _finite(v: complex) -> bool:
    return math.isfinite(v.real) and math.isfinite(v.imag)


def cmd_numcheck(args) -> int:
    sigma = [_sigma_entry(n, text) for n, text in enumerate(args.sigma.split(","), 1)]
    if len(sigma) != args.k:
        raise ValueError(f"expected {args.k} sigma entries")
    if not all(_finite(v) for v in sigma):
        raise ValueError("sigma entries must be finite numbers")
    if args.f == "exp":
        f = EXP
    elif args.f == "sin":
        f = SIN
    elif args.f.startswith("pow:") and args.f[4:].strip().removeprefix("-").isdecimal():
        f = power_function(int(args.f[4:]))
    else:
        raise ValueError(f"unknown function {args.f!r}")
    not_finite = "the contour trace is not finite (overflow or a degenerate contour)"
    try:
        tv = trace_contour(f, sigma)
    except (ArithmeticError, ValueError) as exc:  # cmath's overflow, pole or math domain error
        raise ValueError(not_finite) from exc
    if not (_finite(tv.value) and _finite(tv.residue_form) and _finite(tv.difference)):
        raise ValueError(not_finite)
    _print({
        "schema": SCHEMA, "object": "numcheck", "k": args.k,
        "sigma": [[v.real, v.imag] for v in map(complex, sigma)],
        "f": f.name, "radius": contour_radius(sigma), "nodes": NODES,
        "trace": {
            "value": [tv.value.real, tv.value.imag],
            "residue_form": [tv.residue_form.real, tv.residue_form.imag],
            "difference": tv.difference,
        },
    })
    return 0


def cmd_golden(args) -> int:
    return _print_report(golden_check(args.dir), args)


class _Parser(argparse.ArgumentParser):
    """A parser (its subparsers take its class) that raises a usage error
    for `dispatch` to print, in place of printing the usage block."""

    def error(self, message: str):
        raise ValueError(message)


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or given argv only of the one its first
    word that is no option names; the top level names all seven either way."""
    ap = _Parser(prog="symtrace", description=__doc__)
    ap.add_argument("--version", action="version", version=f"symtrace {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    invoked = None if argv is None else next((a for a in argv if not a.startswith("-")), None)

    def command(name: str, summary: str, fn):  # its subparser where it is built, else None
        built = invoked in (None, name)
        p = sub.add_parser(name, help=summary, add_help=built)
        p.set_defaults(fn=fn)
        return p if built else None

    if g := command("gen", "emit a symmetric-function family table", cmd_gen):
        g.add_argument("--family", required=True, choices=list(FAMILIES))
        g.add_argument("--k", type=int, required=True)
        g.add_argument("--max-m", type=int, required=True)
        g.add_argument("--format", choices=["json", "text"], default="json")

    if x := command("xi", "transport a symmetric x-operator to sigma-coordinates", cmd_xi):
        x.add_argument("--k", type=int, required=True)
        x.add_argument("--op", required=True, help="S2..Sk or a JSON operator file")
        x.add_argument("--format", choices=["json", "text"], default="json")

    if v := command("verify", "run an exact verification suite", cmd_verify):
        v.add_argument("--k", type=int, required=True)
        v.add_argument("--suite", required=True, choices=sorted(SUITES))
        v.add_argument("--max-m", type=int, default=None)
        v.add_argument("--format", choices=["json", "text"], default="json")
        v.add_argument("--strict-paper", action="store_true",
                       help="treat deviations from published displays as failures")

    if c := command("charvar", "characteristic-variety tools", cmd_charvar):
        c.add_argument("--k", type=int, required=True)
        mode = c.add_mutually_exclusive_group(required=True)
        mode.add_argument("--sample", type=int, default=None)
        mode.add_argument("--check-symbols", action="store_true")
        mode.add_argument("--decompose", default=None, help="JSON polynomial file over (sigma, eta)")
        c.add_argument("--seed", type=int, default=None, help="with --sample; 0 by default")
        c.add_argument("--format", choices=["json", "text"], default="json")
        c.add_argument("--strict-paper", action="store_true")

    if m := command("member", "left-ideal membership with certificate", cmd_member):
        m.add_argument("--k", type=int, required=True)
        m.add_argument("--op", required=True, help="JSON operator file")
        m.add_argument("--newton-bound", type=int, default=None)

    if n := command("numcheck", "numeric contour evaluation of a trace", cmd_numcheck):
        n.add_argument("--k", type=int, required=True)
        n.add_argument("--sigma", required=True, help="comma-separated values")
        n.add_argument("--f", default="exp", help="exp, sin, or pow:m")

    if d := command("golden", "re-derive and compare the stored published formulas", cmd_golden):
        d.add_argument("--dir", default=None)
        d.add_argument("--format", choices=["json", "text"], default="json")
        d.add_argument("--strict-paper", action="store_true")
    return ap


def dispatch(argv: list[str]) -> int:
    try:
        args = build_parser(argv).parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:  # --help and --version
        return 1 if exc.code else 0
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except AssertionError as exc:
        detail = " ".join(str(exc).split()) or "an internal invariant does not hold"
        print(f"error: internal error: {detail}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
