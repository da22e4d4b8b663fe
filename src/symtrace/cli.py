"""Command-line entry point.

Subcommands: gen, xi, verify, charvar, member, numcheck, golden.  All
structured output is UTF-8 JSON with a top-level schema field; exit 0
means every check passed, 2 is a semantic negative (non-member, failed
check), 1 a usage or internal error.  SYMTRACE_SEED overrides --seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
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
from .numerics import EXP, SIN, QuadratureSpec, power_function, trace_contour
from .report import SUITES, golden_check, golden_dir, run_suite
from .serialize import (
    SCHEMA,
    dumps,
    poly_from_dict,
    poly_to_dict,
    rational_to_str,
    weyl_from_dict,
    weyl_to_dict,
)
from .spaces import x_space
from .transport import SymmetricOperator, elementary_symmetric_op, xi_transport


def _print(doc: dict):
    sys.stdout.write(dumps(doc))


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
        entries = [{"m": m, "poly": poly_to_dict(f)} for m, f in members]
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
        op = weyl_from_dict(_load_value(args.op, "value", "op"))
        if op.space != x_space(k):
            print(f"error: operator must live over {x_space(k)}", file=sys.stderr)
            return 1
        sym = SymmetricOperator(op, k)
    transported = xi_transport(sym)
    if args.format == "json":
        _print({"schema": SCHEMA, "object": "weylop", "k": k, "source": args.op,
                "op": weyl_to_dict(transported)})
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
        seed = int(os.environ.get("SYMTRACE_SEED", args.seed or 0))
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
        "coefficients": {f"m({i},{j})": poly_to_dict(c) for (i, j), c in sorted(coeffs.items())},
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
        "entries": [
            {"generator": gid, "cofactor": weyl_to_dict(cof)} for gid, cof in cert.entries
        ],
        "remainder": weyl_to_dict(cert.remainder),
        "verified": verify_certificate(op, cert, args.k),
    }
    _print(doc)
    return 0 if cert.is_member else 2


def _parse_sigma(text: str) -> list[complex]:
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        try:
            out.append(float(chunk))
        except ValueError:
            out.append(complex(chunk))
    return out


def _finite(v: complex) -> bool:
    return math.isfinite(v.real) and math.isfinite(v.imag)


def cmd_numcheck(args) -> int:
    sigma = _parse_sigma(args.sigma)
    if len(sigma) != args.k:
        print(f"error: expected {args.k} sigma entries", file=sys.stderr)
        return 1
    if not all(_finite(v) for v in sigma):
        print("error: sigma entries must be finite numbers", file=sys.stderr)
        return 1
    if args.f == "exp":
        f = EXP
    elif args.f == "sin":
        f = SIN
    elif args.f.startswith("pow:"):
        f = power_function(int(args.f.split(":", 1)[1]))
    else:
        print(f"error: unknown function {args.f!r}", file=sys.stderr)
        return 1
    spec = QuadratureSpec.for_sigma(sigma, n=args.nodes)
    if args.radius is not None:
        spec = QuadratureSpec(R=args.radius, n=args.nodes)
    with warnings.catch_warnings():
        # numpy's overflow warnings would add stderr lines; the check below refuses the result
        warnings.simplefilter("ignore", RuntimeWarning)
        tv = trace_contour(f, sigma, spec)
    if not (_finite(tv.value) and _finite(tv.residue_form) and _finite(tv.difference)):
        print("error: the contour trace is not finite (overflow or a degenerate contour)",
              file=sys.stderr)
        return 1
    _print({
        "schema": SCHEMA, "object": "numcheck", "k": args.k,
        "sigma": [[v.real, v.imag] for v in map(complex, sigma)],
        "f": f.name, "radius": spec.R, "nodes": spec.n,
        "trace": {
            "value": [tv.value.real, tv.value.imag],
            "residue_form": [tv.residue_form.real, tv.residue_form.imag],
            "difference": tv.difference,
        },
    })
    return 0


def cmd_golden(args) -> int:
    return _print_report(golden_check(args.dir), args)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="symtrace", description=__doc__)
    ap.add_argument("--version", action="version", version=f"symtrace {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="emit a symmetric-function family table")
    g.add_argument("--family", required=True, choices=list(FAMILIES))
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--max-m", type=int, required=True)
    g.add_argument("--format", choices=["json", "text"], default="json")
    g.set_defaults(fn=cmd_gen)

    x = sub.add_parser("xi", help="transport a symmetric x-operator to sigma-coordinates")
    x.add_argument("--k", type=int, required=True)
    x.add_argument("--op", required=True, help="S2..Sk or a JSON operator file")
    x.add_argument("--format", choices=["json", "text"], default="json")
    x.set_defaults(fn=cmd_xi)

    v = sub.add_parser("verify", help="run an exact verification suite")
    v.add_argument("--k", type=int, required=True)
    v.add_argument("--suite", required=True, choices=sorted(SUITES))
    v.add_argument("--max-m", type=int, default=None)
    v.add_argument("--format", choices=["json", "text"], default="json")
    v.add_argument("--strict-paper", action="store_true",
                   help="treat deviations from published displays as failures")
    v.set_defaults(fn=cmd_verify)

    c = sub.add_parser("charvar", help="characteristic-variety tools")
    c.add_argument("--k", type=int, required=True)
    mode = c.add_mutually_exclusive_group(required=True)
    mode.add_argument("--sample", type=int, default=None)
    mode.add_argument("--check-symbols", action="store_true")
    mode.add_argument("--decompose", default=None, help="JSON polynomial file over (sigma, eta)")
    c.add_argument("--seed", type=int, default=None, help="with --sample; 0 by default")
    c.add_argument("--format", choices=["json", "text"], default="json")
    c.add_argument("--strict-paper", action="store_true")
    c.set_defaults(fn=cmd_charvar)

    m = sub.add_parser("member", help="left-ideal membership with certificate")
    m.add_argument("--k", type=int, required=True)
    m.add_argument("--op", required=True, help="JSON operator file")
    m.add_argument("--newton-bound", type=int, default=None)
    m.set_defaults(fn=cmd_member)

    n = sub.add_parser("numcheck", help="numeric contour evaluation of a trace")
    n.add_argument("--k", type=int, required=True)
    n.add_argument("--sigma", required=True, help="comma-separated values")
    n.add_argument("--f", default="exp", help="exp, sin, or pow:m")
    n.add_argument("--radius", type=float, default=None)
    n.add_argument("--nodes", type=int, default=256)
    n.set_defaults(fn=cmd_numcheck)

    d = sub.add_parser("golden", help="re-derive and compare the stored published formulas")
    d.add_argument("--dir", default=None)
    d.add_argument("--format", choices=["json", "text"], default="json")
    d.add_argument("--strict-paper", action="store_true")
    d.set_defaults(fn=cmd_golden)
    return ap


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        detail = " ".join(str(exc).split()) or "an internal invariant does not hold"
        print(f"error: internal error: {detail}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
