"""Command-line entry point.

`symtrace COMMAND -h` describes one command.  All structured output is
UTF-8 JSON with a top-level schema field; exit 0 means every check passed,
2 is a semantic negative (non-member, failed check), 1 a usage or internal
error, reported on one `error:` line.

One table, COMMANDS, names every flag of the seven commands: its type,
choices, default, help, whether it is required or a switch, and charvar's
one-of-three mode.  `parse` reads argv against it in one walk, with no
argparse: it accepts what argparse 3.11 accepted, to the same values and
with argparse's wording for each error, and the help is written from it.
"""

from __future__ import annotations

import contextlib
import json
import math
import re
import sys
from pathlib import Path
from types import SimpleNamespace

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


class Flag:
    """One flag: a switch stores True, any other flag its value through type,
    which must then be one of choices where there are any."""

    def __init__(self, metavar="", type=str, choices=(), required=False, default=None, switch=False, help=""):
        self.metavar = metavar or ("{%s}" if required else "%s") % "|".join(choices)  # names the value in usage
        self.type, self.choices, self.required, self.switch, self.help = type, tuple(choices), required, switch, help
        self.default = False if switch else default


K, FORMAT = Flag("K", int, required=True, help="the number of roots"), Flag(choices=("json", "text"), default="json")
STRICT = Flag(switch=True, help="treat deviations from published displays as failures")
# Each command: its function, its summary, its flags in usage order, and the flags of which one must be given.
COMMANDS = {
    "gen": (cmd_gen, "emit a symmetric-function family table", {
        "--family": Flag(choices=FAMILIES, required=True), "--k": K,
        "--max-m": Flag("M", int, required=True, help="the last index m"), "--format": FORMAT}, ()),
    "xi": (cmd_xi, "transport a symmetric x-operator to sigma-coordinates", {
        "--k": K, "--op": Flag("{S2|S3|...|file.json}", required=True, help="S2..Sk or a JSON operator file"),
        "--format": FORMAT}, ()),
    "verify": (cmd_verify, "run an exact verification suite", {
        "--k": K, "--suite": Flag(choices=sorted(SUITES), required=True),
        "--max-m": Flag("M", int, help="the last index m of a family suite"), "--format": FORMAT,
        "--strict-paper": STRICT}, ()),
    "charvar": (cmd_charvar, "characteristic-variety tools", {
        "--k": K, "--sample": Flag("N", int, help="sample N points of the variety"),
        "--check-symbols": Flag(switch=True, help="run the symbols suite"),
        "--decompose": Flag("f.json", help="JSON polynomial file over (sigma, eta)"),
        "--seed": Flag("S", int, help="with --sample; 0 by default"), "--format": FORMAT,
        "--strict-paper": STRICT}, ("--sample", "--check-symbols", "--decompose")),
    "member": (cmd_member, "left-ideal membership with certificate", {
        "--k": K, "--op": Flag("file.json", required=True, help="JSON operator file"),
        "--newton-bound": Flag("B", int, help="check the power sums N_m up to m = B first")}, ()),
    "numcheck": (cmd_numcheck, "numeric contour evaluation of a trace", {
        "--k": K, "--sigma": Flag('"a1,...,ak"', required=True, help="comma-separated values"),
        "--f": Flag("exp|sin|pow:m", default="exp", help="exp, sin, or pow:m")}, ()),
    "golden": (cmd_golden, "re-derive and compare the stored published formulas", {
        "--dir": Flag("PATH", help="the directory of golden files"), "--format": FORMAT,
        "--strict-paper": STRICT}, ()),
}


def _help(command: str | None) -> str:
    """The usage of every command, or one command's usage, summary and flags."""
    if command is None:
        return "\n".join(_help(c).split("\n\n")[0] for c in COMMANDS) + "\n\n" + __doc__.split("\n\n")[1]
    _, summary, flags, mode = COMMANDS[command]
    word = {name: f"{name} {f.metavar}".rstrip() for name, f in flags.items()}
    pieces = [w if flags[name].required else f"[{w}]" for name, w in word.items() if name not in mode]
    if mode:  # [optional], (exactly one | of these)
        pieces.insert(list(flags).index(mode[0]), "(" + " | ".join(map(word.get, mode)) + ")")
    lines = [f"symtrace {command:8}"]
    for piece in pieces:  # in 80 columns
        lines += [" " * 17] if len(lines[-1]) + len(piece) >= 80 else []
        lines[-1] += " " + piece
    return "\n".join([*lines, "", summary, "", *(f"  {word[n]:20}  {f.help}".rstrip() for n, f in flags.items())])


def _classify(token: str, options) -> tuple | None:
    """token as argparse read it against options: None for a value, else
    (the option it names, or None for none; its =value, or None)."""
    if token in options:
        return token, None
    if len(token) < 2 or token[0] != "-":
        return None
    head, eq, tail = token.partition("=")
    if eq and head in options:
        return head, tail
    if token[1] == "-":  # a unique prefix names a long option
        found, explicit = [o for o in options if o.startswith(head)], tail if eq else None
    else:
        found, explicit = ["-h"] if token.startswith("-h") else [], token[2:]
    if len(found) > 1:
        raise ValueError(f"ambiguous option: {token} could match {', '.join(found)}")
    if found:
        return found[0], explicit
    return None if re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token else (None, None)


def _invalid_choice(name: str, value, choices) -> ValueError:
    return ValueError(f"argument {name}: invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})")


def parse(argv: list[str]) -> SimpleNamespace:
    """argv as argparse 3.11 read it, in one walk: command, fn and each flag
    of the command; a usage error raises ValueError in argparse's words."""
    command, flags, mode, given, extras, i = None, {}, (), [], [], 0
    cut = argv.index("--") if "--" in argv else len(argv)  # no flag from here on
    kinds = [_classify(t, ("-h", "--help", "--version")) for t in argv[:cut]] + [None] * (len(argv) - cut)
    while i < cut or command is None and i < len(argv) - 1:  # argparse took a "--" with more after it for the command
        token, kind, i = argv[i], kinds[i], i + 1
        if kind is None and command is None:  # the command: read the rest against its flags
            if token not in COMMANDS:
                raise _invalid_choice("command", token, COMMANDS)
            command, (fn, _, flags, mode) = token, COMMANDS[token]
            values = {name: f.default for name, f in flags.items()}
            kinds[i:cut] = [_classify(t, ("-h", "--help", *flags)) for t in argv[i:cut]]
            continue
        if kind is None or kind[0] is None:
            extras.append(token)
            continue
        (option, explicit), f = kind, flags.get(kind[0])
        if f is None or f.switch:  # -h, --help, --version or a switch: no value
            if option == "-h" and explicit:
                explicit = explicit.lstrip("h") or None  # -hh is -h twice
            if explicit is not None:
                label = "-h/--help" if option in ("-h", "--help") else option
                raise ValueError(f"argument {label}: ignored explicit argument {explicit!r}")
            if f is None:
                print(f"symtrace {__version__}" if option == "--version" else _help(command))
                raise SystemExit(0)
        elif explicit is None and (i == cut or kinds[i] is not None):
            raise ValueError(f"argument {option}: expected one argument")
        elif explicit is None:
            explicit, i = argv[i], i + 1
        try:
            value = True if f.switch else f.type(explicit)
        except ValueError:
            raise ValueError(f"argument {option}: invalid {f.type.__name__} value: {explicit!r}") from None
        if f.choices and value not in f.choices:
            raise _invalid_choice(option, value, f.choices)
        if option in mode and (clash := [m for m in mode if m in given and m != option]):
            raise ValueError(f"argument {option}: not allowed with argument {clash[0]}")
        given.append(option)
        values[option] = value
    if command is None:
        raise ValueError("the following arguments are required: command")
    if missing := [name for name, f in flags.items() if f.required and name not in given]:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    if mode and not set(mode) & set(given):
        raise ValueError(f"one of the arguments {' '.join(mode)} is required")
    if extras := extras + argv[cut:]:
        raise ValueError(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(command=command, fn=fn, **{name[2:].replace("-", "_"): v for name, v in values.items()})


def dispatch(argv: list[str]) -> int:
    try:
        args = parse(argv)
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
