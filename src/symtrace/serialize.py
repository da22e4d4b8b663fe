"""Canonical JSON encoding of polynomials and operators.

Rationals are decimal strings "p/q" (reduced, q > 0).  Terms are emitted
in canonical graded-lex order, largest first, so serialize . parse is the
identity and equal objects serialize to identical bytes.  One writer,
`dump`, writes a document through a write callback, and each Poly and
WeylOp value in it straight from its sorted terms, never as dicts.  Parsing
accepts only documents of that shape, space codes spelled as ``code()``
writes them, with integer coefficients allowed too, and refuses anything
else with a ValueError.  An operator's document is nested, {beta: a_beta},
so the parser owns that form and hands ``WeylOp.of_symbol`` the sum.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii as _string

from .poly import Poly, _is_exponent
from .spaces import VarSpace
from .weyl import _DUAL, WeylOp, _carrier

SCHEMA = "symtrace/1"


def rational_to_str(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}"


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def rational_from_str(s: str | int) -> Fraction:
    """A coefficient as stored: a "p/q" string or an integer."""
    if not (type(s) is int or isinstance(s, str) and _RATIONAL.fullmatch(s)):
        raise ValueError(f'a coefficient must be a "p/q" string or an integer, got {s!r:.40}')
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in coefficient {s!r}") from None


_JSON_NAMES = {str: "string", list: "array"}


def _field(doc, key: str, kind: type | None = None):
    """doc[key] from a JSON object, checked to be of the given JSON type."""
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
    if key not in doc:
        raise ValueError(f"missing field {key!r}")
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise ValueError(f"field {key!r} must be a JSON {_JSON_NAMES[kind]}, got {value!r:.40}")
    return value


def poly_to_dict(p: Poly) -> dict:
    return {
        "space": p.space.code(),
        "terms": [
            {"coeff": rational_to_str(c), "exp": list(exp)}
            for exp, c in p.sorted_terms()
        ],
    }


def _terms(d: dict, key: str, parse_coeff) -> dict:
    """The "terms" array of a document as {exponent tuple: parsed coeff}.
    An exponent is an array of integers and may not repeat."""
    out = {}
    for t in _field(d, "terms", list):
        exp = tuple(_field(t, key, list))
        if any(type(e) is not int for e in exp):
            raise ValueError(f"field {key!r} must hold integers, got {list(exp)!r:.40}")
        if exp in out:
            raise ValueError(f"repeated {key} {list(exp)}")
        out[exp] = parse_coeff(_field(t, "coeff"))
    return out


def poly_from_dict(d: dict) -> Poly:
    return Poly(VarSpace.from_code(_field(d, "space", str)), _terms(d, "exp", rational_from_str))


def weyl_to_dict(op: WeylOp) -> dict:
    return {
        "space": op.space.code(),
        "terms": [
            {"dexp": list(dexp), "coeff": poly_to_dict(c)}
            for dexp, c in op.sorted_terms()
        ],
    }


def weyl_from_dict(d: dict) -> WeylOp:
    """The operator whose full symbol sums each a_beta embedded at eta^beta (xi^beta)."""
    space = VarSpace.from_code(_field(d, "space", str))
    terms = _terms(d, "dexp", poly_from_dict)
    family, dual = _carrier(space)
    for dexp in terms:  # embed checks each coefficient's space
        if not _is_exponent(dexp, space.nvars):
            raise ValueError(f"bad partial multi-index {dexp}")
    return WeylOp.of_symbol(Poly.sum(dual, (a.embed(dual, _DUAL[family], dexp) for dexp, a in terms.items())))


def dump(obj, write) -> None:
    """Write ``json.dumps(obj, indent=2) + "\\n"`` through write, where each key
    is a string and a Poly or WeylOp stands for its `poly_to_dict` /
    `weyl_to_dict`; strings go through json's C string encoder."""
    _write(obj, "\n", write)
    write("\n")


def dumps(obj) -> str:
    """The text `dump` writes, as one string: the same writer into a list."""
    out: list[str] = []
    dump(obj, out.append)
    return "".join(out)


def _write(o, nl: str, write) -> None:
    """Write the JSON of o, where nl is the newline and indent of its line."""
    inner = nl + "  "
    if isinstance(o, str):
        write(_string(o))
    elif isinstance(o, Poly):  # poly_to_dict(o), each term through one %-format
        item = inner + "  "
        term = _term_format(o.space.nvars, item)
        terms = ("," + item).join([term % (c, 1, *e) if type(c) is int else term % (c.numerator, c.denominator, *e)
                                   for e, c in o.sorted_terms()])
        write("{" + inner + '"space": ' + _string(o.space.code()) + "," + inner + '"terms": '
              + ("[" + item + terms + inner + "]" if terms else "[]") + nl + "}")
    elif isinstance(o, WeylOp):  # weyl_to_dict(o), each coefficient left a Poly
        _write({"space": o.space.code(), "terms": [{"dexp": list(d), "coeff": c} for d, c in o.sorted_terms()]},
               nl, write)
    elif not isinstance(o, (list, tuple, dict)) or not o:
        write(json.dumps(o))
    elif isinstance(o, dict):
        sep = "{" + inner
        for key, v in o.items():
            if type(v) is str:
                write(sep + _string(key) + ": " + _string(v))
            else:
                write(sep + _string(key) + ": ")
                _write(v, inner, write)
            sep = "," + inner
        write(nl + "}")
    elif (kinds := {*map(type, o)}) == {int} or kinds == {str}:
        write("[" + inner + ("," + inner).join(map(_string if str in kinds else int.__repr__, o)) + nl + "]")
    else:
        sep = "[" + inner
        for v in o:
            write(sep)
            _write(v, inner, write)
            sep = "," + inner
        write(nl + "]")


@cache
def _term_format(n: int, item: str) -> str:
    """The %-format, from (numerator, denominator, *exp), of a term of n
    variables whose object opens on the line item."""
    field, entry = item + "  ", item + "    "
    ints = "[" + entry + ("," + entry).join(["%d"] * n) + field + "]" if n else "[]"
    return "{" + field + '"coeff": "%d/%d",' + field + '"exp": ' + ints + item + "}"
