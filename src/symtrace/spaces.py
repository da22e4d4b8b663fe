"""Variable spaces shared by polynomials and differential operators.

A VarSpace declares an ordered list of indexed variable families.  Every
Poly and WeylOp carries exactly one VarSpace; mixing spaces is an error.
Families:

    x      coordinates x_1..x_k (weight 1 each)
    sigma  elementary-symmetric coordinates s_1..s_k (weight h for s_h)
    eta    cotangent coordinates dual to d/ds_h (weight -h)
    xi     cotangent coordinates dual to d/dx_i (weight -1)
    t      one auxiliary variable (root-like, weight 1)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

FAMILY_ORDER = ("x", "sigma", "eta", "xi", "t")

_PREFIX = {"x": "x", "sigma": "s", "eta": "eta", "xi": "xi", "t": "t"}


class SpaceMismatchError(ValueError):
    """Operands declared over different variable spaces."""


def variable_weight(family: str, index: int) -> int:
    if family in ("x", "t"):
        return 1
    if family == "sigma":
        return index
    if family == "eta":
        return -index
    if family == "xi":
        return -1
    raise ValueError(f"unknown variable family {family!r}")


@dataclass(frozen=True)
class VarSpace:
    """An ordered tuple of (family, count) pairs; indices run 1..count."""

    families: tuple[tuple[str, int], ...]

    def __post_init__(self):
        seen = []
        for fam, count in self.families:
            if fam not in FAMILY_ORDER:
                raise ValueError(f"unknown variable family {fam!r}")
            if count < 1:
                raise ValueError(f"family {fam!r} needs at least one variable")
            if fam == "t" and count != 1:
                raise ValueError("the auxiliary family holds exactly one variable")
            seen.append(fam)
        if seen != sorted(set(seen), key=FAMILY_ORDER.index) or len(seen) != len(set(seen)):
            raise ValueError("families must appear once each, in canonical order")

    @property
    def nvars(self) -> int:
        return sum(count for _, count in self.families)

    def family_count(self, family: str) -> int:
        for fam, count in self.families:
            if fam == family:
                return count
        return 0

    def offset(self, family: str) -> int:
        pos = 0
        for fam, count in self.families:
            if fam == family:
                return pos
            pos += count
        raise KeyError(f"family {family!r} not in space {self}")

    def position(self, family: str, index: int) -> int:
        """Global slot of the index-th variable of a family (1-based index)."""
        count = self.family_count(family)
        if not 1 <= index <= count:
            raise KeyError(f"{family}{index} not in space {self}")
        return self.offset(family) + index - 1

    def var_names(self) -> tuple[str, ...]:
        names = []
        for fam, count in self.families:
            if fam == "t":
                names.append("t")
            else:
                names.extend(f"{_PREFIX[fam]}{i}" for i in range(1, count + 1))
        return tuple(names)

    def weights(self) -> tuple[int, ...]:
        out = []
        for fam, count in self.families:
            out.extend(variable_weight(fam, i) for i in range(1, count + 1))
        return tuple(out)

    @cache
    def drop(self, family: str) -> VarSpace:
        kept = tuple((f, c) for f, c in self.families if f != family)
        if len(kept) == len(self.families):
            raise KeyError(f"family {family!r} not in space {self}")
        return VarSpace(kept)

    def code(self) -> str:
        return "+".join(f"{fam}:{count}" for fam, count in self.families)

    @staticmethod
    def from_code(code: str) -> VarSpace:
        families = []
        for token in code.split("+"):
            fam, _, count = token.partition(":")
            families.append((fam, int(count)))
        return VarSpace(tuple(families))

    def __str__(self):
        return self.code()


@cache
def x_space(k: int) -> VarSpace:
    return VarSpace((("x", k),))


@cache
def sigma_space(k: int) -> VarSpace:
    return VarSpace((("sigma", k),))


@cache
def sigma_eta_space(k: int) -> VarSpace:
    return VarSpace((("sigma", k), ("eta", k)))


@cache
def x_xi_space(k: int) -> VarSpace:
    return VarSpace((("x", k), ("xi", k)))


@cache
def sigma_aux_space(k: int) -> VarSpace:
    """sigma_1..sigma_k together with the auxiliary variable t."""
    return VarSpace((("sigma", k), ("t", 1)))


def check_same_space(a, b) -> None:
    if a.space != b.space:
        raise SpaceMismatchError(f"space mismatch: {a.space} vs {b.space}")
