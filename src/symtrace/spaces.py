"""Variable spaces shared by polynomials and differential operators.

A VarSpace declares an ordered list of indexed variable families.  Every
Poly and WeylOp carries exactly one VarSpace; mixing spaces is an error.
Each layout has one VarSpace instance, so spaces compare with ``is``, and
``check_space`` guards that an object lives over a given space.  Families:

    x      coordinates x_1..x_k (weight 1 each)
    sigma  elementary-symmetric coordinates s_1..s_k (weight h for s_h)
    eta    cotangent coordinates dual to d/ds_h (weight -h)
    xi     cotangent coordinates dual to d/dx_i (weight -1)
    t      one auxiliary variable (root-like, weight 1)
"""

from __future__ import annotations

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


class VarSpace:
    """An ordered tuple of (family, count) pairs; indices run 1..count.
    The first ``VarSpace(families)`` of a layout validates it and stores
    its variable count and each family's (offset, count); later calls
    return that instance."""

    __slots__ = ("families", "nvars", "_layout")
    _interned: dict[tuple, VarSpace] = {}

    def __new__(cls, families):
        families = tuple(map(tuple, families))
        for fam, count in families:
            # 2.0 and True equal an int count and hash alike, so the lookup would take them for it
            if type(count) is not int:
                raise ValueError(f"family {fam!r} needs an int count, got {count!r}")
        space = cls._interned.get(families)
        if space is None:
            layout, nvars = {}, 0
            for fam, count in families:
                if fam not in FAMILY_ORDER:
                    raise ValueError(f"unknown variable family {fam!r}")
                if count < 1:
                    raise ValueError(f"family {fam!r} needs at least one variable")
                if fam == "t" and count != 1:
                    raise ValueError("the auxiliary family holds exactly one variable")
                layout[fam] = (nvars, count)
                nvars += count
            if len(layout) < len(families) or list(layout) != sorted(layout, key=FAMILY_ORDER.index):
                raise ValueError("families must appear once each, in canonical order")
            space = object.__new__(cls)
            object.__setattr__(space, "families", families)
            object.__setattr__(space, "nvars", nvars)
            object.__setattr__(space, "_layout", layout)
            cls._interned[families] = space
        return space

    def __setattr__(self, name, value):
        raise AttributeError("VarSpace is immutable")

    def __reduce__(self):  # copy, deepcopy and pickle return the interned instance
        return VarSpace, (self.families,)

    def family_count(self, family: str) -> int:
        return self._layout.get(family, (0, 0))[1]

    def offset(self, family: str) -> int:
        if family not in self._layout:
            raise KeyError(f"family {family!r} not in space {self}")
        return self._layout[family][0]

    def position(self, family: str, index: int) -> int:
        """Global slot of the index-th variable of a family (1-based index)."""
        off, count = self._layout.get(family, (0, 0))
        if not 1 <= index <= count:
            raise KeyError(f"{family}{index} not in space {self}")
        return off + index - 1

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
        """The space whose ``code()`` is code; any other spelling is refused."""
        families = []
        for token in code.split("+"):
            fam, _, count = token.partition(":")
            families.append((fam, int(count)))
        space = VarSpace(families)
        if space.code() != code:
            raise ValueError(f"space code {code!r:.40} is not canonical; write {space.code()!r:.40}")
        return space

    __str__ = __repr__ = code


def check_space(obj, space: VarSpace) -> None:
    """Raise SpaceMismatchError unless obj (a Poly or WeylOp) lives over space."""
    if obj.space is not space:
        raise SpaceMismatchError(f"space mismatch: expected {space}, got {obj.space}")


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
