"""Multivariate polynomials over exact rationals.

Terms live in a dict mapping exponent tuples to nonzero coefficients; the
exponent tuple runs over all variables of the carrying VarSpace in
canonical order.  Every stored coefficient has one canonical form: a
nonzero int, or a Fraction with denominator > 1.  Most coefficients in
the kernel are integral, and int arithmetic pays no gcd; ``_canon``
demotes an integral Fraction to its numerator wherever one can arise.
Values are immutable by convention: no method mutates ``terms`` after
construction, so polynomials can be shared freely.

Polynomials are built and summed in one way each:

- ``Poly(space, terms)`` is the validated public constructor.  It
  converts coefficients to canonical form, drops zeros and rejects
  exponents of the wrong length or with an entry that is not a
  non-negative int (bools included).  Input from outside the kernel
  (user JSON, tests, hand-built tables) goes through it.
- ``Poly._trusted(space, terms)`` stores an already-clean dict as it is:
  nonzero canonical coefficients keyed by exponents of length
  ``space.nvars`` with no negative entry.  The ring operations build such
  dicts by construction and wrap them with it; the dict must not be
  mutated afterwards.
- ``Poly.sum(space, pieces)`` is the one way to sum polynomials.  It
  streams: the pieces are drawn one at a time and accumulate into one
  running dict, which is wrapped once at the end, so a sum fed from a
  generator holds that dict and one piece.  ``a + b`` is its two-piece
  case.
- ``_accumulate(out, key, c)`` adds ``c`` into ``out[key]``, stores the
  sum in canonical form and drops the key when the sum cancels;
  ``_add_product`` accumulates a product of two term dicts through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping

from .spaces import SpaceMismatchError, VarSpace, check_same_space


@dataclass(frozen=True)
class Weight:
    """A quasi-homogeneous weight: an integer, or non-pure."""

    value: int | None

    @property
    def is_pure(self) -> bool:
        return self.value is not None

    def __str__(self):
        return "non-pure" if self.value is None else str(self.value)


NON_PURE = Weight(None)


def _canon(c):
    """The canonical form of a coefficient: an integral Fraction becomes
    its numerator; ints, other Fractions and Poly values pass through."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _as_coeff(c) -> int | Fraction:
    if isinstance(c, Fraction):
        return _canon(c)
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"coefficients must be exact rationals, got {type(c).__name__}")


def _accumulate(out: dict, key, c) -> None:
    """out[key] += c, dropping the key when the sum is zero (rational or Poly values)."""
    s = out.get(key)
    if s is not None:
        c = s + c
    if c:
        out[key] = _canon(c)
    else:
        out.pop(key, None)


def _add_product(out: dict, a: Mapping, b: Mapping, c=1) -> None:
    """Accumulate c * a * b into out, where a and b are term dicts.

    A unit factor from a skips the product, so a should be the
    side with fewer terms and with unit coefficients when there is one.
    """
    for e1, c1 in a.items():
        if c != 1:
            c1 = c1 * c
        unit = c1 == 1
        for e2, c2 in b.items():
            _accumulate(out, tuple(map(add, e1, e2)), c2 if unit else c1 * c2)


def term_sort_key(exp: tuple[int, ...]):
    """Graded-lex, largest first: sort ascending by this key."""
    return (-sum(exp), tuple(-e for e in exp))


class Poly:
    __slots__ = ("space", "terms")

    def __init__(self, space: VarSpace, terms: Mapping[tuple[int, ...], Fraction] | None = None):
        object.__setattr__(self, "space", space)
        clean: dict[tuple[int, ...], Fraction] = {}
        n = space.nvars
        for exp, coeff in (terms or {}).items():
            c = _as_coeff(coeff)
            if c == 0:
                continue
            exp = tuple(exp)
            if len(exp) != n or any(type(e) is not int or e < 0 for e in exp):
                raise ValueError(f"bad exponent {exp} for space {space}")
            clean[exp] = c
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def _trusted(space: VarSpace, terms: dict[tuple[int, ...], Fraction]) -> Poly:
        """Wrap a clean term dict as it is, without copying or checking it."""
        obj = object.__new__(Poly)
        object.__setattr__(obj, "space", space)
        object.__setattr__(obj, "terms", terms)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(space: VarSpace) -> Poly:
        return Poly._trusted(space, {})

    @staticmethod
    def constant(space: VarSpace, c) -> Poly:
        return Poly(space, {(0,) * space.nvars: c})

    @staticmethod
    def one(space: VarSpace) -> Poly:
        return Poly.constant(space, 1)

    @staticmethod
    def variable(space: VarSpace, family: str, index: int = 1) -> Poly:
        exp = [0] * space.nvars
        exp[space.position(family, index)] = 1
        return Poly(space, {tuple(exp): 1})

    @staticmethod
    def monomial(space: VarSpace, exp: Iterable[int], coeff=1) -> Poly:
        return Poly(space, {tuple(exp): coeff})

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def sum(space: VarSpace, pieces: Iterable[Poly]) -> Poly:
        """The sum of the pieces, all over space; zero when there are none.

        Each piece accumulates into the running dict, except that a piece
        with more terms than the running dict is copied and the running
        dict accumulates into the copy, so the smaller side is the one
        walked.  Pieces are drawn one at a time and none is kept.
        """
        out: dict[tuple[int, ...], int | Fraction] = {}
        for p in pieces:
            if p.space != space:
                raise SpaceMismatchError(f"space mismatch: {space} vs {p.space}")
            terms = p.terms
            if len(terms) > len(out):
                out, terms = dict(terms), out
            for exp, c in terms.items():
                _accumulate(out, exp, c)
        return Poly._trusted(space, out)

    def __add__(self, other: Poly) -> Poly:
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly.sum(self.space, (self, other))

    def __neg__(self) -> Poly:
        return Poly._trusted(self.space, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        check_same_space(self, other)
        small, big = (self, other) if len(self.terms) <= len(other.terms) else (other, self)
        out: dict[tuple[int, ...], Fraction] = {}
        _add_product(out, small.terms, big.terms)
        return Poly._trusted(self.space, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> Poly:
        c = _as_coeff(c)
        if c == 0:
            return Poly.zero(self.space)
        return Poly._trusted(self.space, {e: _canon(c * v) for e, v in self.terms.items()})

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("negative power")
        result = Poly.one(self.space)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        return isinstance(other, Poly) and self.space == other.space and self.terms == other.terms

    __hash__ = None

    def __bool__(self):
        return bool(self.terms)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def degree_in(self, family: str) -> int:
        off = self.space.offset(family)
        count = self.space.family_count(family)
        return max((sum(e[off:off + count]) for e in self.terms), default=-1)

    def coefficient(self, exp: Iterable[int]) -> int | Fraction:
        return self.terms.get(tuple(exp), 0)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int | Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: term_sort_key(kv[0]))

    def partial(self, family: str, index: int) -> Poly:
        """Exact partial derivative with respect to one variable."""
        return self.partial_pos(self.space.position(family, index))

    def partial_pos(self, pos: int) -> Poly:
        # lowering one exponent is injective, so no two terms collide
        out: dict[tuple[int, ...], Fraction] = {}
        for exp, c in self.terms.items():
            e = exp[pos]
            if e:
                new = list(exp)
                new[pos] = e - 1
                out[tuple(new)] = c if e == 1 else _canon(c * e)
        return Poly._trusted(self.space, out)

    def weight(self) -> Weight:
        """Pure quasi-homogeneous weight of all terms, or non-pure."""
        ws = self.space.weights()
        seen: int | None = None
        for exp in self.terms:
            w = sum(e * wt for e, wt in zip(exp, ws))
            if seen is None:
                seen = w
            elif seen != w:
                return NON_PURE
        return Weight(0 if seen is None else seen)

    # -- substitution and evaluation ----------------------------------------

    def evaluate(self, values: Mapping[str, Iterable]):
        """Evaluate at a point given as {family: sequence of values}.

        Exact when all values are int/Fraction; floats or complexes
        propagate through ordinary numeric promotion.
        """
        point = []
        for fam, count in self.space.families:
            vals = list(values[fam])
            if len(vals) != count:
                raise ValueError(f"family {fam!r} expects {count} values")
            point.extend(vals)
        acc = None
        for exp, c in self.terms.items():
            term = c
            for v, e in zip(point, exp):
                if e:
                    term = term * v ** e
            acc = term if acc is None else acc + term
        return Fraction(0) if acc is None else acc

    def compose(self, target: VarSpace, images: Mapping[tuple[str, int], Poly]) -> Poly:
        """Substitute every variable by its image polynomial over ``target``.

        Variables that occur with nonzero exponent must all have images.
        """
        positions = {}
        for (fam, idx), img in images.items():
            if img.space != target:
                raise ValueError("image polynomials must live in the target space")
            positions[self.space.position(fam, idx)] = img
        power_cache: dict[tuple[int, int], Poly] = {}

        def img_pow(pos: int, e: int) -> Poly:
            key = (pos, e)
            if key not in power_cache:
                power_cache[key] = positions[pos] ** e
            return power_cache[key]

        out: dict[tuple[int, ...], Fraction] = {}
        for exp, c in self.terms.items():
            piece = None
            for pos, e in enumerate(exp):
                if e:
                    if pos not in positions:
                        name = self.space.var_names()[pos]
                        raise KeyError(f"no image supplied for {name}")
                    piece = img_pow(pos, e) if piece is None else piece * img_pow(pos, e)
            if piece is None:
                _accumulate(out, (0,) * target.nvars, c)
            else:
                for img_exp, v in piece.terms.items():
                    _accumulate(out, img_exp, c * v)
        return Poly._trusted(target, out)

    def swap(self, family: str, i: int, j: int) -> Poly:
        """Apply the transposition of variables i and j inside a family."""
        a = self.space.position(family, i)
        b = self.space.position(family, j)
        out: dict[tuple[int, ...], Fraction] = {}
        for exp, c in self.terms.items():
            new = list(exp)
            new[a], new[b] = new[b], new[a]
            out[tuple(new)] = c
        return Poly._trusted(self.space, out)

    def collect(self, family: str) -> dict[tuple[int, ...], Poly]:
        """Group terms by their exponents in one family.

        Returns {family-exponent: coefficient polynomial over the space
        with that family removed}.
        """
        off = self.space.offset(family)
        count = self.space.family_count(family)
        rest_space = self.space.drop(family)
        grouped: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = {}
        for exp, c in self.terms.items():
            fam_exp = exp[off:off + count]
            rest_exp = exp[:off] + exp[off + count:]
            grouped.setdefault(fam_exp, {})[rest_exp] = c
        return {fe: Poly._trusted(rest_space, ts) for fe, ts in grouped.items()}

    def embed(self, space: VarSpace, family: str, fam_exp: tuple[int, ...]) -> Poly:
        """Inverse of collect: re-insert a family exponent block."""
        off = space.offset(family)
        count = space.family_count(family)
        fam_exp = tuple(fam_exp)
        if len(fam_exp) != count or any(e < 0 for e in fam_exp):
            raise ValueError(f"bad {family} exponent block {fam_exp}")
        if space.drop(family) != self.space:
            raise ValueError(f"cannot embed a polynomial over {self.space} into {space}")
        out = {}
        for exp, c in self.terms.items():
            out[exp[:off] + fam_exp + exp[off:]] = c
        return Poly._trusted(space, out)

    # -- display -------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.space.var_names()
        pieces = []
        for exp, c in self.sorted_terms():
            factors = [f"{n}^{e}" if e > 1 else n for n, e in zip(names, exp) if e]
            mono = "*".join(factors)
            if not mono:
                pieces.append(str(c))
            elif c == 1:
                pieces.append(mono)
            elif c == -1:
                pieces.append(f"-{mono}")
            else:
                pieces.append(f"{c}*{mono}")
        text = " + ".join(pieces)
        return text.replace("+ -", "- ")

    def __repr__(self):
        return f"Poly[{self.space}]({self})"
