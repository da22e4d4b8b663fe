"""Multivariate polynomials over exact rationals.

Terms live in a dict mapping packed exponent keys to nonzero
coefficients.  A key is one int: the exponents of the n variables of
the carrying VarSpace in canonical order, BITS bits each with the first
highest, under the total degree:

    key = deg << BITS*n | e_1 << BITS*(n-1) | ... | e_n

A monomial product is one int addition, lowering an exponent one
subtraction, and descending int order is the graded-lex order of
``term_sort_key``.  The overflow guard: a stored key has degree at most
MAX_DEGREE = 2^(BITS-1) - 1, so a sum of two keys carries out of no
field, and the validated constructor, ``embed`` and ``sum_of_products``
refuse a higher degree with a ValueError.  Only this module packs and
decodes keys; exponent tuples stay at its edges: the validated
constructor, ``coefficient``, ``sorted_terms`` (which serialization and
display read), ``evaluate`` and ``exponent_bound``.

Every stored coefficient has one canonical form: a nonzero int, or a
Fraction with denominator > 1.  Most coefficients in the kernel are
integral, and int arithmetic pays no gcd; ``_canon`` demotes an
integral Fraction to its numerator wherever one can arise.  No method
mutates ``terms`` after construction, so polynomials can be shared.

Polynomials are built and summed in one way each:

- ``Poly(space, terms)`` is the validated public constructor over
  exponent tuples.  It converts coefficients to canonical form, drops
  zeros and rejects exponents of the wrong length, with an entry that is
  not a non-negative int (bools included), or above MAX_DEGREE in total.
  Input from outside the kernel goes through it.
- ``Poly._trusted(space, terms)`` stores an already-clean dict of keys
  as it is: the ring operations build such dicts and wrap them with it.
- ``Poly.sum(space, pieces)`` is the one way to sum polynomials, and
  ``Poly.sum_of_products(space, triples)`` the one way to sum products
  c * a * b.  Both stream: the pieces are drawn one at a time and
  accumulate into one running dict, storing each sum in canonical form
  and dropping a key whose sum cancels.  ``a + b`` and ``a * b`` are
  their smallest cases, and ``compose`` and ``weyl`` are built on them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from math import comb
from operator import mul, neg, or_
from struct import Struct
from typing import Iterable, Mapping

from .spaces import VarSpace, check_space

BITS = 16  # one big-endian struct word ("H") per field, see _codec
MAX_DEGREE = (1 << BITS - 1) - 1
_MASK = (1 << BITS) - 1


@cache
def _codec(n: int) -> Struct:
    """n exponent fields as big-endian 16-bit words under one skipped word,
    where a key holds its degree."""
    return Struct(f">2x{n}H")


def _key(exp: tuple[int, ...]) -> int:
    """The packed key of a valid exponent tuple (of a block, under its degree)."""
    return sum(exp) << BITS * len(exp) | int.from_bytes(_codec(len(exp)).pack(*exp), "big")


def _fields(keys: Iterable[int], n: int) -> list[tuple[int, ...]]:
    """The exponent tuples of keys of n variables, or of blocks of n fields."""
    codec = _codec(n)
    unpack, size = codec.unpack, codec.size
    return [unpack(key.to_bytes(size, "big")) for key in keys]


def _canon(c):
    """The canonical form of a coefficient: an integral Fraction becomes
    its numerator; ints, other Fractions and Poly values pass through."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _as_coeff(c) -> int | Fraction:
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return _canon(c)
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"coefficients must be exact rationals, got {type(c).__name__}")


def _is_exponent(exp: tuple, n: int) -> bool:
    """exp has n entries, non-negative ints (bools refused) of total at most MAX_DEGREE."""
    return len(exp) == n and {*map(type, exp)} <= {int} and min(exp, default=0) >= 0 and sum(exp) <= MAX_DEGREE


def _checked(space: VarSpace, out: dict) -> Poly:
    """Wrap a clean dict of keys whose fields did not carry, refusing it
    where its degree leaves no guard bit for the next product."""
    if out and max(out) >> BITS * space.nvars > MAX_DEGREE:
        raise ValueError(f"total degree {max(out) >> BITS * space.nvars} exceeds {MAX_DEGREE}, "
                         "the most a packed exponent key holds")
    return Poly._trusted(space, out)


def _block(space: VarSpace, family: str) -> tuple[int, int, int]:
    """For a family of space: its variable count, the bits of the fields
    after it, and the bits of its own fields."""
    count = space.family_count(family)
    return count, BITS * (space.nvars - space.offset(family) - count), BITS * count


def term_sort_key(exp: tuple[int, ...]):
    """Graded-lex, largest first: sort ascending by this key."""
    return (-sum(exp), tuple(map(neg, exp)))


class Poly:
    __slots__ = ("space", "terms")

    def __init__(self, space: VarSpace, terms: Mapping[tuple[int, ...], Fraction] | None = None):
        object.__setattr__(self, "space", space)
        clean: dict[int, int | Fraction] = {}
        n = space.nvars
        pack, top = _codec(n).pack, BITS * n
        for exp, coeff in (terms or {}).items():
            c = _as_coeff(coeff)
            if c == 0:
                continue
            exp = tuple(exp)
            if not _is_exponent(exp, n):
                raise ValueError(f"bad exponent {exp} for space {space} (total at most {MAX_DEGREE})")
            clean[sum(exp) << top | int.from_bytes(pack(*exp), "big")] = c  # _key, inlined
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def _trusted(space: VarSpace, terms: dict[int, int | Fraction]) -> Poly:
        """Wrap a clean dict of packed keys as it is, without copying or checking it."""
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
        out: dict[int, int | Fraction] = {}
        for p in pieces:
            if p.space is not space:
                check_space(p, space)
            terms = p.terms
            if len(terms) > len(out):
                out, terms = dict(terms), out
            get = out.get
            for key, c in terms.items():
                s = get(key)
                if s is None:
                    out[key] = c
                elif s := s + c:
                    out[key] = s if type(s) is int else _canon(s)
                else:
                    del out[key]
        return Poly._trusted(space, out)

    @staticmethod
    def sum_of_products(space: VarSpace, triples: Iterable[tuple[Poly, Poly, int | Fraction]]) -> Poly:
        """The sum of c * a * b over the triples (a, b, c), every factor
        over space; zero when there are none.

        Each product accumulates into one running dict, with the factor
        of fewer terms walked in the outer loop; a unit coefficient there
        skips its multiplication.  Triples are drawn one at a time and
        none is kept.  A monomial product is the sum of the two keys.
        """
        out: dict[int, int | Fraction] = {}
        get = out.get
        for a, b, c in triples:
            if not a.space is space is b.space:
                check_space(a, space)
                check_space(b, space)
            c = _as_coeff(c)
            if c:
                small, big = (a, b) if len(a.terms) <= len(b.terms) else (b, a)
                big = big.terms.items()
                for k1, c1 in small.terms.items():
                    if c != 1:
                        c1 = c1 * c
                    unit = c1 == 1
                    for k2, c2 in big:
                        key = k1 + k2
                        if not unit:
                            c2 = c1 * c2
                        s = get(key)
                        if s is None:
                            out[key] = c2 if type(c2) is int else _canon(c2)
                        elif s := s + c2:
                            out[key] = s if type(s) is int else _canon(s)
                        else:
                            del out[key]
        return _checked(space, out)

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
        return Poly.sum_of_products(self.space, ((self, other, 1),))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> Poly:
        c = _as_coeff(c)
        if c == 0:
            return Poly.zero(self.space)
        if c == 1:
            return self
        p, q = c.numerator, c.denominator  # an int v becomes v*p // q where q divides v*p
        out: dict[int, int | Fraction] = {}
        for e, v in self.terms.items():
            n, r = divmod(v * p, q) if type(v) is int else (_canon(c * v), 0)
            out[e] = Fraction(v * p, q) if r else n
        return Poly._trusted(self.space, out)

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
        return isinstance(other, Poly) and self.space is other.space and self.terms == other.terms

    __hash__ = None

    def __bool__(self):
        return bool(self.terms)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree_in(self, family: str) -> int:
        count, low, width = _block(self.space, family)
        return max(map(sum, _fields({key >> low & ((1 << width) - 1) for key in self.terms}, count)), default=-1)

    def homogeneous_part(self, family: str, d: int) -> Poly:
        """The terms of degree d in one family, in one pass over the keys: a
        block's degree is its value mod 2^BITS - 1, where each field weighs 1
        and the degree, at most MAX_DEGREE, is below the modulus."""
        _, low, width = _block(self.space, family)
        mask = (1 << width) - 1
        return Poly._trusted(self.space, {key: c for key, c in self.terms.items() if (key >> low & mask) % _MASK == d})

    def exponent_bound(self, family: str) -> tuple[int, ...]:
        """A bound on each exponent of one family: the fields of the OR of the keys."""
        count, low, width = _block(self.space, family)
        return _fields([reduce(or_, self.terms, 0) >> low & (1 << width) - 1], count)[0]

    def coefficient(self, exp: Iterable[int]) -> int | Fraction:
        exp = tuple(exp)
        return self.terms.get(_key(exp), 0) if _is_exponent(exp, self.space.nvars) else 0

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int | Fraction]]:
        keys = sorted(self.terms, reverse=True)
        return list(zip(_fields(keys, self.space.nvars), map(self.terms.__getitem__, keys)))

    def partial(self, family: str, index: int) -> Poly:
        """Exact partial derivative with respect to one variable."""
        return self.partial_pos(self.space.position(family, index))

    def partial_pos(self, pos: int) -> Poly:
        # lowering one exponent is injective, so no two terms collide
        shift = BITS * (self.space.nvars - 1 - pos)
        unit = (1 << BITS * self.space.nvars) + (1 << shift)
        out: dict[int, int | Fraction] = {}
        for key, c in self.terms.items():
            e = key >> shift & _MASK
            if e:
                out[key - unit] = c if e == 1 else _canon(c * e)
        return Poly._trusted(self.space, out)

    def divided_partial(self, family: str, delta: Iterable[int]) -> Poly:
        """(1/delta!) d^delta along one family, delta its exponent block: each
        term c x^e becomes binom(e, delta) c x^(e - delta), int for an int c."""
        count, low, width = _block(self.space, family)
        if not _is_exponent(delta := tuple(delta), count):
            raise ValueError(f"bad {family} exponent block {delta}")
        fields = [(low + BITS * (count - 1 - i), d) for i, d in enumerate(delta) if d]
        if not fields:
            return self
        drop = ((_key(delta) & (1 << width) - 1) << low) + (sum(delta) << BITS * self.space.nvars)
        out: dict[int, int | Fraction] = {}
        for key, c in self.terms.items():
            b = 1
            for shift, d in fields:
                if (e := key >> shift & _MASK) < d:
                    break
                b *= comb(e, d)
            else:  # lowering by delta is injective, so no two terms collide
                out[key - drop] = c * b if type(c) is int else _canon(c * b)
        return Poly._trusted(self.space, out)

    def weight(self) -> int | None:
        """The quasi-homogeneous weight shared by all terms (0 for zero), or
        None where the terms differ (non-pure)."""
        ws = self.space.weights()
        seen = {sum(map(mul, exp, ws)) for exp in _fields(self.terms, self.space.nvars)}
        if len(seen) > 1:
            return None
        return seen.pop() if seen else 0

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
        for exp, c in zip(_fields(self.terms, self.space.nvars), self.terms.values()):
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
            check_space(img, target)
            positions[self.space.position(fam, idx)] = img
        power_cache: dict[tuple[int, int], Poly] = {}

        def img_pow(pos: int, e: int) -> Poly:
            key = (pos, e)
            if key not in power_cache:
                if pos not in positions:
                    raise KeyError(f"no image supplied for {self.space.var_names()[pos]}")
                power_cache[key] = positions[pos] ** e
            return power_cache[key]

        one = Poly.one(target)

        def triples():
            # c times the image powers of exp, the last power as the second factor
            for exp, c in zip(_fields(self.terms, self.space.nvars), self.terms.values()):
                *head, last = [img_pow(pos, e) for pos, e in enumerate(exp) if e] or [one]
                yield (reduce(mul, head) if head else one), last, c

        return Poly.sum_of_products(target, triples())

    def swap(self, family: str, i: int, j: int) -> Poly:
        """Apply the transposition of variables i and j inside a family."""
        n = self.space.nvars
        sa = BITS * (n - 1 - self.space.position(family, i))
        sb = BITS * (n - 1 - self.space.position(family, j))
        out: dict[int, int | Fraction] = {}
        for key, c in self.terms.items():
            d = (key >> sa & _MASK) - (key >> sb & _MASK)
            out[key - (d << sa) + (d << sb)] = c
        return Poly._trusted(self.space, out)

    def collect(self, family: str) -> dict[tuple[int, ...], Poly]:
        """Group terms by their exponents in one family.

        Returns {family-exponent: coefficient polynomial over the space
        with that family removed}.  A key over that space keeps the
        fields below the block, takes those above it one block width
        lower, and the block's degree comes off its top field.
        """
        count, low, width = _block(self.space, family)
        below, block_mask = (1 << low) - 1, (1 << width) - 1
        rest_space = self.space.drop(family)
        grouped: dict[int, tuple[dict, int]] = {}  # block -> (rest terms, the block's degree in place)
        for key, c in self.terms.items():
            block = key >> low & block_mask
            group = grouped.get(block)
            if group is None:
                group = grouped[block] = ({}, sum(_fields([block], count)[0]) << BITS * rest_space.nvars)
            group[0][(key >> low + width << low) + (key & below) - group[1]] = c
        return dict(zip(_fields(grouped, count), (Poly._trusted(rest_space, ts) for ts, _ in grouped.values())))

    def embed(self, space: VarSpace, family: str, fam_exp: tuple[int, ...]) -> Poly:
        """Inverse of collect: re-insert a family exponent block."""
        count, low, width = _block(space, family)
        fam_exp = tuple(fam_exp)
        if not _is_exponent(fam_exp, count):
            raise ValueError(f"bad {family} exponent block {fam_exp}")
        check_space(self, space.drop(family))
        below = (1 << low) - 1
        block = ((_key(fam_exp) & (1 << width) - 1) << low) + (sum(fam_exp) << BITS * space.nvars)
        return _checked(space, {(key >> low << low + width) + (key & below) + block: c
                                for key, c in self.terms.items()})

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
