"""Differential operators in normal form (coefficients left of the partials).

A WeylOp over sigma-space is an element of Q[s_1..s_k]<d/ds_1..d/ds_k>;
over x-space of Q[x_1..x_k]<d/dx_1..d/dx_k>.  The terms dict maps a
partial multi-index beta to its polynomial coefficient a_beta; products
normal-order eagerly through the Leibniz expansion

    d^beta . b = sum_{delta <= beta} binom(beta, delta) (d^delta b) d^(beta-delta)

so structural equality decides operator identity.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Mapping

from .poly import NON_PURE, Poly, Weight, _accumulate, _add_product, term_sort_key
from .spaces import (
    VarSpace,
    check_same_space,
    sigma_eta_space,
    variable_weight,
    x_xi_space,
)

_DIFFERENTIABLE = {"x", "sigma"}


def _carrier_family(space: VarSpace) -> str:
    if len(space.families) == 1 and space.families[0][0] in _DIFFERENTIABLE:
        return space.families[0][0]
    raise ValueError(f"operators need a pure x- or sigma-space, got {space}")


class WeylOp:
    __slots__ = ("space", "terms", "family")

    def __init__(self, space: VarSpace, terms: Mapping[tuple[int, ...], Poly] | None = None):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "family", _carrier_family(space))
        k = space.nvars
        clean: dict[tuple[int, ...], Poly] = {}
        for dexp, coeff in (terms or {}).items():
            dexp = tuple(dexp)
            if len(dexp) != k or any(type(e) is not int or e < 0 for e in dexp):
                raise ValueError(f"bad partial multi-index {dexp}")
            if coeff.space != space:
                raise ValueError("coefficient space must match the operator space")
            if not coeff.is_zero():
                clean[dexp] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("WeylOp is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(space: VarSpace) -> WeylOp:
        return WeylOp(space)

    @staticmethod
    def from_poly(p: Poly) -> WeylOp:
        return WeylOp(p.space, {(0,) * p.space.nvars: p})

    @staticmethod
    def partial(space: VarSpace, index: int, power: int = 1) -> WeylOp:
        k = space.nvars
        if not 1 <= index <= k:
            raise ValueError(f"partial index {index} out of range 1..{k}")
        dexp = [0] * k
        dexp[index - 1] = power
        return WeylOp(space, {tuple(dexp): Poly.one(space)})

    # -- additive structure ----------------------------------------------------

    def __add__(self, other: WeylOp) -> WeylOp:
        check_same_space(self, other)
        out = dict(self.terms)
        for dexp, c in other.terms.items():
            _accumulate(out, dexp, c)
        return WeylOp(self.space, out)

    def __neg__(self) -> WeylOp:
        return WeylOp(self.space, {d: -c for d, c in self.terms.items()})

    def __sub__(self, other: WeylOp) -> WeylOp:
        return self + (-other)

    def scale(self, c) -> WeylOp:
        return WeylOp(self.space, {d: p.scale(c) for d, p in self.terms.items()})

    def left_mul_poly(self, p: Poly) -> WeylOp:
        return WeylOp(self.space, {d: p * c for d, c in self.terms.items()})

    # -- the normal-ordered product ---------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        check_same_space(self, other)
        space = self.space
        out: dict[tuple[int, ...], dict] = {}
        for beta, a in self.terms.items():
            for gamma, b in other.terms.items():
                for delta, db, mult in _leibniz_fan(b, beta):
                    dexp = tuple(bi - di + gi for bi, di, gi in zip(beta, delta, gamma))
                    _add_product(out.setdefault(dexp, {}), a.terms, db.terms, mult)
        return WeylOp(space, {d: Poly._trusted(space, ts) for d, ts in out.items() if ts})

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, Poly):
            return self.left_mul_poly(other)
        return NotImplemented

    def commutator(self, other: WeylOp) -> WeylOp:
        return self * other - other * self

    def apply(self, f: Poly, derivs: dict | None = None) -> Poly:
        """Act on a polynomial: sum_beta a_beta * d^beta f.

        Derivatives are memoised by multi-index, each one taken from its
        prefix with one partial fewer, so terms share their chains.  Pass
        the same `derivs` dict (empty at first) to every operator applied
        to one f and they share the memo too.
        """
        if f.space != self.space:
            raise ValueError(f"operand space {f.space} differs from operator space {self.space}")
        derivs = {} if derivs is None else derivs
        if derivs.setdefault((0,) * self.space.nvars, f) is not f:
            raise ValueError("the derivative memo belongs to another polynomial")

        def deriv(beta: tuple[int, ...]) -> Poly:
            g = derivs.get(beta)
            if g is None:
                pos = max(i for i, e in enumerate(beta) if e)
                g = deriv(beta[:pos] + (beta[pos] - 1,) + beta[pos + 1:])
                if g:
                    g = g.partial_pos(pos)
                derivs[beta] = g
            return g

        out: dict[tuple[int, ...], Fraction] = {}
        for beta, a in self.terms.items():
            _add_product(out, a.terms, deriv(beta).terms)
        return Poly._trusted(self.space, out)

    # -- structure ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def order(self) -> int:
        """Highest total partial degree; -1 for the zero operator."""
        return max((sum(d) for d in self.terms), default=-1)

    def __eq__(self, other):
        return isinstance(other, WeylOp) and self.space == other.space and self.terms == other.terms

    __hash__ = None

    def symbol(self) -> Poly:
        """Top-order part as a polynomial on the cotangent space.

        d/ds_h maps to eta_h (sigma-space) and d/dx_i to xi_i (x-space).
        """
        if self.is_zero():
            raise ValueError("the zero operator has no symbol")
        d = self.order()
        k = self.space.nvars
        target = sigma_eta_space(k) if self.family == "sigma" else x_xi_space(k)
        terms = {}
        for beta, a in self.terms.items():
            if sum(beta) != d:
                continue
            for exp, c in a.terms.items():
                terms[exp + beta] = c
        return Poly._trusted(target, terms)

    def weight(self) -> Weight:
        dweights = [-variable_weight(self.family, i) for i in range(1, self.space.nvars + 1)]
        ws = self.space.weights()
        seen: int | None = None
        for beta, a in self.terms.items():
            base = sum(b * w for b, w in zip(beta, dweights))
            for exp in a.terms:
                w = base + sum(e * wt for e, wt in zip(exp, ws))
                if seen is None:
                    seen = w
                elif seen != w:
                    return NON_PURE
        return Weight(0 if seen is None else seen)

    def swap(self, i: int, j: int) -> WeylOp:
        """Apply the coordinate transposition (i j) to coefficients and partials."""
        out: dict[tuple[int, ...], Poly] = {}
        for dexp, c in self.terms.items():
            d = list(dexp)
            d[i - 1], d[j - 1] = d[j - 1], d[i - 1]
            out[tuple(d)] = c.swap(self.family, i, j)
        return WeylOp(self.space, out)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Poly]]:
        return sorted(self.terms.items(), key=lambda kv: term_sort_key(kv[0]))

    def coefficient(self, dexp) -> Poly:
        return self.terms.get(tuple(dexp), Poly.zero(self.space))

    def __str__(self):
        if not self.terms:
            return "0"
        prefix = "dx" if self.family == "x" else "ds"
        pieces = []
        for dexp, c in self.sorted_terms():
            dpart = "*".join(
                f"{prefix}{i+1}^{e}" if e > 1 else f"{prefix}{i+1}"
                for i, e in enumerate(dexp) if e
            )
            cs = str(c)
            if len(c.terms) > 1:
                cs = f"({cs})"
            if not dpart:
                pieces.append(cs)
            elif cs == "1":
                pieces.append(dpart)
            else:
                pieces.append(f"{cs}*{dpart}")
        return " + ".join(pieces)

    def __repr__(self):
        return f"WeylOp[{self.space}]({self})"


def _leibniz_fan(b: Poly, beta: tuple[int, ...]):
    """Yield (delta, d^delta b, multi-binomial(beta, delta)) for nonzero derivatives."""
    results = [((0,) * len(beta), b, 1)]
    for pos, bound in enumerate(beta):
        if not bound:
            continue
        grown = []
        for delta, g, mult in results:
            grown.append((delta, g, mult))
            gg = g
            for d in range(1, bound + 1):
                gg = gg.partial_pos(pos)
                if gg.is_zero():
                    break
                new = list(delta)
                new[pos] = d
                grown.append((tuple(new), gg, mult * comb(beta[pos], d)))
        results = grown
    yield from results
