"""Differential operators in normal form (coefficients left of the partials).

A WeylOp over sigma-space is an element of Q[s_1..s_k]<d/ds_1..d/ds_k>;
over x-space of Q[x_1..x_k]<d/dx_1..d/dx_k>.  It is stored as its full
symbol: one Poly over (sigma, eta) or (x, xi) in which a_beta d^beta is
the term a_beta eta^beta (xi^beta over x).  Sums, scalings, equality,
weights and swaps are those of the polynomial, and the order is its
degree in the dual family.  Products normal-order eagerly through the
composition formula for normally ordered symbols,

    sigma(A . B) = sum_delta (1/delta!) d_eta^delta sigma(A) . d_s^delta sigma(B)

with delta! = prod_h delta_h! and d_s^delta acting on the coefficient
variables only.  ``Poly.divided_partial`` takes (1/delta!) d_eta^delta
in one walk over sigma(A) with no Fraction: a_beta eta^beta becomes
binom(beta, delta) a_beta eta^(beta-delta), the binomials of the Leibniz
rule.  The fan of delta is bounded by ``Poly.exponent_bound`` of both
factors, of B's sigma (x) and A's eta (xi) exponents; inside it the
nonzero d_s^delta sigma(B) are found once per product, through the
derivative memo that ``apply`` uses too, and only those delta enter the sum.
Structural equality decides operator identity.  ``of_symbol`` is the one
constructor, and ``sorted_terms`` the nested view [(beta, a_beta)].
Every operation goes through the Poly API, so no term dict is built here.
"""

from __future__ import annotations

from fractions import Fraction
from operator import gt
from typing import Iterable

from .poly import Poly, _is_exponent, term_sort_key
from .spaces import VarSpace, check_space, sigma_eta_space, sigma_space, x_space, x_xi_space

_DUAL = {"x": "xi", "sigma": "eta"}


def _carrier(space: VarSpace) -> tuple[str, VarSpace]:
    if len(space.families) == 1 and (family := space.families[0][0]) in _DUAL:
        return family, (sigma_eta_space if family == "sigma" else x_xi_space)(space.nvars)
    raise ValueError(f"operators need a pure x- or sigma-space, got {space}")


def _derivative(derivs: dict, beta: tuple[int, ...]) -> Poly:
    """d^beta of the polynomial stored under the zero index of derivs.

    Each derivative is taken from its prefix with one partial fewer and
    memoised in derivs, so the derivatives of one polynomial share their
    chains; the chain down to the nearest memoised prefix is walked in a
    loop, so its length costs no stack depth.  Positions run over the
    first len(beta) variables.  A beta past ``Poly.exponent_bound`` of
    the first family, at least the degree in each variable, gives zero at
    once, without a chain; that bound is memoised in derivs under None.
    """
    g = derivs.get(beta)
    if g is None:
        f = derivs[(0,) * len(beta)]
        if None not in derivs:
            derivs[None] = f.exponent_bound(f.space.families[0][0])
        if any(map(gt, beta, derivs[None])):
            derivs[beta] = Poly.zero(f.space)
            return derivs[beta]
    chain = []
    while g is None:
        pos = max(i for i, e in enumerate(beta) if e)
        chain.append((beta, pos))
        beta = beta[:pos] + (beta[pos] - 1,) + beta[pos + 1:]
        g = derivs.get(beta)
    for beta, pos in reversed(chain):
        if g:
            g = g.partial_pos(pos)
        derivs[beta] = g
    return g


class WeylOp:
    __slots__ = ("space", "family", "poly", "_blocks")

    def __setattr__(self, name, value):
        raise AttributeError("WeylOp is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def of_symbol(p: Poly) -> WeylOp:
        """The operator whose full symbol is p: each term a eta^beta
        (a xi^beta) becomes a d^beta with the coefficient on the left."""
        (family, k), *dual = p.space.families
        if family not in _DUAL or dual != [(_DUAL[family], k)]:
            raise ValueError(f"expected a polynomial over a (sigma, eta) or (x, xi) space, got {p.space}")
        op = object.__new__(WeylOp)
        object.__setattr__(op, "space", sigma_space(k) if family == "sigma" else x_space(k))
        object.__setattr__(op, "family", family)
        object.__setattr__(op, "poly", p)
        return op

    @staticmethod
    def sum(space: VarSpace, ops: Iterable[WeylOp]) -> WeylOp:
        """The sum of the operators, all over space: the Poly.sum of their full symbols."""
        return WeylOp.of_symbol(Poly.sum(_carrier(space)[1], (op.poly for op in ops)))

    @staticmethod
    def from_poly(p: Poly) -> WeylOp:
        family, dual = _carrier(p.space)
        return WeylOp.of_symbol(p.embed(dual, _DUAL[family], (0,) * p.space.nvars))

    @staticmethod
    def partial(space: VarSpace, index: int, power: int = 1) -> WeylOp:
        k = space.nvars
        if not 1 <= index <= k:
            raise ValueError(f"partial index {index} out of range 1..{k}")
        dual = _carrier(space)[1]
        dexp = (0,) * (index - 1) + (power,) + (0,) * (k - index)
        if not _is_exponent(dexp, k):
            raise ValueError(f"bad partial multi-index {dexp}")
        return WeylOp.of_symbol(Poly.monomial(dual, (0,) * k + dexp))

    # -- additive structure ----------------------------------------------------

    def __add__(self, other: WeylOp) -> WeylOp:
        if not isinstance(other, WeylOp):
            return NotImplemented
        check_space(other, self.space)
        return WeylOp.of_symbol(self.poly + other.poly)

    def __neg__(self) -> WeylOp:
        return WeylOp.of_symbol(-self.poly)

    def __sub__(self, other: WeylOp) -> WeylOp:
        if not isinstance(other, WeylOp):
            return NotImplemented
        check_space(other, self.space)
        return WeylOp.of_symbol(self.poly - other.poly)

    def scale(self, c) -> WeylOp:
        return WeylOp.of_symbol(self.poly.scale(c))

    def left_mul_poly(self, p: Poly) -> WeylOp:
        return WeylOp.of_symbol(p.embed(self.poly.space, _DUAL[self.family], (0,) * p.space.nvars) * self.poly)

    # -- the normal-ordered product ---------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, WeylOp):
            return NotImplemented
        check_space(other, self.space)
        k = self.space.nvars
        zero = (0,) * k
        derivs = {zero: other.poly, None: other.poly.exponent_bound(self.family)}
        # the delta with d_s^delta B nonzero within both bounds, grown from 0 one partial at a time
        reach = tuple(map(min, derivs[None], self.poly.exponent_bound(_DUAL[self.family])))
        fan = [zero]
        for delta in fan:
            for pos in range(k):
                if delta[pos] + 1 <= reach[pos]:
                    up = delta[:pos] + (delta[pos] + 1,) + delta[pos + 1:]
                    if up not in derivs and _derivative(derivs, up):
                        fan.append(up)
        return WeylOp.of_symbol(Poly.sum_of_products(self.poly.space, (
            (self.poly.divided_partial(_DUAL[self.family], delta), derivs[delta], 1) for delta in fan)))

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

        Pass the same `derivs` dict (empty at first) to every operator
        applied to one f and they share the derivative memo.  The first
        call groups the symbol by beta and keeps the grouping, since an
        operator is applied to a whole family of f; an operator that is
        never applied keeps none.
        """
        check_space(f, self.space)
        derivs = {} if derivs is None else derivs
        if derivs.setdefault((0,) * self.space.nvars, f) is not f:
            raise ValueError("the derivative memo belongs to another polynomial")
        if not hasattr(self, "_blocks"):
            object.__setattr__(self, "_blocks", self.poly.collect(_DUAL[self.family]))
        return Poly.sum_of_products(self.space, (
            (a, d, 1) for beta, a in self._blocks.items() if (d := _derivative(derivs, beta))))

    # -- structure ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def order(self) -> int:
        """Highest total partial degree; -1 for the zero operator."""
        return self.poly.degree_in(_DUAL[self.family])

    def __eq__(self, other):
        return isinstance(other, WeylOp) and self.space is other.space and self.poly == other.poly

    __hash__ = None

    def symbol(self) -> Poly:
        """Top-order part as a polynomial on the cotangent space.

        d/ds_h maps to eta_h (sigma-space) and d/dx_i to xi_i (x-space).
        """
        if self.is_zero():
            raise ValueError("the zero operator has no symbol")
        return self.poly.homogeneous_part(_DUAL[self.family], self.order())

    def weight(self) -> int | None:
        return self.poly.weight()

    def swap(self, i: int, j: int) -> WeylOp:
        """Apply the coordinate transposition (i j) to coefficients and partials."""
        return WeylOp.of_symbol(self.poly.swap(self.family, i, j).swap(_DUAL[self.family], i, j))

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Poly]]:
        return sorted(self.poly.collect(_DUAL[self.family]).items(), key=lambda kv: term_sort_key(kv[0]))

    @property
    def terms(self) -> dict[tuple[int, ...], Poly]:
        """{beta: a_beta}, the nested view as a dict; the benchmark's tracer counts its entries."""
        return dict(self.sorted_terms())

    def __str__(self):
        if self.is_zero():
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
