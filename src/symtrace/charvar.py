"""Symbol-level geometry of the annihilator system.

The symbols of the system generate the ideal of 2x2 minors of the
(k, 2) matrix with rows (eta_1, -l), (eta_2, eta_1), .., (eta_k,
eta_{k-1}) where l = sum_h s_h eta_h.  This module provides the minors
and the one table naming the generator each minor is the symbol of,
the constructive decomposition of a polynomial in the minors, an
independent chart check of vanishing on the variety cut out by the
minors (via its rational parametrization), and exact sampled points of
the variety.  The rewriting of eta_i eta_j through the minors is one
descent step on that product alone.

The decomposition is also the decision.  The descent leaves
f = eta_k^(d-1) r modulo the minors, with r linear in eta.  On the
variety eta_k = 0 forces eta = 0, so f vanishes there exactly when r
does.  The chart sends eta_h to t^(k-h), where t is a root of the
generic degree-k polynomial; 1, t, .., t^(k-1) are independent over
Q(s), so a nonzero r does not vanish.  Hence f vanishes on the variety
exactly when the descent ends at r = 0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from types import MappingProxyType
from typing import Mapping

from .annihilators import A_ID, FAMILIES
from .poly import Poly
from .spaces import VarSpace, check_space, sigma_eta_space
from .symfun import char_poly, horner, theta


class NotOnVarietyError(ValueError):
    """Polynomial does not vanish on the characteristic variety."""


MinorId = tuple[int, int]


def _eta(k: int, h: int) -> Poly:
    return Poly.variable(sigma_eta_space(k), "eta", h)


def _l_sigma(k: int) -> Poly:
    """l(s, eta) = sum_h s_h eta_h."""
    space = sigma_eta_space(k)
    return Poly.sum(space, (Poly.variable(space, "sigma", h) * _eta(k, h) for h in range(1, k + 1)))


@cache
def minors(k: int) -> Mapping[MinorId, Poly]:
    """All k(k-1)/2 minors m_(i,j) = eta_i eta_{j-1} - eta_{i-1} eta_j,
    with the row-1 convention that the eta_0 slot holds -l(s, eta),
    as a read-only mapping (i, j) -> m_(i,j) in row-major order."""
    if k < 2:
        raise ValueError("minors need k >= 2")
    out: dict[MinorId, Poly] = {}
    l = _l_sigma(k)
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            if i == 1:
                out[i, j] = _eta(k, 1) * _eta(k, j - 1) + l * _eta(k, j)
            else:
                out[i, j] = _eta(k, i) * _eta(k, j - 1) - _eta(k, i - 1) * _eta(k, j)
    return MappingProxyType(out)


def minor_generator(mid: MinorId) -> tuple[str, int]:
    """The trace generator whose symbol is the minor, and the sign:
    m_(1,j) is the symbol of T(j), m_(i,j) for i >= 2 that of -A(i-1,j,1)."""
    i, j = mid
    return (FAMILIES["newton"].t_id.format(m=j), 1) if i == 1 else (A_ID.format(p=i - 1, q=j), -1)


def rewrite_eta_product(k: int, i: int, j: int) -> tuple[dict[MinorId, Poly], Poly]:
    """Write eta_i eta_j = sum_a u_a m_a + eta_k v with u_a in Q[s] and v
    of eta-degree <= 1: one descent step on the product alone.

    Returns (u as {minor-id: eta-free Poly}, v), both over (sigma, eta).
    """
    if not (1 <= i <= k and 1 <= j <= k):
        raise ValueError("indices out of range")
    return _descent_step((_eta(k, i) * _eta(k, j)).collect("eta"), k)


def _descent_step(blocks: dict[tuple[int, ...], Poly], k: int) -> tuple[dict[MinorId, Poly], Poly]:
    """u and v with g = sum_a u_a m_a + eta_k v, for g given as its
    eta-blocks g.collect("eta"), each of eta-degree >= 2.

    Each block is eta_i eta_j w, with eta_i its first eta factor and
    eta_j its second, or eta_k if it has one; it joins pair (i, j).  The
    sum W of all that reached a pair is rewritten by

        eta_i eta_j W = m_(i,j+1) W + eta_{i-1} eta_{j+1} W          (2 <= i <= j < k)
        eta_1 eta_j W = m_(1,j+1) W - sum_p s_p eta_p eta_{j+1} W     (j < k)
        eta_i eta_k W = eta_k eta_i W

    Every rule raises j and only pair (i, j) reaches m_(i,j+1), so with
    the pairs taken in order of j each W is final when taken, and it is
    only ever multiplied by a variable.
    """
    se = sigma_eta_space(k)
    one = Poly.one(se)
    pairs: dict[tuple[int, int], list[tuple[Poly, Poly, int]]] = {}  # the product triples of each W
    for e, c in blocks.items():
        low = list(e)
        i = next(h for h in range(k) if low[h])
        low[i] -= 1
        j = k - 1 if e[-1] else next(h for h in range(k) if low[h])
        low[j] -= 1
        pairs.setdefault((i + 1, j + 1), []).append((c.embed(se, "eta", low), one, 1))
    u: dict[MinorId, Poly] = {}
    vs = []
    for j in range(1, k + 1):
        for i in range(1, j + 1):
            w = Poly.sum_of_products(se, pairs.pop((i, j), ()))
            if not w:
                continue
            if j == k:
                vs.append((_eta(k, i), w, 1))
                continue
            u[i, j + 1] = w
            # the eta_0 slot of row 1 holds -l
            lower = [(i - 1, one, 1)] if i > 1 else [(p, Poly.variable(se, "sigma", p), -1) for p in range(1, k + 1)]
            for p, s, c in lower:
                pairs.setdefault((min(p, j + 1), max(p, j + 1)), []).append((s, w, c))
    return u, Poly.sum_of_products(se, vs)


def recombine(k: int, coeffs: dict[MinorId, Poly]) -> Poly:
    """sum_a c_a m_a with coefficients over (sigma, eta)."""
    ms = minors(k)
    return Poly.sum_of_products(sigma_eta_space(k), ((c, ms[mid], 1) for mid, c in coeffs.items()))


def _chart_space(k: int) -> VarSpace:
    return VarSpace((("sigma", k - 1), ("t", 1))) if k >= 2 else VarSpace((("t", 1),))


def vanishes_on_Z(f: Poly, k: int) -> bool:
    """Decide identical vanishing on the variety of the minors.

    Each eta-homogeneous part is pulled back through the dense chart of
    the rational parametrization: eta_h -> t^(k-h) and s_k eliminated by
    the hypersurface relation s_k = -(t^k + sum_{h<k} s_h t^(k-h)).
    Homogeneity in eta makes the chart decisive for each part.

    This is the independent chart check against which the descent of
    `decompose_in_minors` is tested; no runtime path calls it.
    """
    check_space(f, sigma_eta_space(k))
    target = _chart_space(k)
    t = Poly.variable(target, "t")
    sk_image = -(t ** k)
    for h in range(1, k):
        sk_image = sk_image - Poly.variable(target, "sigma", h) * t ** (k - h)
    images = {("sigma", k): sk_image}
    for h in range(1, k):
        images[("sigma", h)] = Poly.variable(target, "sigma", h)
    for h in range(1, k + 1):
        images[("eta", h)] = t ** (k - h)
    for d in range(f.degree_in("eta") + 1):
        if not f.homogeneous_part("eta", d).compose(target, images).is_zero():
            return False
    return True


def decompose_in_minors(f: Poly, k: int) -> dict[MinorId, Poly]:
    """Express an eta-homogeneous polynomial vanishing on the variety as
    an exact combination of the minors, or raise NotOnVarietyError.

    Follows the constructive descent: split off the eta_k-free part,
    rewrite its eta_i eta_j factors through the minors, divide the rest
    by eta_k, and repeat on the lower-degree cofactor.  The descent
    alone decides: it ends at a cofactor r of eta-degree <= 1 with
    f = eta_k^(d-1) r modulo the minors, and the chart eta_h = t^(k-h)
    sends a nonzero r to a nonzero combination of 1, t, .., t^(k-1),
    which are independent over Q(s); so f vanishes on the variety
    exactly when r = 0 (see the module docstring).  The recombination
    is asserted exact.
    """
    check_space(f, sigma_eta_space(k))
    blocks = f.collect("eta")
    degrees = {sum(e) for e in blocks}
    if len(degrees) > 1:
        raise ValueError("input must be homogeneous in eta")
    if degrees and max(degrees) <= 1:
        raise NotOnVarietyError(
            "eta-degree <= 1 polynomials vanish on the variety only when zero"
        )
    coeffs = _descend(blocks, k)
    if recombine(k, coeffs) != f:
        raise AssertionError("minor decomposition failed to recombine")
    return coeffs


def _descend(blocks: dict[tuple[int, ...], Poly], k: int) -> dict[MinorId, Poly]:
    """The minor coefficients of an eta-homogeneous f, given as its eta-blocks f.collect("eta")."""
    se = sigma_eta_space(k)
    # the (u_a, eta_k^level, 1) product triples of each minor coefficient, one per level
    factors: dict[MinorId, list[tuple[Poly, Poly, int]]] = {}
    # f = eta_k^level * g modulo the minors, with blocks = g.collect("eta") and
    # the triples of the levels above in factors
    level, d = 0, max(map(sum, blocks), default=-1)
    while blocks:
        if d <= 1:
            # a nonzero eta-linear cofactor does not vanish on the variety
            raise NotOnVarietyError("polynomial does not vanish on the variety")
        u, g = _descent_step(blocks, k)
        lift = _eta(k, k) ** level
        for mid, c in u.items():
            factors.setdefault(mid, []).append((c, lift, 1))
        blocks, level, d = g.collect("eta"), level + 1, d - 1
    coeffs = {mid: Poly.sum_of_products(se, triples) for mid, triples in factors.items()}
    return {mid: c for mid, c in coeffs.items() if c}


@dataclass(frozen=True)
class ZPoint:
    """An exact rational point of the variety with its parametrization."""

    sigma: tuple[Fraction, ...]
    eta: tuple[Fraction, ...]
    s: tuple[Fraction, ...]
    zeta0: Fraction
    zeta1: Fraction


def sample_z_points(k: int, seed: int, n: int) -> list[ZPoint]:
    """Draw n exact points: integer t != 0 and s_1..s_{k-1} in [-10,10],
    s_k solved from P_s(t) = 0, then sigma_h = (-1)^h s_h and
    eta_h = t^(k-h).  Every returned point kills all minors.  Points are
    drawn and checked in ints; only the returned fields are Fractions."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = random.Random(seed)
    ms = minors(k)
    out = []
    for _ in range(n):
        t = 0
        while t == 0:
            t = rng.randint(-10, 10)
        s = [rng.randint(-10, 10) for _ in range(k - 1)]
        # P_s(t) = P_(s_1..s_(k-1), 0)(t) + (-1)^k s_k = 0, solved for s_k
        s.append((-1) ** (k + 1) * horner(char_poly(s + [0]), t))
        sigma = char_poly(s)[1:]
        eta = [t ** (k - h) for h in range(1, k + 1)]
        for mid, m in ms.items():
            if m.evaluate({"sigma": sigma, "eta": eta}) != 0:
                raise AssertionError(f"sampled point misses minor {mid}")
        out.append(ZPoint(*(tuple(map(Fraction, v)) for v in (sigma, eta, s)), Fraction(1), Fraction(t)))
    return out


def theta_contraction_sides(k: int, sigma, a, z) -> tuple[Fraction, Fraction]:
    """Both sides of the closed form of sum_h Theta_h(z, s) eta_h along
    the ray eta_h = a^(h-1), exactly: (the sum, the closed form).

    For a*z != -1 the sum equals -(-a)^k/(1+a z) (P(z) - P(-1/a)); on
    a*z = -1 it equals z^(-k+1) P'(z).  (These are the computation-
    validated forms; the published statement carries a sign and an
    exponent typo, reported by the symbol suite as deviations.)
    """
    a = Fraction(a)
    z = Fraction(z)
    if a == 0:
        raise ValueError("the ray parameter a must be nonzero")
    sigma = [Fraction(v) for v in sigma]
    if len(sigma) != k:
        raise ValueError("sigma must have k entries")
    lhs = Fraction(0)
    for h in range(1, k + 1):
        th = theta(k, h).evaluate({"sigma": sigma, "t": [z]})
        lhs += th * a ** (h - 1)
    row = char_poly(sigma)
    if a * z != -1:
        rhs = -((-a) ** k) / (1 + a * z) * (horner(row, z) - horner(row, Fraction(-1) / a))
    else:
        rhs = z ** (-k + 1) * horner([(k - h) * c for h, c in enumerate(row[:-1])], z)
    return lhs, rhs
