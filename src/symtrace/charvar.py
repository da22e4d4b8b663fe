"""Symbol-level geometry of the annihilator system.

The symbols of the system generate the ideal of 2x2 minors of the
(k, 2) matrix with rows (eta_1, -l), (eta_2, eta_1), .., (eta_k,
eta_{k-1}) where l = sum_h s_h eta_h.  This module provides the minors
and the one table naming the generator each minor is the symbol of,
the rewriting of any eta_i eta_j through them, the constructive
decomposition of a polynomial in the minors, an independent chart
check of vanishing on the variety cut out by the minors (via its
rational parametrization), and exact sampled points of the variety.

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

from .annihilators import generator_system
from .poly import Poly, _accumulate, _add_product
from .spaces import VarSpace, sigma_eta_space, sigma_space
from .transport import theta


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
    return (f"T({j})", 1) if i == 1 else (f"A({i - 1},{j},1)", -1)


def rewrite_eta_product(k: int, i: int, j: int) -> tuple[dict[MinorId, Poly], Poly]:
    """Write eta_i eta_j = sum_a u_a m_a + eta_k v with u_a in Q[s] and v
    of eta-degree <= 1, by descending induction on the smaller index:

        eta_i eta_j = m_(i,j+1) + eta_{i-1} eta_{j+1}        (2 <= i <= j < k)
        eta_1 eta_j = m_(1,j+1) - sum_p s_p eta_p eta_{j+1}   (j < k)
        eta_i eta_k = eta_k * eta_i                           (base)

    Returns (u as {minor-id: Poly over sigma}, v over (sigma, eta)).
    """
    if not (1 <= i <= k and 1 <= j <= k):
        raise ValueError("indices out of range")
    return _rewrite(k, min(i, j), max(i, j))


@cache  # keyed by i <= j; rewrite_eta_product stays plain, as `symfun.family` does
def _rewrite(k: int, i: int, j: int) -> tuple[dict[MinorId, Poly], Poly]:
    se = sigma_eta_space(k)
    ss = sigma_space(k)
    if j == k:
        return {}, _eta(k, i)
    if i == 1:
        u: dict[MinorId, Poly] = {(1, j + 1): Poly.one(ss)}
        v: dict[tuple[int, ...], Fraction] = {}
        for p in range(1, k + 1):
            up, vp = rewrite_eta_product(k, p, j + 1)
            sp_s = Poly.variable(ss, "sigma", p)
            for mid, c in up.items():
                _accumulate(u, mid, -(sp_s * c))
            _add_product(v, Poly.variable(se, "sigma", p).terms, vp.terms, -1)
        return u, Poly._trusted(se, v)
    up, vp = rewrite_eta_product(k, i - 1, j + 1)
    u = dict(up)
    _accumulate(u, (i, j + 1), Poly.one(ss))
    return u, vp


def embed_sigma(p: Poly, k: int) -> Poly:
    """View a sigma-polynomial inside the (sigma, eta) space."""
    if p.space == sigma_eta_space(k):
        return p
    return p.embed(sigma_eta_space(k), "eta", (0,) * k)


def recombine(k: int, coeffs: dict[MinorId, Poly]) -> Poly:
    """sum_a c_a m_a with coefficients over sigma or (sigma, eta)."""
    ms = minors(k)
    return Poly.sum(sigma_eta_space(k), (embed_sigma(c, k) * ms[mid] for mid, c in coeffs.items()))


def _eta_homogeneous_parts(f: Poly, k: int) -> dict[int, Poly]:
    parts: dict[int, dict] = {}
    off = f.space.offset("eta")
    for exp, c in f.terms.items():
        d = sum(exp[off:off + k])
        parts.setdefault(d, {})[exp] = c
    return {d: Poly._trusted(f.space, ts) for d, ts in parts.items()}


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
    if f.space != sigma_eta_space(k):
        raise ValueError(f"expected a polynomial over {sigma_eta_space(k)}")
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
    for part in _eta_homogeneous_parts(f, k).values():
        if not part.compose(target, images).is_zero():
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
    if f.space != sigma_eta_space(k):
        raise ValueError(f"expected a polynomial over {sigma_eta_space(k)}")
    parts = _eta_homogeneous_parts(f, k)
    if len(parts) > 1:
        raise ValueError("input must be homogeneous in eta")
    d = f.degree_in("eta")
    if not f.is_zero() and d <= 1:
        raise NotOnVarietyError(
            "eta-degree <= 1 polynomials vanish on the variety only when zero"
        )
    coeffs = _descend(f, k)
    if recombine(k, coeffs) != f:
        raise AssertionError("minor decomposition failed to recombine")
    return coeffs


def _descend(f: Poly, k: int) -> dict[MinorId, Poly]:
    se = sigma_eta_space(k)
    eta_k_pos = se.position("eta", k)
    eta_off = se.offset("eta")
    coeffs: dict[MinorId, dict[tuple[int, ...], Fraction]] = {}
    # f = eta_k^level * terms modulo the minors, with the minor coefficients
    # of the levels above already in coeffs
    terms, level, d = f.terms, 0, f.degree_in("eta")
    while terms:
        if d <= 1:
            # a nonzero eta-linear cofactor does not vanish on the variety
            raise NotOnVarietyError("polynomial does not vanish on the variety")
        # rest accumulates g + sum v*w: the eta_k-divisible part of terms
        # divided by eta_k, plus the eta_k-multiples produced by the
        # rewriting; the other terms are eta_i eta_j * w, grouped by (i, j)
        rest: dict[tuple[int, ...], Fraction] = {}
        groups: dict[tuple[int, int], dict[tuple[int, ...], Fraction]] = {}
        for exp, c in terms.items():
            low = list(exp)
            if exp[eta_k_pos]:
                low[eta_k_pos] -= 1
                rest[tuple(low)] = c
                continue
            first = next(h for h in range(k) if low[eta_off + h])
            low[eta_off + first] -= 1
            second = next(h for h in range(k) if low[eta_off + h])
            low[eta_off + second] -= 1
            groups.setdefault((first + 1, second + 1), {})[tuple(low)] = c
        eta_k_level = (0,) * (k - 1) + (level,)
        for (i, j), w in groups.items():
            u, v = rewrite_eta_product(k, i, j)
            for mid, uc in u.items():
                lifted = {exp + eta_k_level: c for exp, c in uc.terms.items()}
                _add_product(coeffs.setdefault(mid, {}), lifted, w)
            _add_product(rest, v.terms, w)
        terms, level, d = rest, level + 1, d - 1
    return {mid: Poly._trusted(se, ts) for mid, ts in coeffs.items() if ts}


@dataclass(frozen=True)
class ZPoint:
    """An exact rational point of the variety with its parametrization."""

    sigma: tuple[Fraction, ...]
    eta: tuple[Fraction, ...]
    s: tuple[Fraction, ...]
    zeta0: Fraction
    zeta1: Fraction


def char_poly_value(sigma, z):
    """P(z) = z^k + sum_h (-1)^h s_h z^(k-h), evaluated exactly."""
    k = len(sigma)
    acc = z ** k
    for h, sh in enumerate(sigma, start=1):
        acc += (-1) ** h * sh * z ** (k - h)
    return acc


def sample_z_points(k: int, seed: int, n: int) -> list[ZPoint]:
    """Draw n exact points: integer t != 0 and s_1..s_{k-1} in [-10,10],
    s_k solved from the hypersurface relation, then sigma_h = (-1)^h s_h
    and eta_h = t^(k-h).  Every returned point kills all minors."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = random.Random(seed)
    ms = minors(k)
    out = []
    for _ in range(n):
        t = Fraction(0)
        while t == 0:
            t = Fraction(rng.randint(-10, 10))
        s = [Fraction(rng.randint(-10, 10)) for _ in range(k - 1)]
        # sum_{h=0}^{k} (-1)^h s_h t^(k-h) = 0 with s_0 = 1, solved for s_k
        partial = t ** k + sum((-1) ** h * s[h - 1] * t ** (k - h) for h in range(1, k))
        sk = Fraction((-1) ** (k + 1)) * partial
        s.append(sk)
        sigma = tuple(Fraction((-1) ** h) * s[h - 1] for h in range(1, k + 1))
        eta = tuple(t ** (k - h) for h in range(1, k + 1))
        point = ZPoint(sigma=sigma, eta=eta, s=tuple(s), zeta0=Fraction(1), zeta1=t)
        for mid, m in ms.items():
            value = m.evaluate({"sigma": sigma, "eta": eta})
            if value != 0:
                raise AssertionError(f"sampled point misses minor {mid}")
        out.append(point)
    return out


def theta_contraction_check(k: int, sigma, a, z) -> bool:
    """Exact check of the closed form of sum_h Theta_h(z, s) eta_h along
    the ray eta_h = a^(h-1).

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
    if a * z != -1:
        pz = char_poly_value(sigma, z)
        pma = char_poly_value(sigma, Fraction(-1) / a)
        rhs = -((-a) ** k) / (1 + a * z) * (pz - pma)
    else:
        dpz = k * z ** (k - 1) + sum(
            (-1) ** h * sigma[h - 1] * (k - h) * z ** (k - h - 1) for h in range(1, k)
        )
        rhs = z ** (-k + 1) * dpz
    return lhs == rhs


def minor_matches_symbol(k: int) -> list[tuple[MinorId, str, int]]:
    """Identify each minor with the symbol of a generator: (minor, id, sign)."""
    gens = generator_system(k, "newton")
    out = []
    for mid, m in minors(k).items():
        gid, sign = minor_generator(mid)
        if m != gens[gid].symbol().scale(sign):
            raise AssertionError(f"minor {mid} is not the signed symbol of {gid}")
        out.append((mid, gid, sign))
    return out
