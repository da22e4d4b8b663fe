"""Floating-point cross-validation of the exact layer.

Roots of the defining polynomial P_s (its coefficient row is
`symfun.char_poly`) as the eigenvalues of its companion matrix
(`np.roots`), the two contour formulas for traces (residue form and
integrated-by-parts log form), the contour form of the derived family,
and the check that an operator kills an analytic trace by one contour sum.

Only `poly_roots` uses numpy, imported in its own body, so no CLI command
loads it.  The contour sums are scalar `cmath` loops, P and P' by
`symfun.horner`, each mean a `math.fsum` of real and imaginary parts.
`cmath` and complex division raise (OverflowError, ZeroDivisionError,
ValueError) where an array would read inf or nan; products can still
overflow to inf.

No caller sets a tuning value.  The contour is the circle of radius
`contour_radius(sigma)` = 2 max(1, B), B = sum_h |s_h|^(1/h), sampled at
`NODES` = 256 equispaced points.  Every root lies in |z| <= B, and on the
circle |P(z)/z^k - 1| <= sum_h (|s_h|^(1/h) / R)^h <= B/R <= 1/2, so the
contour encloses every root and log(P(z)/z^k) stays on the principal
branch.  Every computed root x must have componentwise backward error
|P(x)| / sum_h |c_h| |x|^(k-h) at most k `ROOT_BACKWARD_ERROR`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .spaces import check_space, sigma_space
from .symfun import char_poly, horner

NODES = 256             # quadrature nodes on the contour
ROOT_BACKWARD_ERROR = 2.0 ** -43  # per degree: 1024 unit roundoffs


class RootConvergenceError(RuntimeError):
    def __init__(self, backward_error: float):
        self.backward_error = backward_error
        super().__init__(f"a root misses the backward-error bound; worst {backward_error:.3e}")


def _coefficients(sigma: Sequence[complex]) -> list[complex]:
    """The row of P_s from `symfun.char_poly` as complex numbers."""
    return [complex(c) for c in char_poly(sigma)]


def poly_roots(sigma: Sequence[complex]):
    """All k roots (with multiplicity), as a numpy array: the eigenvalues
    of the companion matrix.

    Raises RootConvergenceError unless every root x satisfies
    |P(x)| <= ROOT_BACKWARD_ERROR k sum_h |c_h| |x|^(k-h), about 512 times
    Horner's rounding bound 2ku with u = 2^-53.
    """
    import numpy as np

    k = len(sigma)
    if k < 1:
        raise ValueError("need k >= 1")
    coeffs = np.array(_coefficients(sigma))
    roots = np.roots(coeffs).astype(complex)
    value = np.abs(np.polyval(coeffs, roots))
    scale = np.polyval(np.abs(coeffs), np.abs(roots))
    # a product, not a quotient: an exact root 0 with c_k = 0 passes as 0 <= 0
    bad = ~(value <= ROOT_BACKWARD_ERROR * k * scale)
    if bad.any():
        raise RootConvergenceError(float(np.max(value[bad] / scale[bad])))
    return roots


def contour_radius(sigma: Sequence[complex]) -> float:
    """The radius 2 max(1, sum_h |s_h|^(1/h)) of the quadrature circle."""
    return 2.0 * max(1.0, sum(abs(complex(s)) ** (1.0 / h) for h, s in enumerate(sigma, start=1)))


@dataclass(frozen=True)
class AnalyticFunction:
    """An entire function together with its derivative, on complex scalars."""

    name: str
    f: Callable[[complex], complex]
    df: Callable[[complex], complex]


EXP = AnalyticFunction("exp", cmath.exp, cmath.exp)
SIN = AnalyticFunction("sin", cmath.sin, cmath.cos)


def power_function(m: int) -> AnalyticFunction:
    if m < 0:
        raise ValueError("power must be >= 0")
    return AnalyticFunction(f"pow:{m}", lambda z: z ** m, lambda z: m * z ** (m - 1) if m else 0j)


@dataclass(frozen=True)
class TraceValue:
    value: complex          # integrated-by-parts log form
    residue_form: complex   # f P'/P form
    difference: float       # |value - residue_form|, a quadrature diagnostic


def _nodes(sigma: Sequence[complex]) -> list[complex]:
    radius = contour_radius(sigma)
    return [radius * cmath.exp(2j * math.pi * n / NODES) for n in range(NODES)]


def _mean(values: Sequence[complex]) -> complex:
    """The mean over the NODES nodes of values taken there, any number per node, by correctly rounded sums."""
    return complex(math.fsum(v.real for v in values) / NODES, math.fsum(v.imag for v in values) / NODES)


def trace_contour(f: AnalyticFunction, sigma: Sequence[complex]) -> TraceValue:
    """Both contour forms of the trace sum_j f(x_j) over the roots.

    Residue form averages f(z) P'(z)/P(z) z over the circle; the log
    form averages -f'(z) log(P(z)/z^k) z and adds k f(0).  Both are
    spectrally accurate for analytic f; their difference is returned as
    a diagnostic.
    """
    k = len(sigma)
    coeffs = _coefficients(sigma)
    dcoeffs = [(k - h) * c for h, c in enumerate(coeffs[:-1])]
    residue, log = [], []
    for z in _nodes(sigma):
        p = horner(coeffs, z)
        residue.append(f.f(z) * horner(dcoeffs, z) / p * z)
        log.append(f.df(z) * cmath.log(p / z ** k) * z)
    residue_form = _mean(residue)
    log_form = -_mean(log) + k * complex(f.f(0.0))
    return TraceValue(value=log_form, residue_form=residue_form, difference=abs(log_form - residue_form))


def dn_contour(m: int, sigma: Sequence[complex]) -> complex:
    """Contour value of the derived family: mean of z^(m+k-1)/P(z) * z."""
    k = len(sigma)
    if m < -k + 1:
        raise ValueError(f"need m >= {-k + 1}")
    coeffs = _coefficients(sigma)
    return _mean([z ** (m + k) / horner(coeffs, z) for z in _nodes(sigma)])


@dataclass(frozen=True)
class ContourCheck:
    value: complex      # op[T(f)] at sigma
    tolerance: float    # the rounding bound of `contour_annihilation_check`

    @property
    def residual(self) -> float:
        return abs(self.value)


def contour_annihilation_check(op, f: AnalyticFunction, sigma: Sequence) -> ContourCheck:
    """op[T(f)] at sigma, T(f) = sum_j f(x_j), by one contour sum.

    P_s is linear in s with d P_s / d s_h = (-1)^h z^(k-h), so the log form
    of `trace_contour` differentiates under the integral: for |beta| = n >= 1,
    d^beta T(f) = -mean_z[f'(z) z (-1)^(n-1+wt) (n-1)! z^(kn-wt) / P_s(z)^n],
    wt = sum_h h beta_h.  The terms of op are gathered by (kn - wt, n), their
    coefficients summed at sigma (exactly for int and Fraction entries); the
    order-0 group keeps the log form.  No step, no extrapolation, no guard at
    the discriminant locus (T(f) is entire in s), any order (Lyness & Moler
    1967; Bornemann 2011).

    The tolerance is 4 u scale, u = 2^-53, with scale = mean_z sum |term| +
    |a_0 k f(0)| the condition of the sum (Bornemann 2011).  An annihilator
    has a_0 = 0 (it kills T(1) = k) and its terms cancel at every node, so
    its value is rounding alone.  The sum over all terms and nodes is one
    `math.fsum` and adds none; a term rounds its coefficient, z^d, P, P^n, a
    quotient and two products, the error of f'(z) z being common to a node.
    Those errors vary in sign over terms and nodes, so their mean stays near
    one unit of u scale (at most 1.15 over 6,283 generator checks at repeated
    roots in [-3, 3], k <= 12); four units cover it.  A non-annihilator
    reads its true value, clear of the bound unless e^R on the contour
    swamps it.
    """
    k = len(sigma)
    check_space(op, sigma_space(k))
    groups = {}  # (k n - weight, n) -> the summed coefficient at sigma
    for beta, coeff in op.sorted_terms():
        n = sum(beta)
        weight = sum(h * b for h, b in enumerate(beta, start=1))
        factor = (-1) ** (n - 1 + weight) * math.factorial(n - 1) if n else 1
        key = (k * n - weight, n)
        groups[key] = groups.get(key, 0) + factor * coeff.evaluate({"sigma": sigma})
    terms = [(complex(c), d, n) for (d, n), c in groups.items() if c]
    coeffs = _coefficients(sigma)
    values = []
    for z in _nodes(sigma):
        w = -f.df(z) * z
        p = horner(coeffs, z)
        values += [c * w * (z ** d / p ** n if n else cmath.log(p / z ** k)) for c, d, n in terms]
    const = complex(groups.get((0, 0), 0)) * k * complex(f.f(0.0))
    value = _mean(values)
    scale = math.fsum(map(abs, values)) / NODES + abs(const)
    return ContourCheck(value=value + const, tolerance=4 * 2.0 ** -53 * scale)
