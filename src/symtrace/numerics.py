"""Floating-point cross-validation of the exact layer.

Roots of the defining polynomial P_s (its coefficient row is
`symfun.char_poly`) as the eigenvalues of its companion matrix
(`np.roots`), the two contour formulas for traces (residue form and
integrated-by-parts log form), the contour form of the derived family,
and finite-difference verification that the annihilators kill analytic
trace functions.

No caller sets a tuning value.  The contour is the circle of radius
`contour_radius(sigma)` = 2 max(1, B), B = sum_h |s_h|^(1/h), sampled at
`NODES` = 256 equispaced points.  Every root lies in |z| <= B, and on the
circle |P(z)/z^k - 1| <= sum_h (|s_h|^(1/h) / R)^h <= B/R <= 1/2, so the
contour encloses every root and log(P(z)/z^k) stays on the principal
branch.  Every computed root x must have componentwise backward error
|P(x)| / sum_h |c_h| |x|^(k-h) at most k `ROOT_BACKWARD_ERROR`; the finite
differences start at step `FD_STEP` and refuse stencils where the exact
discriminant falls below `FD_SAFETY`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .symfun import char_poly, discriminant_at

NODES = 256             # quadrature nodes on the contour
ROOT_BACKWARD_ERROR = 2.0 ** -43  # per degree: 1024 unit roundoffs
FD_STEP = 0.08          # the coarsest finite-difference step
FD_SAFETY = 1e-6        # least |discriminant| at a stencil point


class RootConvergenceError(RuntimeError):
    def __init__(self, backward_error: float):
        self.backward_error = backward_error
        super().__init__(f"a root misses the backward-error bound; worst {backward_error:.3e}")


class UnsafeStencilError(ValueError):
    """Finite-difference stencil too close to the discriminant locus."""


def _coefficients(sigma: Sequence[complex]) -> np.ndarray:
    """The row of P_s from `symfun.char_poly` as a complex vector."""
    return np.array(char_poly(sigma), complex)


def poly_roots(sigma: Sequence[complex]) -> np.ndarray:
    """All k roots (with multiplicity): the eigenvalues of the companion matrix.

    Raises RootConvergenceError unless every root x satisfies
    |P(x)| <= ROOT_BACKWARD_ERROR k sum_h |c_h| |x|^(k-h), about 512 times
    Horner's rounding bound 2ku with u = 2^-53.
    """
    k = len(sigma)
    if k < 1:
        raise ValueError("need k >= 1")
    coeffs = _coefficients(sigma)
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
    """An entire function together with its derivative."""

    name: str
    f: Callable
    df: Callable


EXP = AnalyticFunction("exp", np.exp, np.exp)
SIN = AnalyticFunction("sin", np.sin, np.cos)


def power_function(m: int) -> AnalyticFunction:
    if m < 0:
        raise ValueError("power must be >= 0")
    return AnalyticFunction(
        f"pow:{m}",
        lambda z: np.asarray(z) ** m,
        lambda z: m * np.asarray(z) ** (m - 1) if m else np.zeros_like(np.asarray(z)),
    )


@dataclass(frozen=True)
class TraceValue:
    value: complex          # integrated-by-parts log form
    residue_form: complex   # f P'/P form
    difference: float       # |value - residue_form|, a quadrature diagnostic


def _nodes(sigma: Sequence[complex]) -> np.ndarray:
    return contour_radius(sigma) * np.exp(2j * np.pi * np.arange(NODES) / NODES)


def trace_contour(f: AnalyticFunction, sigma: Sequence[complex]) -> TraceValue:
    """Both contour forms of the trace sum_j f(x_j) over the roots.

    Residue form averages f(z) P'(z)/P(z) z over the circle; the log
    form averages -f'(z) log(P(z)/z^k) z and adds k f(0).  Both are
    spectrally accurate for analytic f; their difference is returned as
    a diagnostic.
    """
    k = len(sigma)
    coeffs = _coefficients(sigma)
    z = _nodes(sigma)
    p = np.polyval(coeffs, z)
    dp = np.polyval(np.polyder(coeffs), z)
    residue_form = np.mean(f.f(z) * dp / p * z)
    log_form = -np.mean(f.df(z) * np.log(p / z ** k) * z) + k * complex(f.f(0.0))
    return TraceValue(
        value=complex(log_form),
        residue_form=complex(residue_form),
        difference=float(abs(log_form - residue_form)),
    )


def dn_contour(m: int, sigma: Sequence[complex]) -> complex:
    """Contour value of the derived family: mean of z^(m+k-1)/P(z) * z."""
    k = len(sigma)
    if m < -k + 1:
        raise ValueError(f"need m >= {-k + 1}")
    z = _nodes(sigma)
    return complex(np.mean(z ** (m + k) / np.polyval(_coefficients(sigma), z)))


@dataclass(frozen=True)
class FDResult:
    residual: float
    convergence_order: float
    scale: float


# Central second-order stencils, keyed by the nonzero entries of a partial
# multi-index of order <= 2: the sign offsets of the points along the
# active coordinates, and the difference quotient that combines F at them.
_STENCILS = {
    (): ([()], lambda v, h: v[0]),
    (1,): ([(1,), (-1,)], lambda v, h: (v[0] - v[1]) / (2 * h)),
    (2,): ([(1,), (0,), (-1,)], lambda v, h: (v[0] - 2 * v[1] + v[2]) / (h * h)),
    (1, 1): ([(1, 1), (1, -1), (-1, 1), (-1, -1)],
             lambda v, h: (v[0] - v[1] - v[2] + v[3]) / (4 * h * h)),
}


def _stencil(dexp, sigma0: np.ndarray, h: float):
    """The stencil points of d^dexp at sigma0 with step h, and its quotient."""
    active = [i for i, e in enumerate(dexp) if e]
    offsets, quotient = _STENCILS[tuple(dexp[i] for i in active)]
    points = []
    for signs in offsets:
        q = sigma0.copy()
        for i, s in zip(active, signs):
            if s:
                q[i] += s * h
        points.append(q)
    return points, quotient


def _stencil_points(op, sigma0: np.ndarray, h: float) -> list[np.ndarray]:
    """Every distinct point of the stencils of op's terms, sigma0 first."""
    pts = {tuple(sigma0): sigma0}
    for dexp in op.terms:
        for q in _stencil(dexp, sigma0, h)[0]:
            pts.setdefault(tuple(q), q)
    return list(pts.values())


def _apply_fd(op, F: Callable, sigma0: np.ndarray, h: float) -> complex:
    """One central-difference evaluation of op[F] at sigma0 with step h."""
    total = 0.0 + 0.0j
    cache: dict[tuple, complex] = {}

    def feval(q: np.ndarray) -> complex:
        key = tuple(np.round(q, 12))
        if key not in cache:
            cache[key] = complex(F(q))
        return cache[key]

    for dexp, coeff in op.terms.items():
        a = complex(coeff.evaluate({"sigma": list(sigma0)}))
        if a == 0:
            continue
        points, quotient = _stencil(dexp, sigma0, h)
        total += a * quotient([feval(q) for q in points], h)
    return total


def fd_annihilation_check(op, F: Callable, sigma0: Sequence[float]) -> FDResult:
    """Numerically apply a (order <= 2) operator to a function of sigma.

    Uses second-order central stencils at steps h = FD_STEP, h/2, h/4 and two
    Richardson extrapolations; returns the extrapolated |op[F]| together
    with the observed convergence order and the scale max(1, |F(s0)|).
    Rejects stencils that approach the discriminant locus, where the
    exact discriminant of some stencil point (its floats read as
    fractions) is below FD_SAFETY in absolute value.
    """
    if op.order() > 2:
        raise ValueError("operator order must be <= 2")
    sigma0 = np.asarray(sigma0, dtype=float)
    if len(sigma0) > 1:  # k = 1 has no discriminant locus
        for pt in _stencil_points(op, sigma0, FD_STEP):
            if abs(discriminant_at([Fraction(v) for v in pt])) < FD_SAFETY:
                raise UnsafeStencilError(f"stencil point {pt} too close to the discriminant locus")
    d1 = _apply_fd(op, F, sigma0, FD_STEP)
    d2 = _apply_fd(op, F, sigma0, FD_STEP / 2)
    d4 = _apply_fd(op, F, sigma0, FD_STEP / 4)
    r1 = (4 * d2 - d1) / 3
    r2 = (4 * d4 - d2) / 3
    extrapolated = (16 * r2 - r1) / 15
    num = abs(d1 - d2)
    den = abs(d2 - d4)
    order = float(np.log2(num / den)) if num > 0 and den > 0 else float("inf")
    scale = max(1.0, abs(complex(F(sigma0))))
    return FDResult(residual=float(abs(extrapolated)), convergence_order=order, scale=scale)


def trace_function_handle(f: AnalyticFunction) -> Callable:
    """A numeric sigma -> trace value closure built on the log-form contour."""

    def F(sigma):
        return trace_contour(f, list(sigma)).value

    return F
