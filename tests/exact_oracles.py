"""Independent oracles that only the tests use.

`newton_varouchas` writes N_m from its closed multinomial sum, apart
from the Newton recurrences of `NewtonFamily.newton`; `symmetrize`
averages a polynomial over an orbit, the input strategy of the sympy
oracle.
"""

from fractions import Fraction
from itertools import permutations
from math import factorial

from symtrace.poly import Poly
from symtrace.spaces import check_space, sigma_space, x_space


def newton_varouchas(k: int, m: int) -> Poly:
    """Power sum N_m from the closed multinomial-style sum over weighted
    exponents: sum over alpha with sum_j j*alpha_j = m of
    (-1)^(m+|alpha|) m (|alpha|-1)!/alpha! sigma^alpha."""
    if m < 1:
        raise ValueError("index must be >= 1")
    space = sigma_space(k)
    terms: dict[tuple[int, ...], Fraction] = {}

    def fill(j: int, remaining: int, alpha: list[int]):
        if j > k:
            if remaining:
                return
            size = sum(alpha)
            denom = 1
            for a in alpha:
                denom *= factorial(a)
            c = Fraction((-1) ** (m + size) * m * factorial(size - 1), denom)
            terms[tuple(alpha)] = terms.get(tuple(alpha), Fraction(0)) + c
            return
        for a in range(remaining // j + 1):
            alpha[j - 1] = a
            fill(j + 1, remaining - j * a, alpha)
        alpha[j - 1] = 0

    fill(1, m, [0] * k)
    return Poly(space, terms)


def symmetrize(p: Poly, h: int, k: int) -> Poly:
    """Average of p(x_{i_1}..x_{i_h}) over injections of [1,h] into [1,k],
    with the (k-h)!/k! prefactor; the result is symmetric in x_1..x_k."""
    if not 1 <= h <= k:
        raise ValueError(f"need 1 <= h <= k, got h={h}, k={k}")
    check_space(p, x_space(h))
    space = x_space(k)
    xs = [Poly.variable(space, "x", i) for i in range(1, k + 1)]
    orbit = Poly.sum(space, (p.compose(space, {("x", slot): xs[i] for slot, i in enumerate(image, start=1)})
                             for image in permutations(range(k), h)))
    return orbit.scale(Fraction(factorial(k - h), factorial(k)))
