"""Symmetric-function families and reduction to elementary coordinates.

Everything here is exact.  The defining polynomial P_s(z) =
sum_h (-1)^h s_h z^(k-h), whose roots are x_1..x_k, is written once, as
its coefficient row `char_poly`; `horner` evaluates a row, and `theta`
is a Horner prefix.  The families (power sums N_m, derived family DN_m,
primitive family PN_m) are generated by their recurrences over that row
and cached per degree k; reduction of a symmetric x-polynomial to
sigma-coordinates uses the classical leading-term descent.

A symmetric x-polynomial f is fixed by its partition coefficients, the
dict lam -> f[x^lam] over non-increasing exponents lam: the coefficient
at any other exponent is the one at its sorted rearrangement.  That is
up to k! fewer terms than the full polynomial.  Two rules work on them
alone (Macdonald, *Symmetric Functions and Hall Polynomials*, ch. I):

- e-products, the e_r . m_lam rule: [x^mu](e_r f) is the sum over the
  r-subsets S of positions with mu_S >= 1 of f[sort(mu - 1_S)].  Every
  such mu is sort(lam + 1_S) for a partition lam of f, which gives the
  candidates.
- reduction: the graded-lex leading exponent lam of a symmetric
  polynomial is a partition, and the leading term of
  prod_h e_h^(lam_h - lam_(h+1)) is x^lam with coefficient 1, so the
  descent runs over partitions only, largest first off a heap.

The transport applies operators to partition coefficients by a third
rule (see the `transport` docstring).  `reduce_partitions` is the edge
where partition coefficients become sigma-terms, through the validated
`Poly` constructor.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import lcm
from operator import add, ge, sub

from .poly import Poly, _canon, term_sort_key
from .spaces import check_space, sigma_aux_space, sigma_space, x_space


class NotSymmetricError(ValueError):
    """Input fails invariance under a variable transposition."""

    def __init__(self, family: str, i: int, j: int):
        self.transposition = (i, j)
        super().__init__(f"not symmetric: fails under the transposition ({family}{i} {family}{j})")


@cache
def elementary_symmetric(k: int, h: int) -> Poly:
    """e_h(x_1..x_k); e_0 = 1."""
    if not 0 <= h <= k:
        raise ValueError(f"need 0 <= h <= k, got h={h}, k={k}")
    terms = {}
    for subset in combinations(range(k), h):
        exp = [0] * k
        for i in subset:
            exp[i] = 1
        terms[tuple(exp)] = 1
    return Poly(x_space(k), terms)


def assert_symmetric(p: Poly, k: int) -> None:
    for i in range(1, k):
        if p.swap("x", i, i + 1) != p:
            raise NotSymmetricError("x", i, i + 1)


def _partition(exp) -> tuple[int, ...]:
    return tuple(sorted(exp, reverse=True))


def e_times(r: int, f: dict, k: int) -> dict:
    """e_r(x) * f on partition coefficients, by the e_r . m_lam rule."""
    subsets = [[1 if i in s else 0 for i in range(k)] for s in combinations(range(k), r)]
    candidates = {_partition(map(add, lam, ones)) for lam in f for ones in subsets}
    out = {}
    for mu in candidates:
        acc = 0
        for ones in subsets:
            if all(map(ge, mu, ones)):
                v = f.get(_partition(map(sub, mu, ones)))
                if v:
                    acc += v
        if acc:
            out[mu] = _canon(acc)
    return out


def e_product(k: int, beta: tuple[int, ...], memo: dict) -> dict:
    """prod_h e_h(x)^beta_h on partition coefficients.  Each entry of memo
    is one factor e_h times the entry with that factor removed, so the
    products of one memo share their prefixes."""
    missing = []
    while beta not in memo:
        if not any(beta):
            memo[beta] = {(0,) * k: 1}
            break
        h = max(i for i, e in enumerate(beta) if e)
        missing.append((beta, h))
        beta = beta[:h] + (beta[h] - 1,) + beta[h + 1:]
    for full, h in reversed(missing):
        memo[full] = e_times(h + 1, memo[beta], k)
        beta = full
    return memo[beta]


def reduce_partitions(f: dict, k: int, memo: dict) -> Poly:
    """The sigma-coordinate form of the symmetric polynomial with partition
    coefficients f, by the leading-term descent over partitions; memo
    holds the e-products (see `e_product`)."""
    work = dict(f)
    heap = [(term_sort_key(lam), lam) for lam in work]
    heapify(heap)
    out: dict[tuple[int, ...], Fraction] = {}
    while heap:
        lam = heappop(heap)[1]
        c = work.pop(lam, None)
        if c is None:  # cancelled since it was pushed
            continue
        mu = tuple(lam[h] - (lam[h + 1] if h + 1 < k else 0) for h in range(k))
        for nu, v in e_product(k, mu, memo).items():
            if nu == lam:  # the leading coefficient 1 cancels c
                continue
            if nu not in work:
                heappush(heap, (term_sort_key(nu), nu))
            if rest := work.get(nu, 0) - c * v:
                work[nu] = _canon(rest)
            else:
                del work[nu]
        out[mu] = c
    return Poly(sigma_space(k), out)


def reduce_to_sigma(p: Poly, k: int) -> Poly:
    """Rewrite a symmetric x-polynomial in the coordinates s_1..s_k.

    The input is checked symmetric, and its partition coefficients go
    through `reduce_partitions`.  The output composed with e(x)
    reproduces the input exactly.
    """
    check_space(p, x_space(k))
    assert_symmetric(p, k)
    return reduce_partitions({e: c for e, c in p.sorted_terms() if all(map(ge, e, e[1:]))}, k, {})


def sigma_to_x(p: Poly, k: int) -> Poly:
    """Substitute s_h -> e_h(x): the exact inverse direction of reduce_to_sigma."""
    check_space(p, sigma_space(k))
    images = {("sigma", h): elementary_symmetric(k, h) for h in range(1, k + 1)}
    return p.compose(x_space(k), images)


def char_poly(sigma, one=1) -> list:
    """The row [c_0..c_k] = [1, -s_1, s_2, .., (-1)^k s_k] of P_s, leading one
    first, over the ring whose unit is one (int, Fraction, complex or Poly):
    the one place that writes P_s's signs."""
    return [one, *(-s if h % 2 else s for h, s in enumerate(sigma, start=1))]


def horner(coeffs, z):
    """sum_h coeffs[h] z^(n-h) for a row coeffs[0..n], leading one first."""
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * z + c
    return acc


def theta(k: int, h: int) -> Poly:
    """Theta_h(z, s) = sum_{p=0}^{h-1} (-z)^(h-p-1) s_p over (sigma, t), t
    playing z: the row 1, s_1, .., s_(h-1) by Horner at -t."""
    if not 1 <= h <= k:
        raise ValueError(f"need 1 <= h <= k, got h={h}")
    space = sigma_aux_space(k)
    row = [Poly.one(space)] + [Poly.variable(space, "sigma", p) for p in range(1, h)]
    return horner(row, -Poly.variable(space, "t"))


class NewtonFamily:
    """Cached generator of the N_m, DN_m, PN_m families for one k."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be positive")
        self.k = k
        self.space = sigma_space(k)
        self._newton: dict[int, Poly] = {0: Poly.constant(self.space, k)}
        self._derived: dict[int, Poly] = {0: Poly.one(self.space)}
        for m in range(-k + 1, 0):
            self._derived[m] = Poly.zero(self.space)
        self._primitive: dict[int, Poly] = {}
        # c_0..c_k, the row of P_s: every recurrence is sum_h c_h X_(n-h) = 0
        self._row = char_poly([Poly.variable(self.space, "sigma", h) for h in range(1, k + 1)],
                              Poly.one(self.space))

    # The recurrences fill their caches bottom-up, so a large index costs
    # no recursion depth.

    def newton(self, m: int) -> Poly:
        """Power sum N_m in sigma-coordinates, by the Newton identities
        sum_{h<n} c_h N_(n-h) + n c_n = 0, the last term only for n <= k."""
        if m < 0:
            raise ValueError("newton index must be >= 0")
        k, row, cache = self.k, self._row, self._newton
        for n in range(len(cache), m + 1):
            triples = [(row[h], cache[n - h], -1) for h in range(1, min(n - 1, k) + 1)]
            if n <= k:
                triples.append((row[n], row[0], -n))
            cache[n] = Poly.sum_of_products(self.space, triples)
        return cache[m]

    def derived(self, m: int) -> Poly:
        """DN_m: seeds DN_0 = 1, DN_m = 0 on [-k+1, -1], then sum_h c_h DN_(n-h) = 0."""
        if m < -self.k + 1:
            raise ValueError(f"derived newton index must be >= {-self.k + 1}")
        row, cache = self._row, self._derived
        for n in range(max(cache) + 1, m + 1):
            cache[n] = Poly.sum_of_products(self.space, ((row[h], cache[n - h], -1) for h in range(1, self.k + 1)))
        return cache[m]

    def primitive(self, m: int) -> Poly:
        """PN_m = -sum_h c_h N_(m-h)/(m-h), h <= min(k, m-1), over one denominator L = lcm(m-h)."""
        if m < 1:
            raise ValueError("primitive newton index must be >= 1")
        if m not in self._primitive:
            hs = range(min(self.k, m - 1) + 1)
            L = lcm(*(m - h for h in hs))
            self._primitive[m] = Poly.sum_of_products(self.space, (
                (self._row[h], self.newton(m - h), -(L // (m - h))) for h in hs)).scale(Fraction(1, L))
        return self._primitive[m]


# `family` and `discriminant` stay plain functions over a private cache:
# bench/selftest.py counts the calls to them through their code objects
_families = cache(NewtonFamily)


def family(k: int) -> NewtonFamily:
    """The one NewtonFamily of degree k."""
    return _families(k)


def _determinant(rows: list[list[Poly]], space) -> Poly:
    """Exact determinant by first-row expansion with a column-mask memo."""
    n = len(rows)
    memo: dict[tuple[int, int], Poly] = {}

    def rec(r: int, mask: int) -> Poly:
        if r == n:
            return Poly.one(space)
        key = (r, mask)
        if key not in memo:
            cols = [c for c in range(n) if mask & (1 << c)]
            memo[key] = Poly.sum_of_products(space, ((rows[r][c], rec(r + 1, mask & ~(1 << c)), (-1) ** t)
                                                     for t, c in enumerate(cols) if rows[r][c]))
        return memo[key]

    return rec(0, (1 << n) - 1)


def discriminant(k: int) -> Poly:
    """Discriminant of z^k + sum_h (-1)^h s_h z^(k-h), normalized so that
    evaluating at s = e(x) gives prod_{i<j} (x_i - x_j)^2 exactly.

    Computed as the Sylvester resultant of the polynomial and its
    derivative times (-1)^(k(k-1)/2); the polynomial is monic so no
    leading-coefficient division arises.  The expansion grows about
    tenfold per step in k; it builds the symbolic polynomial for the
    library API and the tests, while point evaluation goes through
    `discriminant_at`.
    """
    if k < 2:
        raise ValueError("discriminant needs k >= 2")
    return _sylvester_discriminant(k)


@cache
def _sylvester_discriminant(k: int) -> Poly:
    space = sigma_space(k)
    zero = Poly.zero(space)
    pc = char_poly([Poly.variable(space, "sigma", h) for h in range(1, k + 1)], Poly.one(space))
    dc = [(k - h) * c for h, c in enumerate(pc[:-1])]
    n = 2 * k - 1
    rows = []
    for i in range(k - 1):
        rows.append([zero] * i + pc + [zero] * (n - i - k - 1))
    for j in range(k):
        rows.append([zero] * j + dc + [zero] * (n - j - k))
    return _determinant(rows, space).scale((-1) ** (k * (k - 1) // 2))


def discriminant_at(sigma) -> Fraction:
    """discriminant(len(sigma)) evaluated exactly at a rational point,
    without building the symbolic polynomial, in int arithmetic.

    With D the lcm of the denominators, z = w/D turns P_s into the monic
    integer Q(w) = D^k P_s(w/D), whose roots are D x_j; so the value is
    (-1)^(k(k-1)/2) Res(Q, Q') / D^(k(k-1)), with one division at the end.
    Res(Q, Q') comes from the subresultant PRS (Collins 1967; Cohen, *A
    Course in Computational Algebraic Number Theory*, Alg. 3.3.7), whose
    divisions are all exact: each step takes the pseudo-remainder
    lc(B)^(deg A - deg B + 1) A mod B and divides it by g h^delta.
    """
    k = len(sigma)
    if k < 2:
        raise ValueError("discriminant needs k >= 2")
    for s in sigma:
        if isinstance(s, bool) or not isinstance(s, (int, Fraction)):
            raise TypeError(f"discriminant_at needs int or Fraction entries, got {type(s).__name__}")
    d = lcm(*(s.denominator for s in sigma))
    a = [c.numerator * d**h // c.denominator for h, c in enumerate(char_poly(sigma))]
    b = [(k - h) * c for h, c in enumerate(a[:-1])]
    g = h = sign = 1
    while len(b) > 1:
        delta = len(a) - len(b)
        sign *= (-1) ** ((len(a) - 1) * (len(b) - 1))
        r = a
        for _ in range(delta + 1):
            q, r = r[0], [b[0] * c for c in r[1:]]
            for j in range(1, len(b)):
                r[j - 1] -= q * b[j]
        while r and r[0] == 0:
            r = r[1:]
        if not r:
            return Fraction(0)
        a, b, g = b, [c // (g * h**delta) for c in r], b[0]
        h = g**delta // h ** (delta - 1)  # delta >= 1: each remainder drops the degree
    res = sign * b[0] ** (len(a) - 1) // h ** (len(a) - 2)
    return Fraction((-1) ** (k * (k - 1) // 2) * res, d ** (k * (k - 1)))
