"""Symmetric-function families and reduction to elementary coordinates.

Everything here is exact.  The families (power sums N_m, derived family
DN_m, primitive family PN_m) are generated by their defining recurrences
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
rule (see the `transport` docstring).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from heapq import heapify, heappop, heappush
from itertools import combinations, permutations
from math import factorial
from operator import add, ge, sub

from .poly import Poly, _accumulate, _add_product, _canon, term_sort_key
from .spaces import sigma_space, x_space


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
            _accumulate(work, nu, -c * v)
        out[mu] = c
    return Poly._trusted(sigma_space(k), out)


def reduce_to_sigma(p: Poly, k: int) -> Poly:
    """Rewrite a symmetric x-polynomial in the coordinates s_1..s_k.

    The input is checked symmetric, and its partition coefficients go
    through `reduce_partitions`.  The output composed with e(x)
    reproduces the input exactly.
    """
    if p.space != x_space(k):
        raise ValueError(f"expected a polynomial over {x_space(k)}, got {p.space}")
    assert_symmetric(p, k)
    return reduce_partitions({e: c for e, c in p.terms.items() if all(map(ge, e, e[1:]))}, k, {})


def sigma_to_x(p: Poly, k: int) -> Poly:
    """Substitute s_h -> e_h(x): the exact inverse direction of reduce_to_sigma."""
    if p.space != sigma_space(k):
        raise ValueError(f"expected a polynomial over {sigma_space(k)}, got {p.space}")
    images = {("sigma", h): elementary_symmetric(k, h) for h in range(1, k + 1)}
    return p.compose(x_space(k), images)


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

    def _sigma_terms(self, h: int) -> dict[tuple[int, ...], Fraction]:
        return Poly.variable(self.space, "sigma", h).terms

    # The recurrences fill their caches bottom-up, so a large index costs
    # no recursion depth.

    def newton(self, m: int) -> Poly:
        """Power sum N_m in sigma-coordinates, by the Newton identities."""
        if m < 0:
            raise ValueError("newton index must be >= 0")
        k = self.k
        cache = self._newton
        for n in range(len(cache), m + 1):
            acc: dict[tuple[int, ...], Fraction] = {}
            for h in range(1, min(n - 1, k) + 1):
                _add_product(acc, self._sigma_terms(h), cache[n - h].terms, 1 if h % 2 == 1 else -1)
            if n <= k:
                for exp, c in self._sigma_terms(n).items():
                    _accumulate(acc, exp, c * ((-1) ** (n - 1) * n))
            cache[n] = Poly._trusted(self.space, acc)
        return cache[m]

    def derived(self, m: int) -> Poly:
        """DN_m: seeds DN_0 = 1, DN_m = 0 on [-k+1, -1], then the signed recurrence."""
        if m < -self.k + 1:
            raise ValueError(f"derived newton index must be >= {-self.k + 1}")
        cache = self._derived
        for n in range(max(cache) + 1, m + 1):
            acc: dict[tuple[int, ...], Fraction] = {}
            for h in range(1, self.k + 1):
                _add_product(acc, self._sigma_terms(h), cache[n - h].terms, 1 if h % 2 == 1 else -1)
            cache[n] = Poly._trusted(self.space, acc)
        return cache[m]

    def primitive(self, m: int) -> Poly:
        """PN_m: the antiderivative-style combination of N_{m-h}/(m-h)."""
        if m < 1:
            raise ValueError("primitive newton index must be >= 1")
        if m not in self._primitive:
            hmax = self.k if m >= self.k + 1 else m - 1
            one = {(0,) * self.k: 1}
            acc: dict[tuple[int, ...], Fraction] = {}
            for h in range(0, hmax + 1):
                sign = -1 if (h - 1) % 2 else 1
                factor = self._sigma_terms(h) if h else one
                _add_product(acc, factor, self.newton(m - h).terms, Fraction(sign, m - h))
            self._primitive[m] = Poly._trusted(self.space, acc)
        return self._primitive[m]


# `family` and `discriminant` stay plain functions over a private cache:
# bench/selftest.py counts the calls to them through their code objects
_families = cache(NewtonFamily)


def family(k: int) -> NewtonFamily:
    """The one NewtonFamily of degree k."""
    return _families(k)


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
    if p.space != x_space(h):
        raise ValueError(f"expected a polynomial over {x_space(h)}")
    out: dict[tuple[int, ...], Fraction] = {}
    for image in permutations(range(k), h):
        for exp, c in p.terms.items():
            new = [0] * k
            for slot, e in enumerate(exp):
                new[image[slot]] = e
            _accumulate(out, tuple(new), c)
    scale = Fraction(factorial(k - h), factorial(k))
    return Poly._trusted(x_space(k), {e: _canon(c * scale) for e, c in out.items()})


def _determinant(rows: list[list[Poly]], space) -> Poly:
    """Exact determinant by first-row expansion with a column-mask memo."""
    n = len(rows)
    memo: dict[tuple[int, int], Poly] = {}

    def rec(r: int, mask: int) -> Poly:
        if r == n:
            return Poly.one(space)
        key = (r, mask)
        if key in memo:
            return memo[key]
        acc: dict[tuple[int, ...], Fraction] = {}
        sign = 1
        for c in range(n):
            if not mask & (1 << c):
                continue
            entry = rows[r][c]
            if not entry.is_zero():
                _add_product(acc, entry.terms, rec(r + 1, mask & ~(1 << c)).terms, sign)
            sign = -sign
        memo[key] = Poly._trusted(space, acc)
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
    pc = [Poly.one(space)] + [
        Poly.variable(space, "sigma", h).scale((-1) ** h) for h in range(1, k + 1)
    ]
    dc = [pc[h].scale(k - h) for h in range(k)]
    n = 2 * k - 1
    rows = []
    for i in range(k - 1):
        rows.append([zero] * i + pc + [zero] * (n - i - k - 1))
    for j in range(k):
        rows.append([zero] * j + dc + [zero] * (n - j - k))
    return _determinant(rows, space).scale((-1) ** (k * (k - 1) // 2))


def discriminant_at(sigma) -> Fraction:
    """discriminant(len(sigma)) evaluated exactly at a rational point,
    without building the symbolic polynomial.

    Res(P, P') by the Euclidean algorithm over Q, O(k^2) Fraction
    operations, times (-1)^(k(k-1)/2).  Each step uses
    Res(A, B) = (-1)^(deg A deg B) lc(B)^(deg A - deg R) Res(B, R) with
    R = A mod B, and Res(A, c) = c^(deg A) for a constant c.
    """
    k = len(sigma)
    if k < 2:
        raise ValueError("discriminant needs k >= 2")
    for s in sigma:
        if isinstance(s, bool) or not isinstance(s, (int, Fraction)):
            raise TypeError(f"discriminant_at needs int or Fraction entries, got {type(s).__name__}")
    # coefficients from the leading one down
    a = [Fraction(1)] + [Fraction((-1) ** h * s) for h, s in enumerate(sigma, start=1)]
    b = [(k - h) * c for h, c in enumerate(a[:-1])]
    res = Fraction((-1) ** (k * (k - 1) // 2))
    while len(b) > 1:
        m, n = len(a) - 1, len(b) - 1
        r = a[:]
        for i in range(m - n + 1):
            q = r[i] / b[0]
            if q:
                for j in range(1, n + 1):
                    r[i + j] -= q * b[j]
        start = m - n + 1
        while start <= m and r[start] == 0:
            start += 1
        if start > m:
            return Fraction(0)
        r = r[start:]
        res *= (-1) ** (m * n) * b[0] ** (m - (len(r) - 1))
        a, b = b, r
    return res * b[0] ** (len(a) - 1)


def omega_closedness(k: int, m: int) -> bool:
    """Exact cross-partial symmetry of the coefficient family
    (-1)^(h-1) N_{m-h}/(m-h), h in [1,k], for m >= k+1."""
    if m < k + 1:
        raise ValueError("closedness is stated for m >= k+1")
    fam = family(k)
    coeffs = {
        h: fam.newton(m - h).scale(Fraction((-1) ** (h - 1), m - h))
        for h in range(1, k + 1)
    }
    for p in range(1, k + 1):
        for q in range(p + 1, k + 1):
            if coeffs[q].partial("sigma", p) != coeffs[p].partial("sigma", q):
                return False
    return True
