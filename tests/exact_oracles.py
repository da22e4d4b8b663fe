"""Independent oracles that only the tests use.

`newton_varouchas` writes N_m from its closed multinomial sum, apart
from the Newton recurrences of `NewtonFamily.newton`; `symmetrize`
averages a polynomial over an orbit, the input strategy of the sympy
oracle.  `rewrite_table` expands eta_i eta_j through the minors by
recursion on the rewrite rules, and `descend_by_table` multiplies each
group of a descent step by that expanded table: the minor descent as it
was before its step acted on each group directly.
`trace_characterization_x` decides membership in the mixed-partials
ideal over x by a glance at the normal form.  The `*_by_products`
functions build the generators A(p,q,i) and T(m), the companions T0(mu),
U0 and nabla, and over x the operators S_h and U_d by multiplying
partials and multiplying polynomials into them on the left, and
`primitive_by_fractions` sums PN_m with one Fraction per term of its
recurrence: the constructions the library used before it wrote every
operator as its symbol and summed PN_m over one denominator.
"""

from fractions import Fraction
from functools import cache, reduce
from itertools import combinations, permutations
from math import factorial
from operator import mul

from symtrace.charvar import MinorId, NotOnVarietyError
from symtrace.poly import Poly
from symtrace.spaces import check_space, sigma_eta_space, sigma_space, x_space
from symtrace.symfun import char_poly, family
from symtrace.weyl import WeylOp


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


def trace_characterization_x(k: int, p: WeylOp) -> bool:
    """Membership in the left ideal of the mixed second partials over x.

    In normal form that ideal is exactly the span of terms whose partial
    multi-index touches at least two coordinates, so p belongs iff no
    term concentrates its partials on a single coordinate.
    """
    check_space(p, x_space(k))
    for dexp, _ in p.sorted_terms():
        if sum(1 for e in dexp if e) < 2:
            return False
    return True


def _eta(k: int, h: int) -> Poly:
    return Poly.variable(sigma_eta_space(k), "eta", h)


def rewrite_table(k: int, i: int, j: int) -> tuple[dict[MinorId, Poly], Poly]:
    """Write eta_i eta_j = sum_a u_a m_a + eta_k v with u_a in Q[s] and v
    of eta-degree <= 1, by descending induction on the smaller index:

        eta_i eta_j = m_(i,j+1) + eta_{i-1} eta_{j+1}        (2 <= i <= j < k)
        eta_1 eta_j = m_(1,j+1) - sum_p s_p eta_p eta_{j+1}   (j < k)
        eta_i eta_k = eta_k * eta_i                           (base)

    Returns (u as {minor-id: eta-free Poly}, v), both over (sigma, eta).
    """
    if not (1 <= i <= k and 1 <= j <= k):
        raise ValueError("indices out of range")
    return _rewrite(k, min(i, j), max(i, j))


@cache  # keyed by i <= j
def _rewrite(k: int, i: int, j: int) -> tuple[dict[MinorId, Poly], Poly]:
    se = sigma_eta_space(k)
    if j == k:
        return {}, _eta(k, i)
    # every minor in a rewrite of eta_p eta_(j+1) has second index >= j + 2,
    # so m_(i,j+1) is not among them
    if i == 1:
        rows = [(Poly.variable(se, "sigma", p), *rewrite_table(k, p, j + 1)) for p in range(1, k + 1)]
        u = {mid: Poly.sum_of_products(se, ((s, up[mid], -1) for s, up, _ in rows if mid in up))
             for mid in dict.fromkeys(mid for _, up, _ in rows for mid in up)}
        v = Poly.sum_of_products(se, ((s, vp, -1) for s, _, vp in rows))
        return {(1, j + 1): Poly.one(se), **{mid: c for mid, c in u.items() if c}}, v
    up, vp = rewrite_table(k, i - 1, j + 1)
    return {**up, (i, j + 1): Poly.one(se)}, vp


def descend_by_table(blocks: dict[tuple[int, ...], Poly], k: int) -> dict[MinorId, Poly]:
    """The minor coefficients of an eta-homogeneous f, given as its eta-blocks f.collect("eta")."""
    se = sigma_eta_space(k)
    # the (u, w, 1) product triples of each minor coefficient, over all levels
    factors: dict[MinorId, list[tuple[Poly, Poly, int]]] = {}
    # f = eta_k^level * g modulo the minors, with blocks = g.collect("eta") and
    # the triples of the levels above in factors
    level, d = 0, max(map(sum, blocks), default=-1)
    while blocks:
        if d <= 1:
            # a nonzero eta-linear cofactor does not vanish on the variety
            raise NotOnVarietyError("polynomial does not vanish on the variety")
        # g = eta_k * rest + sum over (i, j) of eta_i eta_j * w_(i,j), where
        # eta_i eta_j is the first pair of eta factors of an eta_k-free block
        rest: list[Poly] = []
        groups: dict[tuple[int, int], list[Poly]] = {}
        for e, c in blocks.items():
            low = list(e)
            if e[-1]:
                low[-1] -= 1
                rest.append(c.embed(se, "eta", low))
                continue
            i = next(h for h in range(k) if low[h])
            low[i] -= 1
            j = next(h for h in range(k) if low[h])
            low[j] -= 1
            groups.setdefault((i + 1, j + 1), []).append(c.embed(se, "eta", low))
        lift = _eta(k, k) ** level
        vw = []
        for (i, j), ws in groups.items():
            w = Poly.sum(se, ws)
            u, v = rewrite_table(k, i, j)
            for mid, uc in u.items():
                factors.setdefault(mid, []).append((uc * lift, w, 1))
            vw.append((v, w, 1))
        # eta_i eta_j w = sum_a u_a m_a w + eta_k v w, so the next g is rest + sum v w
        g = Poly.sum(se, [*rest, Poly.sum_of_products(se, vw)])
        blocks, level, d = g.collect("eta"), level + 1, d - 1
    coeffs = {mid: Poly.sum_of_products(se, triples) for mid, triples in factors.items()}
    return {mid: c for mid, c in coeffs.items() if c}


def _d(k: int, h: int) -> WeylOp:
    return WeylOp.partial(sigma_space(k), h)


def op_A_by_products(k: int, p: int, q: int, i: int) -> WeylOp:
    """A(p,q,i) = d_p d_q - d_{p+i} d_{q-i} as a difference of products."""
    return _d(k, p) * _d(k, q) - _d(k, p + i) * _d(k, q - i)


def op_T_by_products(k: int, m: int) -> WeylOp:
    """T(m) = d_1 d_{m-1} + (sum_h s_h d_h) d_m + d_m as a sum of products."""
    S = sigma_space(k)
    euler_like = WeylOp.sum(S, (_d(k, h).left_mul_poly(Poly.variable(S, "sigma", h)) for h in range(1, k + 1)))
    return _d(k, 1) * _d(k, m - 1) + euler_like * _d(k, m) + _d(k, m)


def _s(k: int, h: int) -> Poly:
    """s_h over sigma_space(k), with s_0 = 1."""
    return Poly.one(sigma_space(k)) if h == 0 else Poly.variable(sigma_space(k), "sigma", h)


def op_T0_by_products(k: int, mu: int) -> WeylOp:
    """T0(mu) = sum_{h=0}^{k-1} s_h d_{k-mu-1} d_{h+1} + s_k d_{k-mu} d_k + d_{k-mu} as a sum of products."""
    lower = _d(k, k - mu - 1)
    return WeylOp.sum(sigma_space(k), [
        *((lower * _d(k, h + 1)).left_mul_poly(_s(k, h)) for h in range(k)),
        (_d(k, k - mu) * _d(k, k)).left_mul_poly(_s(k, k)),
        _d(k, k - mu),
    ])


def _field_by_products(k: int, coeffs) -> WeylOp:
    """The derivation sum_h c_h d_h with coefficients c_1..c_k in turn."""
    return WeylOp.sum(sigma_space(k), (_d(k, h).left_mul_poly(c) for h, c in enumerate(coeffs, 1)))


def op_U0_by_products(k: int) -> WeylOp:
    """U0 = sum_h h s_h d_h."""
    return _field_by_products(k, (_s(k, h).scale(h) for h in range(1, k + 1)))


def op_nabla_by_products(k: int) -> WeylOp:
    """nabla = sum_{h=0}^{k-1} (k-h) s_h d_{h+1}."""
    return _field_by_products(k, (_s(k, h).scale(k - h) for h in range(k)))


def elementary_symmetric_op_by_products(k: int, h: int) -> WeylOp:
    """S_h = sum over index sets of size h of the product of the x-partials in it."""
    X = x_space(k)
    return WeylOp.sum(X, (reduce(mul, (WeylOp.partial(X, i) for i in subset))
                          for subset in combinations(range(1, k + 1), h)))


def u_operator_by_products(k: int, d: int) -> WeylOp:
    """U_d = sum_j x_j^d d/dx_j, each x_j^d multiplied into d/dx_j on the left."""
    X = x_space(k)
    return WeylOp.sum(X, (WeylOp.partial(X, j).left_mul_poly(Poly.variable(X, "x", j) ** d)
                          for j in range(1, k + 1)))


def primitive_by_fractions(k: int, m: int) -> Poly:
    """PN_m = -sum_h c_h N_(m-h)/(m-h), h <= min(k, m-1), with the
    coefficient -1/(m-h) on each product."""
    S = sigma_space(k)
    row = char_poly([Poly.variable(S, "sigma", h) for h in range(1, k + 1)], Poly.one(S))
    return Poly.sum_of_products(S, ((row[h], family(k).newton(m - h), Fraction(-1, m - h))
                                    for h in range(min(k, m - 1) + 1)))
