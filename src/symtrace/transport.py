"""Transport of symmetric differential operators to sigma-coordinates.

The central map takes an S_k-invariant operator P in the x-variables to
the unique operator Q of the same order d in the sigma-variables with
Q[F] o s = P[F o s] for every polynomial F.  Its images on monomials,
R_beta = theta(P[s^beta]) = Q[sigma^beta] with theta the reduction of a
symmetric polynomial to sigma-coordinates, give every coefficient a_beta
of d^beta in Q in closed form: expanding Q[(u - sigma)^beta] at u = sigma
(Taylor's formula for the coefficients of a differential operator) yields

    beta! * a_beta = sum_{beta' <= beta} binom(beta, beta') (-sigma)^(beta - beta') R_beta'

with binom(beta, beta') = prod_h C(beta_h, beta'_h) and beta' running over
the componentwise-smaller multi-indices.  Each coefficient depends on the
images alone, so multi-indices of total degree <= d may come in any
order.

The images never leave partition coefficients, the dicts lam -> f[x^lam]
over non-increasing exponents that fix a symmetric x-polynomial
(Macdonald, *Symmetric Functions and Hall Polynomials*, ch. I).  Three
exact rules carry them:

- e-products: s^beta is built one factor at a time by
  [x^mu](e_r f) = sum over r-subsets S with mu_S >= 1 of f[sort(mu - 1_S)]
  (`symfun.e_times`);
- applying an operator: for a term c x^alpha d^beta and alpha <= lam,
  [x^lam](c x^alpha d^beta f) = c (lam-alpha+beta)!/(lam-alpha)! f[sort(lam-alpha+beta)].
  The term set of a symmetric operator is closed under permuting alpha
  and beta together, so the partitions sort(nu - beta + alpha), over the
  partitions nu of f with nu >= beta, are every candidate lam;
- reduction: the leading-term descent over partitions
  (`symfun.reduce_partitions`).

The apply rule is sound only for symmetric operators, so it takes a
`SymmetricOperator`, whose construction checks the invariance.

`decompose_derivation` reads P_s and Theta_h(z, s) from `symfun`, where
P_s's coefficient row is written once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import comb, factorial, perm, prod
from operator import add, ge, sub

from .poly import Poly, _canon
from .spaces import check_space, sigma_aux_space, sigma_space, x_space, x_xi_space
from .symfun import (
    NotSymmetricError,
    _partition,
    char_poly,
    e_product,
    horner,
    reduce_partitions,
    reduce_to_sigma,
    sigma_to_x,
    theta,
)
from .weyl import WeylOp


@dataclass(frozen=True)
class SymmetricOperator:
    """An operator in the x-variables, checked invariant under S_k."""

    op: WeylOp
    k: int

    def __post_init__(self):
        check_space(self.op, x_space(self.k))
        for i in range(1, self.k):
            if self.op.swap(i, i + 1) != self.op:
                raise NotSymmetricError("x", i, i + 1)

    def order(self) -> int:
        return self.op.order()


def elementary_symmetric_op(k: int, h: int) -> SymmetricOperator:
    """S_h = sum over index sets of size h of the mixed partial in those x's, as its symbol e_h(xi)."""
    if not 1 <= h <= k:
        raise ValueError(f"need 1 <= h <= k, got h={h}")
    xx = x_xi_space(k)
    symbol = Poly.sum(xx, (Poly.monomial(xx, [0] * k + [int(i in subset) for i in range(k)])
                           for subset in combinations(range(k), h)))
    return SymmetricOperator(WeylOp.of_symbol(symbol), k)


def u_operator(k: int, d: int) -> WeylOp:
    """U_d = sum_j x_j^d d/dx_j over the x-variables, written as its symbol sum_j x_j^d xi_j."""
    if d < 0:
        raise ValueError("derivation degree must be >= 0")
    xx = x_xi_space(k)
    return WeylOp.of_symbol(Poly.sum(xx, (
        Poly.monomial(xx, [d * (i == j) for i in range(k)] + [int(i == j) for i in range(k)]) for j in range(k))))


def _multi_indices(k: int, max_total: int):
    """All exponent tuples of length k with total degree <= max_total."""
    return [tuple(c.count(h) for h in range(1, k + 1))
            for c in combinations_with_replacement(range(k + 1), max_total)]


def apply_partitions(p: SymmetricOperator, f: dict) -> dict:
    """P[f] on partition coefficients, by the apply rule of the module docstring."""
    terms = [(alpha, beta, c) for beta, coeff in p.op.sorted_terms() for alpha, c in coeff.sorted_terms()]
    candidates = {_partition(map(add, map(sub, nu, beta), alpha))
                  for alpha, beta, _ in terms for nu in f if all(map(ge, nu, beta))}
    out = {}
    for lam in candidates:
        acc = 0
        for alpha, beta, c in terms:
            if all(map(ge, lam, alpha)):
                nu = tuple(map(add, map(sub, lam, alpha), beta))
                v = f.get(_partition(nu))
                if v:
                    acc += c * v * prod(map(perm, nu, beta))
        if acc:
            out[lam] = _canon(acc)
    return out


def xi_transport(p: SymmetricOperator) -> WeylOp:
    """Rewrite a symmetric x-operator as the sigma-coordinate operator
    acting identically on symmetric polynomials (see module docstring)."""
    k = p.k
    target = sigma_space(k)
    products: dict = {}  # the e-products of this call, shared by the images and the descents
    images = {beta: reduce_partitions(apply_partitions(p, e_product(k, beta, products)), k, products)
              for beta in _multi_indices(k, max(p.order(), 0))}
    # (-sigma)^gap once per gap: every gap beta - beta' is itself one of the beta
    signed = {gap: Poly.monomial(target, gap, -1 if sum(gap) % 2 else 1) for gap in images}
    coeffs: dict[tuple[int, ...], Poly] = {}
    for beta in images:
        taylor = Poly.sum_of_products(target, (
            (signed[tuple(map(sub, beta, low))], images[low], prod(map(comb, beta, low)))
            for low in product(*(range(b + 1) for b in beta))))
        coeffs[beta] = taylor.scale(Fraction(1, prod(map(factorial, beta))))
    return WeylOp(target, coeffs)


def decompose_derivation(d: SymmetricOperator) -> list[tuple[int, Poly]]:
    """Write a symmetric derivation as sum_p b_p(s) U_p with p in [0, k-1].

    The coefficient of d/dx_1 is rearranged into the free-module basis
    1, x_1, .., x_1^(k-1) over Q[s_1..s_k]: its x_1-coefficients are
    symmetric in the remaining variables, get reduced to the elementary
    symmetric functions of those, which are rewritten through
    s_h(without x_1) = sum_q s_{h-q} (-x_1)^q, and powers x_1^k and
    above fall back through the monic relation of the defining
    polynomial.  The result is verified by exact reconstruction.
    """
    k = d.k
    op = d.op
    if op.is_zero():
        return []
    if op.order() != 1 or any(sum(b) == 0 for b, _ in op.sorted_terms()):
        raise ValueError("input must be a derivation: order 1 with no order-0 part")
    space = sigma_aux_space(k)  # t plays x_1
    t = Poly.variable(space, "t")

    a1 = op.coefficient(tuple([1] + [0] * (k - 1)))
    if k == 1:
        acc = Poly.sum(space, (t ** exp[0] * c for exp, c in a1.sorted_terms()))
    else:
        buckets: dict[int, dict[tuple[int, ...], Fraction]] = {}
        for exp, c in a1.sorted_terms():
            buckets.setdefault(exp[0], {})[exp[1:]] = c
        # e_h(x_2..x_k) = Theta_(h+1)(x_1, s), with t playing x_1
        images = {("sigma", h): theta(k, h + 1) for h in range(1, k)}
        acc = Poly.sum(space, (
            reduce_to_sigma(Poly(x_space(k - 1), rest), k - 1).compose(space, images)
            * t ** x1_exp
            for x1_exp, rest in sorted(buckets.items())))
    acc = _reduce_aux_powers(acc, k)

    out: list[tuple[int, Poly]] = []
    for t_exp, b in acc.collect("t").items():
        if not b.is_zero():
            out.append((t_exp[0], b))
    out.sort(key=lambda pair: pair[0])

    rebuilt = WeylOp.sum(x_space(k), (u_operator(k, p_low).left_mul_poly(sigma_to_x(b, k))
                                      for p_low, b in out))
    if rebuilt != op:
        raise AssertionError("derivation decomposition failed to reconstruct the input")
    return out


def _reduce_aux_powers(p: Poly, k: int) -> Poly:
    """Rewrite t^k as t^k - P_s(t) until the t-degree is < k."""
    space = p.space
    t = Poly.variable(space, "t")
    row = char_poly([Poly.variable(space, "sigma", h) for h in range(1, k + 1)], Poly.one(space))
    step = t ** k - horner(row, t)
    while p.degree_in("t") >= k:
        p = Poly.sum(space, (b.embed(space, "t", (e - k,)) * step if e >= k else b.embed(space, "t", (e,))
                             for (e,), b in p.collect("t").items()))
    return p
