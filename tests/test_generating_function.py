"""Annihilation of a whole family at once, through its generating function.

P_s(z) = z^k - s_1 z^(k-1) + .. + (-1)^k s_k is affine in s, with
d_{s_h} P = (-1)^h z^(k-h), so for |beta| = n

    d^beta log P = (-1)^(n-1) (n-1)! prod_h (d_h P)^(beta_h) / P^n     (n >= 1)
    d^beta (1/P) = (-1)^n n! prod_h (d_h P)^(beta_h) / P^(n+1).

Since sum_m N_m z^(-m-1) = d_z log P and sum_m DN_m z^(-m-k) = 1/P
(Macdonald, *Symmetric Functions and Hall Polynomials*, ch. I), an
operator G = sum_beta a_beta d^beta of order d with no order-0 part
kills every N_m if and only if

    N_G = sum_beta a_beta (-1)^(n-1) (n-1)! prod_h (d_h P)^(beta_h) P^(d-n)

is 0 in Q[s, z], and G kills every DN_m if and only if the same sum with
the factor (-1)^n n! is 0.  The check reads the operator's terms through
``sorted_terms()`` and builds P here, so it shares no code with
``WeylOp.apply``, ``NewtonFamily`` or ``symfun``; t plays z.
"""

from functools import cache
from math import factorial

import pytest

from symtrace.annihilators import generator_system, op_T0
from symtrace.poly import Poly
from symtrace.spaces import sigma_aux_space, sigma_eta_space, sigma_space
from symtrace.weyl import WeylOp


def _log_factor(n: int) -> int:
    if n < 1:
        raise ValueError("the power-sum check takes no order-0 part")
    return (-1) ** (n - 1) * factorial(n - 1)


FACTORS = {"newton": _log_factor, "dnewton": lambda n: (-1) ** n * factorial(n)}


@cache
def p_powers(k: int, d: int) -> list[Poly]:
    """P_s^0 .. P_s^d over (sigma, t)."""
    space = sigma_aux_space(k)
    P = Poly.sum(space, (Poly.monomial(space, [int(i == h - 1) for i in range(k)] + [k - h], (-1) ** h)
                         for h in range(k + 1)))
    return [P ** j for j in range(d + 1)]


def numerator(G: WeylOp, k: int, family: str) -> Poly:
    """N_G over (sigma, t) for the family's factor."""
    space = sigma_aux_space(k)
    d = G.order()
    powers = p_powers(k, d)
    triples = []
    for beta, a in G.sorted_terms():
        n = sum(beta)
        # prod_h (d_h P)^(beta_h) = (-1)^(sum h beta_h) t^(sum (k-h) beta_h)
        sign = (-1) ** sum(h * b for h, b in enumerate(beta, 1))
        z_degree = sum((k - h) * b for h, b in enumerate(beta, 1))
        lifted = Poly(space, {exp + (z_degree,): c for exp, c in a.sorted_terms()})
        triples.append((lifted, powers[d - n], sign * FACTORS[family](n)))
    return Poly.sum_of_products(space, triples)


@pytest.mark.parametrize("family", ["newton", "dnewton"])
def test_every_generator_kills_its_whole_family(family):
    for k in range(2, 21):
        for gid, G in generator_system(k, family).items():
            assert numerator(G, k, family).is_zero(), (k, gid)


def test_every_T0_kills_every_power_sum():
    for k in range(2, 21):
        for mu in range(k - 1):
            assert numerator(op_T0(k, mu), k, "newton").is_zero(), (k, mu)


@pytest.mark.parametrize("family", ["newton", "dnewton"])
def test_an_added_partial_or_a_changed_coefficient_fails(family):
    for k in (2, 3, 6):
        se = sigma_eta_space(k)
        for gid, G in generator_system(k, family).items():
            for h in range(1, k + 1):
                mutant = G + WeylOp.partial(sigma_space(k), h)
                assert not numerator(mutant, k, family).is_zero(), (k, gid, h)
            for beta, _ in (G.sorted_terms()[0], G.sorted_terms()[-1]):
                for step in (1, -1):
                    mutant = G + WeylOp.of_symbol(Poly.monomial(se, (0,) * k + beta, step))
                    assert not numerator(mutant, k, family).is_zero(), (k, gid, beta, step)
