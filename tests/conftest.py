"""Shared helpers for the exact test suite."""

from __future__ import annotations

import inspect
import random
import sys
from contextlib import contextmanager
from fractions import Fraction

from symtrace.poly import Poly
from symtrace.spaces import sigma_space, x_space


def pytest_runtest_logreport(report):
    # keep the one-line-per-criterion contract of the acceptance suite
    # even on failures (passes print their own ACCEPTANCE line)
    if report.when == "call" and report.failed and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1].removeprefix("test_criterion_").replace("_", "-")
        print(f"\nACCEPTANCE {name}: FAIL")


@contextmanager
def shallow_stack(frames: int = 150):
    """Cap the recursion limit at the current depth plus frames, so code
    that recurses once per unit of a size in the hundreds fails inside."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def rational_point(rng: random.Random, k: int, lo: int = -9, hi: int = 9, den: int = 4):
    """A tuple of k random small rationals."""
    return tuple(Fraction(rng.randint(lo, hi), rng.randint(1, den)) for _ in range(k))


def distinct_rational_point(rng: random.Random, k: int):
    """k pairwise-distinct rationals (square-free root configuration)."""
    while True:
        pt = rational_point(rng, k)
        if len(set(pt)) == k:
            return pt


def elementary_values(xs):
    """Exact values of the elementary symmetric functions at a point."""
    k = len(xs)
    e = [Fraction(1)] + [Fraction(0)] * k
    for x in xs:
        for h in range(k, 0, -1):
            e[h] += x * e[h - 1]
    return tuple(e[1:])


def dpoly_at_root(xs, j):
    """P'(x_j) for the monic polynomial with roots xs: prod_{l != j} (x_j - x_l)."""
    acc = Fraction(1)
    for l, x in enumerate(xs):
        if l != j:
            acc *= xs[j] - x
    return acc


def random_sigma_poly(rng: random.Random, k: int, max_deg: int = 2, n_terms: int = 3) -> Poly:
    space = sigma_space(k)
    terms = {}
    for _ in range(n_terms):
        exp = [0] * k
        for _ in range(rng.randint(0, max_deg)):
            exp[rng.randint(0, k - 1)] += 1
        terms[tuple(exp)] = Fraction(rng.randint(-4, 4))
    return Poly(space, terms)


def random_x_poly(rng: random.Random, k: int, max_deg: int = 3, n_terms: int = 4) -> Poly:
    space = x_space(k)
    terms = {}
    for _ in range(n_terms):
        exp = [0] * k
        for _ in range(rng.randint(0, max_deg)):
            exp[rng.randint(0, k - 1)] += 1
        terms[tuple(exp)] = Fraction(rng.randint(-4, 4))
    return Poly(space, terms)
