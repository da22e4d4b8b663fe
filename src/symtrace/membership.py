"""Left-ideal membership certificates by symbol descent.

An operator that kills the power-sum family has a symbol vanishing on
the characteristic variety; decomposing the symbol in the minors and
lifting each minor to its generator produces a lower-order difference,
and iterating yields an explicit left-ideal representation.  The base
case is order <= 1: such an operator killing N_0..N_k is necessarily
zero (the gradient matrix of the power sums is lower triangular with
constant nonzero diagonal).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from .annihilators import check_images, family_members, generator_system
from .charvar import NotOnVarietyError, decompose_in_minors, minor_generator
from .poly import Poly
from .spaces import sigma_space, x_space
from .weyl import WeylOp


class SymbolDescentError(RuntimeError):
    """Newton checks passed up to the bound, yet the symbol misses the variety.

    By the published theory this cannot happen for a true annihilator;
    it signals either a too-small bound or a transcription problem.
    """

    def __init__(self, witness: Poly, bound: int):
        self.witness = witness
        self.bound = bound
        super().__init__(
            f"bound too low or paper-contradiction: symbol {witness} does not "
            f"vanish on the variety although N_m annihilation holds for m <= {bound}"
        )


@dataclass
class MembershipCertificate:
    """p = sum_i cofactor_i . generator_i + remainder, exactly."""

    k: int
    entries: list[tuple[str, WeylOp]] = field(default_factory=list)
    remainder: WeylOp | None = None
    newton_bound: int = 0
    failing_newton_index: int | None = None

    @property
    def is_member(self) -> bool:
        return self.remainder is not None and self.remainder.is_zero()


def default_newton_bound(p: WeylOp, k: int) -> int:
    return max(p.order(), 0) + 2 * k + 4


def reduce_modulo_system(p: WeylOp, k: int, newton_bound: int | None = None) -> MembershipCertificate:
    """Reduce an operator modulo the trace annihilator system.

    Returns a certificate with remainder zero for members.  Operators
    that fail to kill some N_m with m <= newton_bound come back as
    non-members carrying the failing index and themselves as remainder.
    The descent asserts strictly decreasing order at every step.
    """
    if p.is_zero():
        raise ValueError("the zero operator is a trivial member; nothing to reduce")
    if p.space != sigma_space(k):
        raise ValueError(f"expected an operator over {sigma_space(k)}")
    bound = default_newton_bound(p, k) if newton_bound is None else newton_bound
    cert = MembershipCertificate(k=k, newton_bound=bound)
    fails = check_images({"p": p}, family_members(k, "newton", bound))
    if fails:
        cert.remainder = p
        cert.failing_newton_index = fails["p"].m
        return cert

    gens = generator_system(k, "newton")
    # the cofactor pieces of each generator, one per descent step it enters
    pieces: dict[str, list[WeylOp]] = {}
    q = p
    while q.order() >= 2:
        s = q.symbol()
        try:
            parts = decompose_in_minors(s, k)
        except NotOnVarietyError:
            raise SymbolDescentError(s, bound) from None
        step = []
        for mid, c in parts.items():
            gid, sign = minor_generator(mid)
            cof = WeylOp.of_symbol(c.scale(sign))
            pieces.setdefault(gid, []).append(cof)
            step.append((cof, gens[gid]))
        q_next = q - WeylOp.sum(q.space, (cof * gen for cof, gen in step))
        if not q_next.is_zero() and q_next.order() >= q.order():
            raise AssertionError("symbol descent failed to lower the order")
        q = q_next

    cert.entries = sorted((gid, WeylOp.sum(p.space, cofs)) for gid, cofs in pieces.items())
    cert.remainder = q
    if not q.is_zero():
        # order <= 1: killing N_0..N_k forces zero, so a nonzero tail here
        # means the bound was too small to rule out a non-member earlier
        fails = check_images({"tail": q}, family_members(k, "newton", k))
        if not fails:
            raise AssertionError("order-one tail kills N_0..N_k but is nonzero")
        cert.failing_newton_index = fails["tail"].m
    return cert


def verify_certificate(p: WeylOp, cert: MembershipCertificate, k: int) -> bool:
    """Exact recombination: sum cofactor . generator + remainder == p."""
    gens = generator_system(k, "newton")
    rest = () if cert.remainder is None else (cert.remainder,)
    return WeylOp.sum(sigma_space(k), chain((cof * gens[gid] for gid, cof in cert.entries), rest)) == p


def trace_characterization_x(k: int, p: WeylOp) -> bool:
    """Membership in the left ideal of the mixed second partials over x.

    In normal form that ideal is exactly the span of terms whose partial
    multi-index touches at least two coordinates, so p belongs iff no
    term concentrates its partials on a single coordinate.
    """
    if p.space != x_space(k):
        raise ValueError(f"expected an operator over {x_space(k)}")
    for dexp in p.terms:
        if sum(1 for e in dexp if e) < 2:
            return False
    return True
