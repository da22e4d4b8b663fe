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

from dataclasses import dataclass
from itertools import chain

from .annihilators import check_images, default_max_m, family_members, generator_system
from .charvar import NotOnVarietyError, decompose_in_minors, minor_generator
from .poly import Poly
from .spaces import check_space, sigma_space
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


@dataclass(frozen=True)
class MembershipCertificate:
    """p = sum_i cofactor_i . generator_i + remainder, exactly."""

    k: int
    entries: tuple[tuple[str, WeylOp], ...]
    remainder: WeylOp
    newton_bound: int
    failing_newton_index: int | None = None

    @property
    def is_member(self) -> bool:
        return self.remainder.is_zero()


def reduce_modulo_system(p: WeylOp, k: int, newton_bound: int | None = None) -> MembershipCertificate:
    """Reduce an operator modulo the trace annihilator system.

    Returns a certificate with remainder zero for members.  Operators
    that fail to kill some N_m with m <= newton_bound come back as
    non-members carrying the failing index and themselves as remainder.
    The descent asserts strictly decreasing order at every step.
    """
    if p.is_zero():
        raise ValueError("the zero operator is a trivial member; nothing to reduce")
    check_space(p, sigma_space(k))
    bound = default_max_m(k, p.order()) if newton_bound is None else newton_bound
    fails = check_images({"p": p}, family_members(k, "newton", bound))
    if fails:
        return MembershipCertificate(k, (), p, bound, fails["p"].m)

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

    entries = tuple(sorted((gid, WeylOp.sum(p.space, cofs)) for gid, cofs in pieces.items()))
    if q.is_zero():
        return MembershipCertificate(k, entries, q, bound)
    # order <= 1: killing N_0..N_k forces zero, so a nonzero tail here
    # means the bound was too small to rule out a non-member earlier
    fails = check_images({"tail": q}, family_members(k, "newton", k))
    if not fails:
        raise AssertionError("order-one tail kills N_0..N_k but is nonzero")
    return MembershipCertificate(k, entries, q, bound, fails["tail"].m)


def verify_certificate(p: WeylOp, cert: MembershipCertificate) -> bool:
    """Exact recombination: sum cofactor . generator + remainder == p, each product drawn once and not kept."""
    gens = generator_system(cert.k, "newton")
    return WeylOp.sum(sigma_space(cert.k), chain([cert.remainder], (cof * gens[gid] for gid, cof in cert.entries))) == p

