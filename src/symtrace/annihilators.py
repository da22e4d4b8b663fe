"""The explicit second-order annihilator system of the trace functions.

Generators over sigma-space:

    A(p,q,i) = d_p d_q - d_{p+i} d_{q-i}          p, q, p+i, q-i in [1,k]
    T(m)     = d_1 d_{m-1} + (sum_h s_h d_h) d_m + d_m     m in [2,k]

with companions: the integral-formula forms T0(mu), the Euler operator
U0 = sum h s_h d_h and the lowering derivation nabla.  Every generator
and companion is written as its symbol, d_h as eta_h, and no operator is
multiplied to build one; their definitions as products of partials are
the tests' oracle.

The system has three shifted forms, one per family of the table
`FAMILIES`: each keeps the A(p,q,1) and adds c d_m to T(m), c = 0 for
the power sums N_m, +1 for DN_m and -1 for PN_m.  The table also holds
each family's first index, T-type generator id and verify suite;
`generator_system`, `family_members`, `gen --family` and the suites
that take --max-m all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .poly import Poly
from .spaces import sigma_eta_space, sigma_space
from .symfun import NewtonFamily
from .symfun import family as newton_family
from .weyl import WeylOp


def _eta(k: int, *hs: int) -> Poly:
    """The symbol eta_h1 eta_h2 .. of d_h1 d_h2 .., over sigma_eta_space(k)."""
    return Poly.monomial(sigma_eta_space(k), [0] * k + [hs.count(h) for h in range(1, k + 1)])


def _s(k: int, h: int) -> Poly:
    """s_h over sigma_eta_space(k), with s_0 = 1."""
    return Poly.one(sigma_eta_space(k)) if h == 0 else Poly.variable(sigma_eta_space(k), "sigma", h)


def op_A(k: int, p: int, q: int, i: int) -> WeylOp:
    """d_p d_q - d_{p+i} d_{q-i}; zero when the two pairs coincide."""
    for name, idx in (("p", p), ("q", q), ("p+i", p + i), ("q-i", q - i)):
        if not 1 <= idx <= k:
            raise ValueError(f"index {name}={idx} out of range [1,{k}]")
    return WeylOp.of_symbol(_eta(k, p, q) - _eta(k, p + i, q - i))


def op_T(k: int, m: int) -> WeylOp:
    """d_1 d_{m-1} + (sum_h s_h d_h) d_m + d_m."""
    if not 2 <= m <= k:
        raise ValueError(f"need 2 <= m <= k, got m={m}")
    return WeylOp.of_symbol(Poly.sum(sigma_eta_space(k), [
        _eta(k, 1, m - 1), _eta(k, m), *(_s(k, h) * _eta(k, h, m) for h in range(1, k + 1))]))


def op_T0(k: int, mu: int) -> WeylOp:
    """sum_{h=0}^{k-1} s_h d_{k-mu-1} d_{h+1} + s_k d_{k-mu} d_k + d_{k-mu}, s_0 = 1."""
    if not 0 <= mu <= k - 2:
        raise ValueError(f"need 0 <= mu <= k-2, got mu={mu}")
    return WeylOp.of_symbol(Poly.sum(sigma_eta_space(k), [
        *(_s(k, h) * _eta(k, k - mu - 1, h + 1) for h in range(k)),
        _s(k, k) * _eta(k, k - mu, k), _eta(k, k - mu)]))


def op_U0(k: int) -> WeylOp:
    """The weight operator U0 = sum_h h s_h d_h."""
    return WeylOp.of_symbol(Poly.sum(sigma_eta_space(k), (
        _s(k, h).scale(h) * _eta(k, h) for h in range(1, k + 1))))


def op_nabla(k: int) -> WeylOp:
    """The lowering derivation sum_{h=0}^{k-1} (k-h) s_h d_{h+1}, s_0 = 1."""
    return WeylOp.of_symbol(Poly.sum(sigma_eta_space(k), (
        _s(k, h).scale(k - h) * _eta(k, h + 1) for h in range(k))))


def a_pairs(k: int):
    """The (p, q) of the nonzero A(p,q,1), in generator order."""
    for p in range(1, k):
        for q in range(2, k + 1):
            if p != q - 1:  # those give the zero operator
                yield p, q


A_ID = "A({p},{q},1)"  # the id of A(p,q,1) in a generator system, formatted with p and q


class Family(NamedTuple):
    """One shifted form of the system: the family that T(m) + tail d_m and the A(p,q,1) kill."""

    start: Callable[[int], int]  # the first index, given k
    member: Callable[[NewtonFamily, int], Poly]
    t_id: str  # the id of the T-type generator, formatted with m
    tail: int
    suite: str  # the verify suite that checks it


FAMILIES = {
    "newton": Family(lambda k: 0, NewtonFamily.newton, "T({m})", 0, "system"),
    # the seeds DN_{-k+1}..DN_{-1} are zero
    "dnewton": Family(lambda k: 1 - k, NewtonFamily.derived, "T~({m})", 1, "forms"),
    "pnewton": Family(lambda k: 1, NewtonFamily.primitive, "T({m})-d{m}", -1, "primitive"),
}


def _family(name: str) -> Family:
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    return FAMILIES[name]


def generator_system(k: int, family: str) -> Mapping[str, WeylOp]:
    """The system killing a family of `FAMILIES`, built once, as a read-only
    map id -> generator: the A(p,q,1) first, then the T(m) + tail d_m."""
    return _systems(k, family)


@cache  # generator_system stays a plain function for bench/tracer.py, as `symfun.family` does
def _systems(k: int, family: str) -> Mapping[str, WeylOp]:
    if k < 2:
        raise ValueError("the system needs k >= 2")
    fam = _family(family)
    gens = {A_ID.format(p=p, q=q): op_A(k, p, q, 1) for p, q in a_pairs(k)}
    for m in range(2, k + 1):
        gens[fam.t_id.format(m=m)] = op_T(k, m) + WeylOp.partial(sigma_space(k), m).scale(fam.tail)
    return MappingProxyType(gens)


def default_max_m(k: int, order: int = 2) -> int:
    """The last family index a check of an operator of the given order
    draws by default; the generators are second order."""
    return order + 2 * k + 4


def family_members(k: int, family: str, max_m: int) -> Iterator[tuple[int, Poly]]:
    """Yield (m, member) lazily from the family's first index up to max_m."""
    fam = _family(family)
    for m in range(fam.start(k), max_m + 1):
        yield m, fam.member(newton_family(k), m)


@dataclass(frozen=True)
class Witness:
    """Where a check first fails.  For a family check: the operator id, the
    member index m and the nonzero image (less the expected image, where
    one is given).  For an identity check: the case label in op, m None,
    and the residual lhs - rhs."""

    op: str
    m: int | None
    image: Poly | WeylOp | Fraction | str


def check_images(
    ops: Mapping[str, WeylOp],
    members: Iterable[tuple[int, Poly]],
    expected: Callable[[str, int], Poly | None] | None = None,
) -> dict[str, Witness]:
    """Apply every op to every (m, f_m) and return the first witness
    of each op whose image is not zero, or not `expected(id, m)` where that
    is not None, keyed by op id.

    Members are drawn lazily, one at a time, and all ops applied to one
    member share its derivative memo.  An op stops at its first failing m,
    and no member is drawn once every op has failed.  Members that yield
    nothing would make the check vacuous, so they raise ValueError.
    """
    pending = list(ops.items())
    failures: dict[str, Witness] = {}
    m = None
    for m, f in members:
        derivs: dict = {}
        still = []
        for gid, op in pending:
            image = op.apply(f, derivs)
            want = None if expected is None else expected(gid, m)
            if want is not None:
                image = image - want
            if image:
                failures[gid] = Witness(gid, m, image)
            else:
                still.append((gid, op))
        pending = still
        if not pending:
            break
    if m is None:
        raise ValueError("no family member to check: the bound is below the family's first index")
    return failures
