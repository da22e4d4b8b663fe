"""The explicit second-order annihilator system of the trace functions.

Generators over sigma-space:

    A(p,q,i) = d_p d_q - d_{p+i} d_{q-i}          p, q, p+i, q-i in [1,k]
    T(m)     = d_1 d_{m-1} + (sum_h s_h d_h) d_m + d_m     m in [2,k]

with companions: the integral-formula forms T0(mu), the Euler operator
U0 = sum h s_h d_h and the lowering derivation nabla.

The system has three shifted forms, one per family of the table
`FAMILIES`: each keeps the A(p,q,1) and adds c d_m to T(m), c = 0 for
the power sums N_m, +1 for DN_m and -1 for PN_m.  The table also holds
each family's first index, T-type generator id and verify suite;
`generator_system`, `family_members`, `gen --family` and the suites
that take --max-m all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .poly import Poly
from .spaces import sigma_space
from .symfun import NewtonFamily
from .symfun import family as newton_family
from .weyl import WeylOp


def _partial(k: int, h: int) -> WeylOp:
    return WeylOp.partial(sigma_space(k), h)


def _s(k: int, h: int) -> Poly:
    """s_h over sigma_space(k), with s_0 = 1."""
    return Poly.one(sigma_space(k)) if h == 0 else Poly.variable(sigma_space(k), "sigma", h)


def op_A(k: int, p: int, q: int, i: int) -> WeylOp:
    """d_p d_q - d_{p+i} d_{q-i}; zero when the two pairs coincide."""
    for name, idx in (("p", p), ("q", q), ("p+i", p + i), ("q-i", q - i)):
        if not 1 <= idx <= k:
            raise ValueError(f"index {name}={idx} out of range [1,{k}]")
    return _partial(k, p) * _partial(k, q) - _partial(k, p + i) * _partial(k, q - i)


def op_T(k: int, m: int) -> WeylOp:
    """d_1 d_{m-1} + (sum_h s_h d_h) d_m + d_m."""
    if not 2 <= m <= k:
        raise ValueError(f"need 2 <= m <= k, got m={m}")
    euler_like = euler_field(k)
    return _partial(k, 1) * _partial(k, m - 1) + euler_like * _partial(k, m) + _partial(k, m)


def op_T0(k: int, mu: int) -> WeylOp:
    """sum_{h=0}^{k-1} s_h d_{k-mu-1} d_{h+1} + s_k d_{k-mu} d_k + d_{k-mu}, s_0 = 1."""
    if not 0 <= mu <= k - 2:
        raise ValueError(f"need 0 <= mu <= k-2, got mu={mu}")
    lower = _partial(k, k - mu - 1)
    return WeylOp.sum(sigma_space(k), [
        *((lower * _partial(k, h + 1)).left_mul_poly(_s(k, h)) for h in range(k)),
        (_partial(k, k - mu) * _partial(k, k)).left_mul_poly(_s(k, k)),
        _partial(k, k - mu),
    ])


def _field(k: int, coeffs) -> WeylOp:
    """The derivation sum_h c_h d_h with coefficients c_1..c_k in turn."""
    return WeylOp.sum(sigma_space(k), (_partial(k, h).left_mul_poly(c) for h, c in enumerate(coeffs, 1)))


def euler_field(k: int) -> WeylOp:
    """sum_h s_h d_h (the unweighted Euler-type field inside T(m))."""
    return _field(k, (_s(k, h) for h in range(1, k + 1)))


def op_U0(k: int) -> WeylOp:
    """The weight operator U0 = sum_h h s_h d_h."""
    return _field(k, (_s(k, h).scale(h) for h in range(1, k + 1)))


def op_nabla(k: int) -> WeylOp:
    """The lowering derivation sum_{h=0}^{k-1} (k-h) s_h d_{h+1}, s_0 = 1."""
    return _field(k, (_s(k, h).scale(k - h) for h in range(k)))


def a_pairs(k: int):
    """The (p, q) of the nonzero A(p,q,1), in generator order."""
    for p in range(1, k):
        for q in range(2, k + 1):
            if p != q - 1:  # those give the zero operator
                yield p, q


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


def generator_system(k: int, family: str) -> dict[str, WeylOp]:
    """The system killing a family of `FAMILIES` as id -> generator, the
    A(p,q,1) first, then the T(m) + tail d_m."""
    if k < 2:
        raise ValueError("the system needs k >= 2")
    fam = _family(family)
    gens = {f"A({p},{q},1)": op_A(k, p, q, 1) for p, q in a_pairs(k)}
    for m in range(2, k + 1):
        gens[fam.t_id.format(m=m)] = op_T(k, m) + _partial(k, m).scale(fam.tail)
    return gens


def family_members(k: int, family: str, max_m: int) -> Iterator[tuple[int, Poly]]:
    """Yield (m, member) lazily from the family's first index up to max_m."""
    fam = _family(family)
    for m in range(fam.start(k), max_m + 1):
        yield m, fam.member(newton_family(k), m)


@dataclass(frozen=True)
class Witness:
    """The first member an operator fails on: its index m and the nonzero
    image (less the expected image, where one is given)."""

    op: str
    m: int
    image: Poly


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
