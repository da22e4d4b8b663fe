"""The explicit second-order annihilator system of the trace functions.

Generators over sigma-space:

    A(p,q,i) = d_p d_q - d_{p+i} d_{q-i}          p, q, p+i, q-i in [1,k]
    T(m)     = d_1 d_{m-1} + (sum_h s_h d_h) d_m + d_m     m in [2,k]

with companions: the integral-formula forms T0(mu), the Euler operator
U0 = sum h s_h d_h, the lowering derivation nabla, and the variants
T(m) +/- d_m annihilating the derived and primitive families.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

from .poly import Poly
from .spaces import sigma_space
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


def op_variants(k: int, m: int, which: str) -> WeylOp:
    """T(m) + d_m ("forms") or T(m) - d_m ("primitive")."""
    if which == "forms":
        return op_T(k, m) + _partial(k, m)
    if which == "primitive":
        return op_T(k, m) - _partial(k, m)
    raise ValueError(f"unknown variant {which!r}")


def _a_pairs(k: int):
    for p in range(1, k):
        for q in range(2, k + 1):
            if p != q - 1:  # those give the zero operator
                yield p, q


def generator_system(k: int, variant: str = "trace") -> dict[str, WeylOp]:
    """The system for a family: "trace" (N_m), "forms" (DN_m), "primitive" (PN_m),
    as id -> generator, the A(p,q,1) first.

    All three share the A(p,q,1); they differ in the order-one tail of
    the T-type generators.
    """
    if k < 2:
        raise ValueError("the system needs k >= 2")
    gens = {f"A({p},{q},1)": op_A(k, p, q, 1) for p, q in _a_pairs(k)}
    for m in range(2, k + 1):
        if variant == "trace":
            gens[f"T({m})"] = op_T(k, m)
        elif variant == "forms":
            gens[f"T~({m})"] = op_variants(k, m, "forms")
        elif variant == "primitive":
            gens[f"T({m})-d{m}"] = op_variants(k, m, "primitive")
        else:
            raise ValueError(f"unknown variant {variant!r}")
    return gens


def family_start(family: str, k: int) -> int:
    """First index of a named family: N_0, DN_{-k+1} (its seeds
    DN_{-k+1}..DN_{-1} are zero), PN_1 and s_1."""
    starts = {"newton": 0, "dnewton": -k + 1, "pnewton": 1, "sigma": 1}
    if family not in starts:
        raise ValueError(f"unknown family {family!r}")
    return starts[family]


def family_member(k: int, name: str, m: int) -> Poly:
    fam = newton_family(k)
    if name == "newton":
        return fam.newton(m)
    if name == "dnewton":
        return fam.derived(m)
    if name == "pnewton":
        return fam.primitive(m)
    if name == "sigma":
        return Poly.variable(sigma_space(k), "sigma", m)
    raise ValueError(f"unknown family {name!r}")


def family_members(k: int, name: str, max_m: int) -> Iterator[tuple[int, Poly]]:
    """Yield (m, member) lazily from the family's first index up to max_m;
    "sigma" stops at k."""
    stop = min(max_m, k) if name == "sigma" else max_m
    for m in range(family_start(name, k), stop + 1):
        yield m, family_member(k, name, m)


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
