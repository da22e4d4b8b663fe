import random

import pytest

from conftest import random_sigma_poly
from exact_oracles import trace_characterization_x
from symtrace.annihilators import generator_system, op_A, op_T
from symtrace.membership import (
    MembershipCertificate,
    reduce_modulo_system,
    verify_certificate,
)
from symtrace.poly import Poly
from symtrace.spaces import sigma_space, x_space
from symtrace.transport import elementary_symmetric_op, xi_transport
from symtrace.weyl import WeylOp


def test_constructed_member_reduces_to_zero():
    S = sigma_space(3)
    p = (
        WeylOp.from_poly(Poly.variable(S, "sigma", 1)) * op_A(3, 1, 3, 1)
        + WeylOp.partial(S, 2) * op_T(3, 2)
    )
    cert = reduce_modulo_system(p, 3)
    assert cert.is_member
    assert verify_certificate(p, cert)
    assert {gid for gid, _ in cert.entries} <= set(generator_system(3, "newton"))


def test_transported_operator_is_T_at_k2():
    op = xi_transport(elementary_symmetric_op(2, 2))
    assert op == op_T(2, 2)
    cert = reduce_modulo_system(op, 2)
    assert cert.is_member and verify_certificate(op, cert)


def test_transported_operators_reduce_for_all_k():
    for k in (2, 3, 4):
        gens = generator_system(k, "newton")
        for h in range(2, k + 1):
            op = xi_transport(elementary_symmetric_op(k, h))
            cert = reduce_modulo_system(op, k)
            assert cert.is_member, (k, h)
            assert verify_certificate(op, cert)
            assert cert.remainder.is_zero()
            for gid, cof in cert.entries:
                assert (cof * gens[gid]).order() <= op.order()


def test_non_member_partial():
    S = sigma_space(3)
    cert = reduce_modulo_system(WeylOp.partial(S, 1), 3)
    assert not cert.is_member
    assert cert.failing_newton_index == 1
    assert cert.remainder == WeylOp.partial(S, 1)
    assert verify_certificate(WeylOp.partial(S, 1), cert)


def test_non_member_forms_variant_with_failing_index():
    for k in (2, 3):
        for m in range(2, k + 1):
            tt = generator_system(k, "dnewton")[f"T~({m})"]
            cert = reduce_modulo_system(tt, k)
            assert not cert.is_member
            assert cert.failing_newton_index == m
            assert cert.remainder == tt


def test_tampered_certificate_fails():
    op = xi_transport(elementary_symmetric_op(2, 2))
    cert = reduce_modulo_system(op, 2)
    gid, cof = cert.entries[0]
    tampered = MembershipCertificate(
        k=2,
        entries=((gid, cof + WeylOp.partial(sigma_space(2), 1)),),
        remainder=cert.remainder,
        newton_bound=cert.newton_bound,
    )
    assert not verify_certificate(op, tampered)


def test_left_ideal_closure_randomized():
    rng = random.Random(71)
    k = 3
    S = sigma_space(k)
    gens = generator_system(k, "newton")
    for _ in range(6):
        member = WeylOp.sum(S, ())
        for g in gens.values():
            if rng.random() < 0.5:
                cof = WeylOp.from_poly(random_sigma_poly(rng, k, 1, 2))
                member = member + cof * g
        if member.is_zero():
            continue
        q = WeylOp.from_poly(random_sigma_poly(rng, k, 1, 2))
        for h in range(1, k + 1):
            if rng.random() < 0.4:
                q = q + WeylOp.partial(S, h).left_mul_poly(random_sigma_poly(rng, k, 1, 1))
        if q.is_zero():
            continue
        product = q * member
        if product.is_zero():
            continue
        cert = reduce_modulo_system(product, k)
        assert cert.is_member
        assert verify_certificate(product, cert)


def test_order_descends_strictly():
    # instrumented indirectly: reduction of an order-4 member terminates
    k = 3
    op = xi_transport(elementary_symmetric_op(3, 3))
    q = op * op  # order 6 member
    cert = reduce_modulo_system(q, k)
    assert cert.is_member and verify_certificate(q, cert)


def test_zero_operator_rejected():
    with pytest.raises(ValueError):
        reduce_modulo_system(WeylOp.sum(sigma_space(2), ()), 2)


def test_low_bound_gives_nonmember_with_exact_remainder():
    # a forms-variant annihilates N_m only below its index; with a tiny
    # bound the non-member is discovered late but the identity stays exact
    k = 3
    tt = generator_system(k, "dnewton")["T~(3)"]
    cert = reduce_modulo_system(tt, k, newton_bound=2)
    assert not cert.is_member
    assert verify_certificate(tt, cert)


def test_trace_characterization_in_x():
    X = x_space(3)
    assert trace_characterization_x(3, WeylOp.partial(X, 1) * WeylOp.partial(X, 2))
    assert trace_characterization_x(3, elementary_symmetric_op(3, 2).op)
    assert trace_characterization_x(3, elementary_symmetric_op(3, 3).op)
    assert not trace_characterization_x(3, WeylOp.partial(X, 1, 2))
    assert not trace_characterization_x(3, WeylOp.from_poly(Poly.variable(X, "x", 1)))
    mixed = WeylOp.partial(X, 1) * WeylOp.partial(X, 2) + WeylOp.partial(X, 3)
    assert not trace_characterization_x(3, mixed)
