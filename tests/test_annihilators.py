from itertools import product

import pytest

from exact_oracles import (
    op_A_by_products,
    op_nabla_by_products,
    op_T0_by_products,
    op_T_by_products,
    op_U0_by_products,
)
from symtrace.annihilators import (
    A_ID,
    FAMILIES,
    a_pairs,
    check_images,
    family_members,
    generator_system,
    op_A,
    op_T,
    op_T0,
    op_U0,
    op_nabla,
)
from symtrace.poly import Poly
from symtrace.spaces import sigma_space
from symtrace.symfun import family
from symtrace.weyl import WeylOp


def d(k, h):
    return WeylOp.partial(sigma_space(k), h)


def test_op_A_construction():
    assert op_A(3, 1, 3, 1) == d(3, 1) * d(3, 3) - d(3, 2) * d(3, 2)
    assert op_A(3, 1, 2, 0).is_zero()
    assert op_A(3, 1, 2, 1).is_zero()  # swapped pair coincides
    assert op_A(3, 1, 3, 2).is_zero()  # full swap coincides as well
    with pytest.raises(ValueError):
        op_A(3, 2, 3, 2)


def test_op_A_kills_power_sum():
    assert op_A(3, 1, 3, 1).apply(family(3).newton(4)).is_zero()


def test_op_T_closed_form_k2():
    S2 = sigma_space(2)
    expected = WeylOp(S2, {
        (2, 0): Poly.one(S2),
        (1, 1): Poly.variable(S2, "sigma", 1),
        (0, 2): Poly.variable(S2, "sigma", 2),
        (0, 1): Poly.one(S2),
    })
    assert op_T(2, 2) == expected
    assert op_T(2, 2).apply(family(2).newton(2)).is_zero()
    with pytest.raises(ValueError):
        op_T(3, 4)


def test_every_legal_op_A_equals_its_product_definition():
    # |i| <= k - 1 whenever p + i and q - i both lie in [1, k]
    for k in range(1, 7):
        for p, q, i in product(range(1, k + 1), range(1, k + 1), range(1 - k, k)):
            if 1 <= p + i <= k and 1 <= q - i <= k:
                assert op_A(k, p, q, i) == op_A_by_products(k, p, q, i), (k, p, q, i)


def test_every_generator_equals_its_product_definition():
    for k in range(2, 9):
        for name, fam in FAMILIES.items():
            expected = {A_ID.format(p=p, q=q): op_A_by_products(k, p, q, 1) for p, q in a_pairs(k)}
            for m in range(2, k + 1):
                expected[fam.t_id.format(m=m)] = op_T_by_products(k, m) + d(k, m).scale(fam.tail)
            gens = generator_system(k, name)
            assert list(gens) == list(expected) and dict(gens) == expected, (k, name)
        # the companions: identity:T-from-T0 compares two symbol-built sides, so this is the cross-check
        for mu in range(k - 1):
            assert op_T0(k, mu) == op_T0_by_products(k, mu), (k, mu)
        assert op_U0(k) == op_U0_by_products(k) and op_nabla(k) == op_nabla_by_products(k), k


def test_op_T0_matches_T_at_top_index():
    # mu = 0 and m = k coincide up to the A-correction, which is empty at k=2
    assert op_T0(2, 0) == op_T(2, 2)
    for k in (3, 4, 5):
        fails = check_images(generator_system(k, "newton"), ((m, family(k).newton(m)) for m in range(0, 11)))
        assert not fails
        for mu in range(0, k - 1):
            op = op_T0(k, mu)
            assert all(op.apply(family(k).newton(m)).is_zero() for m in range(0, 11))
    with pytest.raises(ValueError):
        op_T0(3, 2)


def test_T_from_T0_with_forced_sign():
    for k in (2, 3, 4, 5):
        S = sigma_space(k)
        for m in range(2, k + 1):
            acc = op_T0(k, k - m)
            for h in range(1, k):
                acc = acc + op_A(k, h, m, 1).left_mul_poly(Poly.variable(S, "sigma", h))
            assert op_T(k, m) == acc


def test_U0_euler_action():
    for k in (2, 3):
        u0 = op_U0(k)
        for m in range(0, 9):
            assert u0.apply(family(k).newton(m)) == family(k).newton(m).scale(m)
        for h in range(1, k + 1):
            sh = Poly.variable(sigma_space(k), "sigma", h)
            assert u0.apply(sh) == sh.scale(h)
        assert u0.apply(Poly.one(sigma_space(k))).is_zero()


def test_nabla_bracket_with_partials():
    for k in (2, 3, 4, 5):
        nab = op_nabla(k)
        for h in range(1, k):
            assert nab.commutator(d(k, h)) == d(k, h + 1).scale(-(k - h))
        assert nab.commutator(d(k, k)).is_zero()


def test_nabla_lowers_newton():
    for k in (2, 3, 4):
        nab = op_nabla(k)
        for m in range(1, 11):
            assert nab.apply(family(k).newton(m)) == family(k).newton(m - 1).scale(m)


def test_bracket_identities_full_range():
    for k in (2, 3, 4, 5):
        S = sigma_space(k)
        u0 = op_U0(k)
        nab = op_nabla(k)
        for m in range(2, k + 1):
            T = op_T(k, m)
            for h in range(1, k + 1):
                assert d(k, h).commutator(T) == d(k, m) * d(k, h)
            assert T.commutator(u0) == T.scale(m)
        for p in range(1, k + 1):
            for q in range(1, k + 1):
                for i in range(0, k):
                    legal = all(1 <= v <= k for v in (p, q, p + i, q - i, p + i + 1, q - i - 1))
                    if legal:
                        assert op_A(k, p, q, i + 1) == op_A(k, p, q, i) + op_A(k, p + i, q - i, 1)
        for h in range(2, k + 1):
            rhs = op_A(k, 1, h, 1).scale(k - 1)
            if h < k:
                rhs = rhs + op_T(k, h + 1).scale(-(k - h))
            assert nab.commutator(op_T(k, h)) == rhs
        for p in range(1, k):
            for q in range(2, k + 1):
                if p == q - 1:
                    continue
                rhs = WeylOp(S)
                if p + 2 <= k:
                    rhs = rhs + op_A(k, p + 1, q, 1).scale(-(k - p - 1))
                if q + 1 <= k:
                    rhs = rhs + op_A(k, p, q + 1, 1).scale(-(k - q))
                assert nab.commutator(op_A(k, p, q, 1)) == rhs


def test_generator_weights_and_stability():
    for k in (2, 3, 4, 5):
        u0 = op_U0(k)
        for G in generator_system(k, "newton").values():
            w = G.weight()
            assert w is not None
            assert G.commutator(u0) == G.scale(-w)
            shift = WeylOp.from_poly(Poly.constant(sigma_space(k), -w))
            assert G * u0 == (u0 + shift) * G


def test_system_annihilates_power_sums():
    for k in (2, 3, 4, 5):
        drawn = []
        members = (drawn.append(m) or (m, f) for m, f in family_members(k, "newton", 2 * k + 6))
        assert not check_images(generator_system(k, "newton"), members)
        assert drawn == list(range(2 * k + 7))


def test_forms_variant_annihilates_derived_family():
    for k in (2, 3, 4, 5):
        assert not check_images(generator_system(k, "dnewton"), family_members(k, "dnewton", 2 * k + 6))


def test_forms_variant_values():
    assert generator_system(3, "dnewton")["T~(2)"] == op_T(3, 2) + d(3, 2)
    assert generator_system(3, "pnewton")["T(2)-d2"] == op_T(3, 2) - d(3, 2)
    with pytest.raises(ValueError):
        generator_system(3, "other")
    for k in (2, 3, 4):
        for m in range(2, k + 1):
            tt = generator_system(k, "dnewton")[f"T~({m})"]
            for j in range(0, 11):
                assert tt.apply(family(k).derived(j)).is_zero()


def test_primitive_variant_exact_images():
    # zero off the diagonal; the constant (-1)^m survives at j = m
    # (the published blanket annihilation claim misses the diagonal)
    for k in (2, 3, 4):
        for m in range(2, k + 1):
            op = generator_system(k, "pnewton")[f"T({m})-d{m}"]
            for j in range(1, 2 * k + 7):
                image = op.apply(family(k).primitive(j))
                if j == m:
                    assert image == Poly.constant(sigma_space(k), (-1) ** m)
                else:
                    assert image.is_zero()


def test_primitive_variant_kills_coordinates():
    for k in (2, 3, 4, 5):
        coordinates = ((p, Poly.variable(sigma_space(k), "sigma", p)) for p in range(1, k + 1))
        assert not check_images(generator_system(k, "pnewton"), coordinates)


def test_annihilation_report_flags_failures():
    k = 2
    gens = {"d1": d(k, 1)}
    fails = check_images(gens, family_members(k, "newton", 2))
    assert list(fails) == ["d1"]
    w = fails["d1"]
    assert w.op == "d1" and w.m == 1 and w.image == Poly.one(sigma_space(k))


def test_check_images_draws_lazily_and_stops_each_op_at_its_first_failure():
    k = 2
    drawn = []
    members = (drawn.append(m) or (m, f) for m, f in family_members(k, "newton", 50))
    fails = check_images({"d1": d(k, 1), "d2": d(k, 2)}, members)
    # d_2 N_1 = 0 and d_2 N_2 = -2; no member is drawn after both failed
    assert {gid: w.m for gid, w in fails.items()} == {"d1": 1, "d2": 2}
    assert fails["d2"].image == Poly.constant(sigma_space(k), -2)
    assert drawn == [0, 1, 2]


def test_check_images_witness_is_image_less_expected():
    k = 3
    members = [(m, family(k).newton(m)) for m in range(1, 6)]
    assert not check_images({"nabla": op_nabla(k)}, members, lambda _, m: family(k).newton(m - 1).scale(m))
    fails = check_images({"nabla": op_nabla(k)}, members, lambda _, m: family(k).newton(m - 1))
    # nabla N_1 = 1 * N_0 holds; at m = 2 the residual is 2 N_1 - N_1 = N_1
    assert fails["nabla"].m == 2 and fails["nabla"].image == family(k).newton(1)
