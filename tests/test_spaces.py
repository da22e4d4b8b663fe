"""Interned variable spaces and the one space guard.

Each layout has one VarSpace instance, whichever way it is reached, and
the layout queries read what was stored when it was interned; they are
checked here against a plain walk over ``families``.  Every guard that
an object lives over a given space raises SpaceMismatchError naming
both spaces.
"""

import copy
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_oracles import symmetrize, trace_characterization_x
from symtrace.charvar import decompose_in_minors, vanishes_on_Z
from symtrace.membership import reduce_modulo_system
from symtrace.poly import Poly
from symtrace.serialize import poly_to_dict, weyl_from_dict
from symtrace.spaces import FAMILY_ORDER, SpaceMismatchError, VarSpace, sigma_eta_space, sigma_space, x_space
from symtrace.symfun import reduce_to_sigma, sigma_to_x
from symtrace.transport import SymmetricOperator
from symtrace.weyl import WeylOp

BOUNDED = settings(max_examples=60, deadline=None)


@st.composite
def layouts(draw):
    """A valid layout: some families in canonical order, t holding one variable."""
    fams = draw(st.lists(st.sampled_from(FAMILY_ORDER), min_size=1, unique=True))
    fams.sort(key=FAMILY_ORDER.index)
    return tuple((fam, 1 if fam == "t" else draw(st.integers(1, 12))) for fam in fams)


def walk_offset(families, family):
    pos = 0
    for fam, count in families:
        if fam == family:
            return pos
        pos += count
    return None


def walk_count(families, family):
    return next((count for fam, count in families if fam == family), 0)


def test_varspace_compares_by_identity():
    assert "__eq__" not in vars(VarSpace) and "__hash__" not in vars(VarSpace)
    assert VarSpace.__eq__ is object.__eq__ and VarSpace.__hash__ is object.__hash__


@BOUNDED
@given(layouts())
def test_one_instance_per_layout(families):
    s = VarSpace(families)
    assert VarSpace(families) is s
    assert VarSpace(list(families)) is s
    assert VarSpace.from_code(s.code()) is s
    assert s.families == families
    for fam, _ in families:
        assert s.drop(fam) is VarSpace(tuple(pair for pair in families if pair[0] != fam))
    assert copy.copy(s) is s
    assert copy.deepcopy(s) is s
    assert copy.deepcopy([s, s])[0] is s
    assert pickle.loads(pickle.dumps(s)) is s


@BOUNDED
@given(layouts())
def test_layout_queries_match_a_walk_over_the_families(families):
    s = VarSpace(families)
    assert s.nvars == sum(count for _, count in families)
    for fam in FAMILY_ORDER:
        off, count = walk_offset(families, fam), walk_count(families, fam)
        assert s.family_count(fam) == count
        if off is None:
            with pytest.raises(KeyError):
                s.offset(fam)
            with pytest.raises(KeyError):
                s.position(fam, 1)
            continue
        assert s.offset(fam) == off
        assert [s.position(fam, i) for i in range(1, count + 1)] == list(range(off, off + count))
        for index in (0, count + 1):
            with pytest.raises(KeyError):
                s.position(fam, index)


@BOUNDED
@given(layouts(), st.data())
def test_invalid_layouts_are_refused_and_not_interned(families, data):
    i = data.draw(st.integers(0, len(families) - 1))
    fam, count = families[i]
    bad = [
        families[:i] + (("y", count),) + families[i + 1:],         # unknown family
        families[:i] + ((fam, data.draw(st.integers(-3, 0))),) + families[i + 1:],  # count < 1
        families + ((fam, count),),                                 # repeated family
    ]
    if len(families) > 1:
        bad.append(families[::-1])                                  # wrong order
    if fam == "t":
        bad.append(families[:i] + (("t", data.draw(st.integers(2, 5))),) + families[i + 1:])
    for layout in bad:
        with pytest.raises(ValueError):
            VarSpace(layout)
        assert layout not in VarSpace._interned
    # a count that equals an int hashes as that int's layout, so it is refused
    # even when that layout is interned, and no stored layout holds one
    for not_int in (2.0, True, "2"):
        with pytest.raises(ValueError, match="needs an int count"):
            VarSpace(families[:i] + ((fam, not_int),) + families[i + 1:])
    assert all(type(c) is int for layout in VarSpace._interned for _, c in layout)
    assert VarSpace(families).families == families


@pytest.mark.parametrize("layout, code", [((("sigma", 2.0),), "sigma:2"), ((("t", True),), "t:1")])
def test_a_refused_count_does_not_leak_into_the_int_layout(layout, code):
    # a fresh interpreter, where the int layout is not interned before the refused call
    script = (
        "from symtrace.spaces import VarSpace\n"
        "try:\n"
        f"    VarSpace({layout!r})\n"
        "except ValueError:\n"
        "    print('refused')\n"
        f"print(repr(VarSpace.from_code({code!r})))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"refused\n{code}\n"


@pytest.mark.parametrize("code, message", [
    ("sigma:2+t:2", "the auxiliary family holds exactly one variable"),
    ("t:1+sigma:2", "families must appear once each, in canonical order"),
    ("sigma:2+sigma:2", "families must appear once each, in canonical order"),
    ("sigma:0", "family 'sigma' needs at least one variable"),
    ("y:2", "unknown variable family 'y'"),
])
def test_invalid_codes_are_refused_as_layouts(code, message):
    with pytest.raises(ValueError, match=message):
        VarSpace.from_code(code)


@pytest.mark.parametrize("code", ["sigma: 2", "sigma:2 ", "sigma:02", "sigma:0_2", "sigma:\u0662", "sigma:2\n",
                                  "sigma:2+eta:02"])
def test_space_codes_must_be_canonical(code):
    with pytest.raises(ValueError, match="is not canonical"):
        VarSpace.from_code(code)


def _wrong_space_cases():
    S, X, SE = sigma_space(2), x_space(2), sigma_eta_space(2)
    d1 = WeylOp.partial(S, 1)
    dx = WeylOp.partial(X, 1) + WeylOp.partial(X, 2)
    one_s, one_x = Poly.one(S), Poly.one(X)
    s1 = Poly.variable(S, "sigma", 1)
    return {
        "reduce_modulo_system": (lambda: reduce_modulo_system(dx, 2), S, X),
        "trace_characterization_x": (lambda: trace_characterization_x(2, d1), X, S),
        "decompose_in_minors": (lambda: decompose_in_minors(s1, 2), SE, S),
        "vanishes_on_Z": (lambda: vanishes_on_Z(s1, 2), SE, S),
        "reduce_to_sigma": (lambda: reduce_to_sigma(s1, 2), X, S),
        "sigma_to_x": (lambda: sigma_to_x(one_x, 2), S, X),
        "symmetrize": (lambda: symmetrize(one_s, 2, 3), X, S),
        "SymmetricOperator": (lambda: SymmetricOperator(dx, 3), x_space(3), X),
        "WeylOp.apply": (lambda: d1.apply(one_x), S, X),
        "WeylOp coefficient": (lambda: weyl_from_dict(
            {"space": "sigma:2", "terms": [{"dexp": [1, 0], "coeff": poly_to_dict(one_x)}]}), S, X),
        "WeylOp product": (lambda: d1 * dx, S, X),
        "WeylOp sum": (lambda: d1 + dx, S, X),
        "WeylOp difference": (lambda: d1 - dx, S, X),
        "compose image": (lambda: s1.compose(X, {("sigma", 1): one_s, ("sigma", 2): one_x}), X, S),
        "embed": (lambda: one_x.embed(SE, "eta", (0, 0)), S, X),
        "Poly.sum": (lambda: Poly.sum(S, [one_s, one_x]), S, X),
        "sum_of_products first factor": (lambda: Poly.sum_of_products(S, [(one_x, one_s, 1)]), S, X),
        "sum_of_products second factor": (lambda: Poly.sum_of_products(S, [(one_s, one_x, 1)]), S, X),
    }


@pytest.mark.parametrize("case", sorted(_wrong_space_cases()))
def test_every_space_guard_names_both_spaces(case):
    call, expected, got = _wrong_space_cases()[case]
    with pytest.raises(SpaceMismatchError) as exc:
        call()
    assert str(exc.value) == f"space mismatch: expected {expected}, got {got}"
