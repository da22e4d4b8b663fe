import io
import json
import random
from fractions import Fraction

from conftest import random_sigma_poly
from exact_oracles import weyl_of_blocks
from hypothesis import given, settings
from hypothesis import strategies as st

from symtrace.poly import Poly
from symtrace.serialize import (
    dump,
    dumps,
    poly_from_dict,
    poly_to_dict,
    rational_from_str,
    rational_to_str,
    weyl_from_dict,
    weyl_to_dict,
)
from symtrace.spaces import VarSpace, sigma_eta_space, sigma_space, x_space, x_xi_space
from symtrace.transport import elementary_symmetric_op, xi_transport
from symtrace.weyl import WeylOp


def test_rational_strings():
    assert rational_to_str(Fraction(-3, 4)) == "-3/4"
    assert rational_to_str(Fraction(5)) == "5/1"
    assert rational_from_str("7/2") == Fraction(7, 2)
    assert rational_from_str("7") == Fraction(7)


def test_space_codes_roundtrip():
    for space in (sigma_space(3), sigma_eta_space(2), VarSpace((("sigma", 2), ("t", 1)))):
        assert VarSpace.from_code(space.code()) == space


def test_poly_roundtrip_randomized():
    rng = random.Random(3)
    for _ in range(25):
        p = random_sigma_poly(rng, rng.randint(1, 4), max_deg=4, n_terms=5)
        assert poly_from_dict(poly_to_dict(p)) == p


def test_weylop_roundtrip():
    k = 3
    space = sigma_space(k)
    op = weyl_of_blocks(space, {
        (2, 0, 0): Poly.one(space),
        (1, 1, 0): Poly.variable(space, "sigma", 1),
        (0, 0, 1): Poly.constant(space, Fraction(-7, 3)),
    })
    assert weyl_from_dict(weyl_to_dict(op)) == op


def test_terms_emitted_in_canonical_order():
    space = sigma_space(2)
    p = Poly(space, {(0, 1): 1, (2, 0): 1, (0, 0): 1})
    exps = [tuple(t["exp"]) for t in poly_to_dict(p)["terms"]]
    assert exps == [(2, 0), (0, 1), (0, 0)]


def test_serialization_deterministic_bytes():
    space = sigma_space(2)
    p = Poly(space, {(1, 0): Fraction(1, 2), (0, 1): -2})
    doc1 = dumps({"poly": poly_to_dict(p)})
    doc2 = dumps({"poly": poly_to_dict(Poly(space, dict(reversed(p.sorted_terms()))))})
    assert doc1 == doc2
    json.loads(doc1)


mixed_coeffs = st.one_of(st.integers(-5, 5), st.fractions(min_value=-4, max_value=4, max_denominator=4))


@st.composite
def polys(draw, space, max_terms: int = 4):
    exps = st.tuples(*[st.integers(0, 3)] * space.nvars)
    return Poly(space, draw(st.dictionaries(exps, mixed_coeffs, max_size=max_terms)))


@st.composite
def spaced_polys(draw):
    k = draw(st.integers(1, 3))
    return draw(polys(draw(st.sampled_from([sigma_space(k), sigma_eta_space(k)]))))


@st.composite
def weylops(draw):
    space = sigma_space(draw(st.integers(1, 3)))
    dexps = st.tuples(*[st.integers(0, 2)] * space.nvars)
    return weyl_of_blocks(space, draw(st.dictionaries(dexps, polys(space, 3), max_size=3)))


def assert_canonical(p: Poly) -> None:
    for _, c in p.sorted_terms():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


@settings(max_examples=40, deadline=None)
@given(spaced_polys())
def test_poly_roundtrip_property(p):
    doc = poly_to_dict(p)
    back = poly_from_dict(doc)
    assert back == p
    assert_canonical(back)
    assert dumps(poly_to_dict(back)) == dumps(doc)


@settings(max_examples=40, deadline=None)
@given(weylops())
def test_weylop_roundtrip_property(op):
    doc = weyl_to_dict(op)
    back = weyl_from_dict(doc)
    assert back == op
    for _, coeff in back.sorted_terms():
        assert_canonical(coeff)
    assert dumps(weyl_to_dict(back)) == dumps(doc)


def test_parsed_integral_coefficients_are_ints():
    doc = {"space": sigma_space(2).code(), "terms": [
        {"coeff": "3/1", "exp": [1, 0]},
        {"coeff": "6/4", "exp": [0, 1]},
        {"coeff": "-8/4", "exp": [0, 0]},
    ]}
    p = poly_from_dict(doc)
    assert dict(p.sorted_terms()) == {(1, 0): 3, (0, 1): Fraction(3, 2), (0, 0): -2}
    assert_canonical(p)
    assert type(p.coefficient((1, 0))) is int and type(p.coefficient((0, 0))) is int
    assert [t["coeff"] for t in poly_to_dict(p)["terms"]] == ["3/1", "3/2", "-2/1"]


# -- the indented writer -----------------------------------------------------------


def json_reference(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


scalars = (st.none() | st.booleans() | st.integers() | st.integers(-2 ** 200, 2 ** 200)
           | st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308])
           | st.text() | st.text(st.characters(max_codepoint=0x1f) | st.sampled_from('"\\é \U0001f600')))
documents = st.recursive(scalars, lambda inner: st.lists(inner, max_size=4) | st.lists(st.integers(), max_size=4)
                         | st.dictionaries(st.text(max_size=4), inner, max_size=4), max_leaves=12)


@settings(max_examples=80, deadline=None)
@given(documents)
def test_dumps_writes_what_json_writes(doc):
    assert dumps(doc) == json_reference(doc)


def test_dumps_matches_json_on_every_golden_file():
    from symtrace.report import golden_dir

    paths = sorted(golden_dir().glob("*.json"))
    assert paths
    for path in paths:
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert dumps(doc) == json_reference(doc), path.name


def test_dumps_matches_json_on_one_output_of_each_subcommand(tmp_path):
    import contextlib
    import io

    from symtrace.charvar import minors
    from symtrace.cli import dispatch

    minor = tmp_path / "minor.json"
    minor.write_text(dumps(poly_to_dict(minors(2)[1, 2])), encoding="utf-8")
    commands = [["gen", "--family", "pnewton", "--k", "3", "--max-m", "4"], ["xi", "--k", "3", "--op", "S3"],
                ["verify", "--k", "3", "--suite", "system"], ["charvar", "--k", "3", "--sample", "2"],
                ["charvar", "--k", "2", "--decompose", str(minor)], ["member", "--k", "2", "--op", "sigma2_k2.json"],
                ["numcheck", "--k", "2", "--sigma", "3,2", "--f", "exp"], ["golden"]]
    for argv in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert dispatch(argv) == 0, argv
        assert out.getvalue() == json_reference(json.loads(out.getvalue())), argv


# -- Poly and WeylOp values, written from their terms ---------------------------


def plain(doc):
    """doc with every Poly and WeylOp value replaced by its dict."""
    if isinstance(doc, Poly):
        return poly_to_dict(doc)
    if isinstance(doc, WeylOp):
        return weyl_to_dict(doc)
    if isinstance(doc, dict):
        return {key: plain(v) for key, v in doc.items()}
    if isinstance(doc, list):
        return [plain(v) for v in doc]
    return doc


wide_coeffs = st.one_of(st.integers(-5, 5), st.integers(-2 ** 80, 2 ** 80),
                        st.fractions(min_value=-4, max_value=4, max_denominator=4),
                        st.builds(Fraction, st.integers(-2 ** 80, 2 ** 80), st.integers(1, 2 ** 70)))


@st.composite
def values(draw):
    """A Poly over a sigma, x, (sigma, eta) or (x, xi) space, or a WeylOp
    over a sigma or x space, k = 1..3; either may be zero."""
    k, over_x = draw(st.integers(1, 3)), draw(st.booleans())
    base = x_space(k) if over_x else sigma_space(k)

    def polys(space):
        exps = st.tuples(*[st.integers(0, 3)] * space.nvars)
        return st.builds(Poly, st.just(space), st.dictionaries(exps, wide_coeffs, max_size=4))

    kind = draw(st.sampled_from(["poly", "symbol", "op"]))
    if kind == "op":
        dexps = st.tuples(*[st.integers(0, 2)] * k)
        return weyl_of_blocks(base, draw(st.dictionaries(dexps, polys(base), max_size=3)))
    return draw(polys((x_xi_space(k) if over_x else sigma_eta_space(k)) if kind == "symbol" else base))


@st.composite
def documents_with_values(draw):
    """A Poly or WeylOp value nested 0..3 levels deep in lists and objects
    that hold other values and scalars beside it."""
    doc = draw(values())
    for _ in range(draw(st.integers(0, 3))):
        items = [doc, *draw(st.lists(scalars | values(), max_size=2))]
        if draw(st.booleans()):
            doc = draw(st.permutations(items))
        else:
            keys = draw(st.lists(st.text(max_size=3), min_size=len(items), max_size=len(items), unique=True))
            doc = dict(zip(keys, items))
    return doc


@settings(max_examples=80, deadline=None)
@given(documents_with_values())
def test_values_are_written_as_json_writes_their_dicts(doc):
    chunks = []
    dump(doc, chunks.append)
    assert "".join(chunks) == dumps(doc) == json_reference(plain(doc))


def test_edge_values_are_written_as_json_writes_their_dicts():
    big = 2 ** 64 + 1
    X1, S1 = x_space(1), sigma_space(1)
    edge = [
        Poly.zero(sigma_eta_space(1)),
        WeylOp.sum(X1, ()),
        Poly(x_xi_space(1), {(2, 1): -big, (0, 0): Fraction(-3, big)}),
        weyl_of_blocks(X1, {(1,): Poly(X1, {(3,): Fraction(-big, 7)}), (0,): Poly.constant(X1, big * big)}),
        weyl_of_blocks(S1, {(2,): Poly.zero(S1), (1,): Poly.constant(S1, -1)}),
    ]
    for depth, doc in enumerate([edge[0], {"a": edge[1]}, [edge[2], {"b": [edge[3]]}], {"c": [{"d": edge}]}]):
        assert dumps(doc) == json_reference(plain(doc)), depth


class _Stdout(io.StringIO):
    """A stdout that counts its writes."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_every_subcommand_streams_what_dumps_writes(tmp_path, monkeypatch):
    import contextlib

    from symtrace import cli
    from symtrace.charvar import minors

    documents = []

    def recording_dump(doc, write):
        documents.append(doc)
        dump(doc, write)

    monkeypatch.setattr(cli, "dump", recording_dump)
    minor = tmp_path / "minor.json"
    minor.write_text(dumps(minors(2)[1, 2]), encoding="utf-8")
    commands = [["gen", "--family", "newton", "--k", "3", "--max-m", "6"], ["xi", "--k", "3", "--op", "S3"],
                ["verify", "--k", "3", "--suite", "relations"], ["charvar", "--k", "3", "--sample", "2"],
                ["charvar", "--k", "2", "--decompose", str(minor)], ["member", "--k", "3", "--op", "S3.json"],
                ["numcheck", "--k", "2", "--sigma", "3,2", "--f", "exp"], ["golden"]]
    (tmp_path / "S3.json").write_text(dumps(xi_transport(elementary_symmetric_op(3, 3))), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        documents.clear()
        out = _Stdout()
        with contextlib.redirect_stdout(out):
            assert cli.dispatch(argv) == 0, argv
        (doc,) = documents
        assert out.getvalue() == dumps(doc) == json_reference(plain(doc)), argv
        assert out.writes > 1, argv
