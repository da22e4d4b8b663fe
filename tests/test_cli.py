import cmath
import contextlib
import hashlib
import io
import json
import math
import random
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symtrace.annihilators import FAMILIES, Witness, check_images, family_members, generator_system
from symtrace.charvar import minors
from symtrace.cli import dispatch
from symtrace.numerics import NODES, contour_radius
from symtrace.report import first_mismatch, golden_check, run_suite
from symtrace.serialize import dumps, poly_to_dict, weyl_from_dict, weyl_to_dict
from symtrace.spaces import sigma_eta_space, sigma_space, x_space
from symtrace.transport import elementary_symmetric_op, xi_transport
from symtrace.poly import Poly
from symtrace.weyl import WeylOp


def run_cli(args, capsys):
    code = dispatch(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_system_passes(capsys):
    code, out, _ = run_cli(["verify", "--k", "3", "--suite", "system", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "symtrace-report/1"
    assert doc["counts"]["fail"] == 0


def test_verify_strict_paper_flips_deviations(capsys):
    code, out, _ = run_cli(["verify", "--k", "3", "--suite", "relations", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["counts"]["deviation"] >= 1
    code, _, _ = run_cli(
        ["verify", "--k", "3", "--suite", "relations", "--strict-paper"], capsys
    )
    assert code == 2


def test_xi_matches_golden_closed_form(capsys):
    code, out, _ = run_cli(["xi", "--k", "2", "--op", "S2", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    got = weyl_from_dict(doc["op"])
    from symtrace.annihilators import op_T

    assert got == op_T(2, 2)


def test_xi_json_roundtrip_and_determinism(capsys):
    code1, out1, _ = run_cli(["xi", "--k", "3", "--op", "S3"], capsys)
    code2, out2, _ = run_cli(["xi", "--k", "3", "--op", "S3"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    op = weyl_from_dict(doc["op"])
    assert weyl_to_dict(op) == doc["op"]


def test_member_accepts_golden_file(capsys, tmp_path):
    code, out, _ = run_cli(["member", "--k", "2", "--op", "golden/sigma2_k2.json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["member"] is True and doc["verified"] is True


def test_member_rejects_non_member(capsys, tmp_path):
    from symtrace.spaces import sigma_space

    op = WeylOp.partial(sigma_space(2), 1)
    path = tmp_path / "d1.json"
    path.write_text(dumps(weyl_to_dict(op)), encoding="utf-8")
    code, out, _ = run_cli(["member", "--k", "2", "--op", str(path)], capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["member"] is False and doc["failing_newton_index"] == 1


def test_member_symbol_off_variety_is_one_line_error(capsys, tmp_path):
    # d_1^2 kills N_0 and N_1, so bound 1 lets it into the descent, where
    # its symbol eta1^2 misses the variety
    path = tmp_path / "d1sq.json"
    path.write_text(dumps(weyl_to_dict(WeylOp.partial(sigma_space(2), 1, 2))), encoding="utf-8")
    code, out, err = run_cli(["member", "--k", "2", "--newton-bound", "1", "--op", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: bound too low or paper-contradiction: symbol eta1^2 does not vanish")
    assert err.count("\n") == 1


def _d1_doc(outer=None, term=None, inner_term=None):
    """d/ds_1 over sigma:2 as a JSON document, with fields overridden."""
    inner = {"coeff": "1/1", "exp": [0, 0], **(inner_term or {})}
    term = {"dexp": [1, 0], "coeff": {"space": "sigma:2", "terms": [inner]}, **(term or {})}
    return {"space": "sigma:2", "terms": [term], **(outer or {})}


def _poly_doc(**term):
    return {"space": "sigma:2+eta:2", "terms": [{"coeff": "1/1", "exp": [0, 0, 1, 1], **term}]}


BAD_DOCUMENTS = {
    "top-level array": ("member", []),
    "top-level string": ("member", "str"),
    "string naming a wrapper key": ("member", "op"),
    "space not a string": ("member", _d1_doc(outer={"space": 5})),
    "terms not an array": ("member", _d1_doc(outer={"terms": 5})),
    "term not an object": ("member", _d1_doc(outer={"terms": [5]})),
    "operator coefficient null": ("member", _d1_doc(term={"coeff": None})),
    "coefficient null": ("member", _d1_doc(inner_term={"coeff": None})),
    "coefficient float": ("member", _d1_doc(inner_term={"coeff": 0.1})),
    "coefficient bool": ("member", _d1_doc(inner_term={"coeff": True})),
    "coefficient with a huge decimal exponent": ("member", _d1_doc(inner_term={"coeff": "1e999999999"})),
    "coefficient zero denominator": ("member", _d1_doc(inner_term={"coeff": "1/0"})),
    "exponent half": ("member", _d1_doc(inner_term={"exp": [0.5, 0]})),
    "exponent negative": ("member", _d1_doc(inner_term={"exp": [-1, 0]})),
    "exponent bool": ("member", _d1_doc(inner_term={"exp": [True, 0]})),
    "exponent array inside an exponent": ("member", _d1_doc(inner_term={"exp": [[0], 0]})),
    "partial index half": ("member", _d1_doc(term={"dexp": [0.5, 0]})),
    "partial index negative": ("member", _d1_doc(term={"dexp": [-1, 0]})),
    "partial index too short": ("member", _d1_doc(term={"dexp": [1]})),
    "coefficient degree past the key under a valid partial index":
        ("member", _d1_doc(term={"dexp": [0, 1]}, inner_term={"exp": [0, 32767]})),
    "repeated exponent": ("member", _d1_doc(term={"coeff": {"space": "sigma:2", "terms": 2 * [{"coeff": "1/1", "exp": [0, 0]}]}})),
    "repeated partial index": ("member", _d1_doc(outer={"terms": 2 * _d1_doc()["terms"]})),
    "decompose top-level array": ("charvar", []),
    "decompose space not a string": ("charvar", {**_poly_doc(), "space": 5}),
    "decompose coefficient float": ("charvar", _poly_doc(coeff=0.1)),
    "decompose exponent half": ("charvar", _poly_doc(exp=[0, 0, 0.5, 1])),
}
# the error line of these cases names the actual fault
BAD_DOCUMENT_ERRORS = {
    "partial index negative": "error: bad partial multi-index (-1, 0)\n",
    "coefficient degree past the key under a valid partial index":
        "error: total degree 32768 exceeds 32767, the most a packed exponent key holds\n",
}
# space codes are canonical: each spelling below names sigma:2 to int()
# but differs from its code(), and is refused
NONCANONICAL_SIGMA2 = ["sigma: 2", "sigma:2 ", "sigma:02", "sigma:0_2", "sigma:\u0662"]
BAD_DOCUMENTS.update({f"space code {code!r}": ("member", _d1_doc(outer={"space": code}))
                      for code in NONCANONICAL_SIGMA2})
BAD_DOCUMENTS.update({f"decompose space code {code!r}": ("charvar", {**_poly_doc(), "space": code + "+eta:2"})
                      for code in NONCANONICAL_SIGMA2})


@pytest.mark.parametrize("case", sorted(BAD_DOCUMENTS))
def test_malformed_json_input_is_one_line_error(case, capsys, tmp_path):
    command, doc = BAD_DOCUMENTS[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    if command == "member":
        argv = ["member", "--k", "2", "--op", str(path)]
    else:
        argv = ["charvar", "--k", "2", "--decompose", str(path)]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err == BAD_DOCUMENT_ERRORS.get(case, err)


def test_xi_on_an_operator_over_the_wrong_space_is_one_line_error(capsys, tmp_path):
    # d/dx_1 + d/dx_2 is symmetric, so only the space guard refuses it at k=3
    op = WeylOp.partial(x_space(2), 1) + WeylOp.partial(x_space(2), 2)
    path = tmp_path / "dx_x2.json"
    path.write_text(dumps(weyl_to_dict(op)), encoding="utf-8")
    code, out, err = run_cli(["xi", "--k", "3", "--op", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: space mismatch: expected x:3, got x:2\n"


def test_member_on_a_directory_is_one_line_error(capsys, tmp_path):
    code, out, err = run_cli(["member", "--k", "2", "--op", str(tmp_path)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_member_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(["member", "--k", "2", "--op", "nope.json"], capsys)
    assert code == 1
    assert "error" in err


def test_golden_fallback_only_for_bare_or_golden_names(capsys):
    # a missing file in another directory is an error, even when a golden
    # file of the same base name exists
    code, out, err = run_cli(["member", "--k", "2", "--op", "/no/such/dir/sigma2_k2.json"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: no such file: /no/such/dir/sigma2_k2.json\n"
    for name in ("golden/sigma2_k2.json", "sigma2_k2.json"):
        code, out, _ = run_cli(["member", "--k", "2", "--op", name], capsys)
        assert code == 0
        assert json.loads(out)["member"] is True


def test_runtime_paths_never_consult_the_chart(capsys, tmp_path, monkeypatch):
    # the descent is the one vanishing decision: member and --decompose give
    # the same exit codes and stdout with the chart check disabled
    import symtrace.charvar as charvar

    code, out, _ = run_cli(["xi", "--k", "3", "--op", "S3"], capsys)
    assert code == 0
    (tmp_path / "xi_s3.json").write_text(out, encoding="utf-8")
    se = sigma_eta_space(3)
    member = Poly.variable(se, "sigma", 1) * charvar.minors(3)[1, 3] + charvar.minors(3)[2, 3]
    (tmp_path / "member.json").write_text(dumps(poly_to_dict(member)), encoding="utf-8")
    off = member + Poly.variable(se, "eta", 1) ** 2
    (tmp_path / "off.json").write_text(dumps(poly_to_dict(off)), encoding="utf-8")
    runs = [
        ["member", "--k", "3", "--op", str(tmp_path / "xi_s3.json")],
        ["charvar", "--k", "3", "--decompose", str(tmp_path / "member.json")],
        ["charvar", "--k", "3", "--decompose", str(tmp_path / "off.json")],
    ]
    unpatched = [run_cli(argv, capsys)[:2] for argv in runs]
    assert [code for code, _ in unpatched] == [0, 0, 2]
    assert json.loads(unpatched[2][1])["reason"] == "polynomial does not vanish on the variety"

    def chart(f, k):
        raise AssertionError("the chart check ran on a runtime path")

    monkeypatch.setattr(charvar, "vanishes_on_Z", chart)
    assert [run_cli(argv, capsys)[:2] for argv in runs] == unpatched


def test_gen_roundtrip(capsys):
    code, out, _ = run_cli(["gen", "--family", "newton", "--k", "2", "--max-m", "4"], capsys)
    assert code == 0
    doc = json.loads(out)
    from symtrace.serialize import poly_from_dict
    from symtrace.symfun import family

    for entry in doc["entries"]:
        assert poly_from_dict(entry["poly"]) == family(2).newton(entry["m"])


def test_gen_dnewton_starts_below_zero(capsys):
    code, out, _ = run_cli(["gen", "--family", "dnewton", "--k", "3", "--max-m", "2"], capsys)
    assert code == 0
    ms = [e["m"] for e in json.loads(out)["entries"]]
    assert ms[0] == -2 and ms[-1] == 2


@pytest.mark.parametrize("family", ["newton", "dnewton", "pnewton"])
def test_gen_and_annihilation_report_use_one_family_range(family, capsys):
    k, max_m = 3, 4
    code, out, _ = run_cli(["gen", "--family", family, "--k", str(k), "--max-m", str(max_m)], capsys)
    assert code == 0
    ms = [e["m"] for e in json.loads(out)["entries"]]
    assert ms == list(range(FAMILIES[family].start(k), max_m + 1))
    drawn = []
    members = (drawn.append(m) or (m, f) for m, f in family_members(k, family, max_m))
    check_images(generator_system(k, family), members)
    assert drawn == ms


def test_failing_check_names_its_witness(capsys, monkeypatch):
    import symtrace.report

    def broken_system(k, family):
        d1 = WeylOp.partial(sigma_space(k), 1)
        gens = generator_system(k, family)
        return {gid: op + d1 if gid == "T(2)" else op for gid, op in gens.items()}

    monkeypatch.setattr(symtrace.report, "generator_system", broken_system)
    code, out, _ = run_cli(["verify", "--k", "3", "--suite", "system"], capsys)
    assert code == 2
    checks = {c["id"]: c for c in json.loads(out)["checks"]}
    broken = checks["annihilates:T(2):newton"]
    assert broken["status"] == "fail"
    # T(2) + d_1 sends N_1 = s_1 to the constant 1
    assert broken["witness"] == {"op": "T(2)", "m": 1, "terms": 1, "image": "1"}
    assert all("witness" not in c for cid, c in checks.items() if cid != "annihilates:T(2):newton")
    code, out, _ = run_cli(["verify", "--k", "3", "--suite", "system", "--format", "text"], capsys)
    assert code == 2 and "witness: T(2) at m = 1, 1 terms: 1" in out


def test_witness_image_is_truncated():
    from symtrace.annihilators import Witness
    from symtrace.report import WITNESS_CHARS, CheckEntry
    from symtrace.symfun import family

    image = family(4).newton(12)
    entry = CheckEntry("annihilates:G:newton", "fail", "", Witness("G", 12, image))
    w = entry.to_dict()["witness"]
    assert w["terms"] == len(image.terms) and len(str(image)) > WITNESS_CHARS
    assert w["image"] == str(image)[:WITNESS_CHARS] + "..."
    assert "witness" not in CheckEntry("x", "pass", "", Witness("G", 12, image)).to_dict()


def test_charvar_sample_deterministic_in_seed(capsys):
    outs = [run_cli(["charvar", "--k", "2", "--sample", "3", "--seed", seed], capsys) for seed in ("7", "7", "99")]
    assert [code for code, _, _ in outs] == [0, 0, 0]
    assert outs[0][1] == outs[1][1] and json.loads(outs[0][1])["seed"] == 7
    assert json.loads(outs[2][1])["points"] != json.loads(outs[0][1])["points"]


@pytest.mark.parametrize("argv", [
    ["charvar", "--k", "3"],
    ["verify", "--k", "3"],
    ["gen", "--family", "sigma", "--k", "3", "--max-m", "2"],
])
def test_usage_error_is_one_error_line(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["--version"], ["-h"], ["gen", "-h"], ["charvar", "--k", "3"], ["verify", "--k", "3"],
    ["gen", "--family", "sigma", "--k", "3", "--max-m", "2"], ["verify", "--k", "x", "--suite", "system"],
    ["--k", "3", "gen"], ["xi", "--k", "3", "--op", "S3", "--bogus"], ["member", "--k", "2", "--op", "a.json"],
    ["numcheck", "--k", "2", "--sigma", "3,2"], ["golden", "--format", "text"], ["--", "xi"],
    ["charvar", "--k", "3", "--sample", "1", "--check-symbols"],
], ids=lambda argv: " ".join(argv) or "(none)")
def test_the_parser_built_for_one_command_parses_as_the_full_one(argv, capsys):
    # dispatch builds only the invoked subcommand; errors, help and exits stay those of the full tree
    from symtrace.cli import build_parser

    def outcome(parser):
        try:
            return "parsed", vars(parser.parse_args(argv))
        except ValueError as exc:
            return "error", str(exc)
        except SystemExit as exc:
            return "exit", exc.code, capsys.readouterr()

    assert outcome(build_parser(argv)) == outcome(build_parser())


def test_out_of_memory_is_one_error_line(capsys, monkeypatch):
    import symtrace.cli

    def exhausted(sym):
        raise MemoryError

    monkeypatch.setattr(symtrace.cli, "xi_transport", exhausted)
    code, out, err = run_cli(["xi", "--k", "3", "--op", "S3"], capsys)
    assert code == 1 and out == ""
    assert err == "error: out of memory\n"


def test_help_and_version_exit_zero(capsys):
    assert run_cli(["--version"], capsys)[0] == 0
    assert run_cli(["verify", "--help"], capsys)[0] == 0


def _t3_plus_d1(monkeypatch):
    """Replace T(3) by T(3) + d_1 at k=3 wherever the report builds it."""
    import symtrace.report
    from symtrace.annihilators import op_T

    def patched(k, m):
        return op_T(k, m) + WeylOp.partial(sigma_space(k), 1) if (k, m) == (3, 3) else op_T(k, m)

    monkeypatch.setattr(symtrace.report, "op_T", patched)


def test_failing_identity_names_its_case_and_residual(capsys, monkeypatch):
    _t3_plus_d1(monkeypatch)
    code, out, _ = run_cli(["verify", "--k", "3", "--suite", "relations"], capsys)
    assert code == 2
    checks = {c["id"]: c for c in json.loads(out)["checks"]}
    assert [cid for cid, c in checks.items() if c["status"] == "fail"] == [
        "identity:T-from-T0", "bracket:nabla-with-T"]
    # T(3) + d_1 - (T0(0) + sum_h s_h A(h,3,1)) = d_1; at h = 2 the raised
    # -(k-h) T(3) on the right gains -d_1
    assert checks["identity:T-from-T0"]["witness"] == {"case": "m = 3", "terms": 1, "image": "ds1"}
    assert checks["bracket:nabla-with-T"]["witness"] == {"case": "h = 2", "terms": 1, "image": "ds1"}
    assert all("witness" not in c for c in checks.values() if c["status"] != "fail")
    code, out, _ = run_cli(["verify", "--k", "3", "--suite", "relations", "--format", "text"], capsys)
    assert code == 2
    assert "witness: m = 3, 1 terms: ds1" in out and "witness: h = 2, 1 terms: ds1" in out


def test_failing_weight_check_names_its_case(monkeypatch):
    import symtrace.annihilators

    _t3_plus_d1(monkeypatch)
    monkeypatch.setattr(symtrace.annihilators, "op_T", symtrace.report.op_T)
    # generator_system builds each system once: this test builds its own,
    # and the cached one comes back untouched when the patches are undone
    monkeypatch.setattr(symtrace.annihilators, "_systems", cache(symtrace.annihilators._systems.__wrapped__))
    checks = {e.id: e.to_dict() for e in run_suite("weights", 3).entries}
    # [T(3) + d_1, U0] - 3 (T(3) + d_1) = -2 d_1
    assert checks["weight:T"]["witness"] == {"case": "[T(3), U0]", "terms": 1, "image": "-2*ds1"}
    # the generator T(3) + d_1 is not of pure weight; it is held to w = 0
    assert checks["weight:ideal-stability"]["witness"]["case"] == "T(3)"
    assert first_mismatch([("weight of G", None, -3)]) == Witness("weight of G", None, "non-pure")


def _cases_drawn_per_identity(monkeypatch, k: int) -> dict[tuple[str, str], int]:
    """{(suite, entry id): cases drawn} for every `RunReport.identity` entry of
    the relations, weights, symbols and primitive suites at k."""
    import symtrace.report

    original, drawn = symtrace.report.first_mismatch, {}

    def counting(cases):
        caller = sys._getframe(1)
        n = 0

        def counted():
            nonlocal n
            for case in cases:
                n += 1
                yield case

        w = original(counted())
        if caller.f_code is symtrace.report.RunReport.identity.__code__:
            drawn[caller.f_locals["self"].suite, caller.f_locals["id"]] = n
        return w

    monkeypatch.setattr(symtrace.report, "first_mismatch", counting)
    for suite in ("relations", "weights", "symbols", "primitive"):
        run_suite(suite, k)
    return drawn


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_every_identity_draws_a_case(monkeypatch, k):
    # an identity over no cases passes having checked nothing; at k = 2 the
    # system has no nonzero A(p,q,1), so the two identities over them are empty
    drawn = _cases_drawn_per_identity(monkeypatch, k)
    assert {suite for suite, _ in drawn} == {"relations", "weights", "symbols", "primitive"}
    empty = sorted(entry for (_, entry), n in drawn.items() if n == 0)
    assert empty == (["bracket:nabla-with-A", "weight:A"] if k == 2 else [])


def test_charvar_decompose_roundtrip(capsys, tmp_path):
    from symtrace.charvar import minors

    k = 2
    m = minors(k)[1, 2]
    se = sigma_eta_space(k)
    coeff = Poly.variable(se, "sigma", 1) * Poly.variable(se, "eta", 2) + Poly.variable(se, "eta", 1)
    f = coeff * m  # eta-homogeneous of degree 3
    path = tmp_path / "f.json"
    path.write_text(dumps(poly_to_dict(f)), encoding="utf-8")
    code, out, _ = run_cli(["charvar", "--k", "2", "--decompose", str(path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["member_of_minor_ideal"] is True and doc["recombines"] is True


def test_charvar_decompose_non_member(capsys, tmp_path):
    se = sigma_eta_space(2)
    f = Poly.variable(se, "eta", 1) * Poly.variable(se, "eta", 2)
    path = tmp_path / "bad.json"
    path.write_text(dumps(poly_to_dict(f)), encoding="utf-8")
    code, out, _ = run_cli(["charvar", "--k", "2", "--decompose", str(path)], capsys)
    assert code == 2
    assert json.loads(out)["member_of_minor_ideal"] is False


def test_charvar_check_symbols(capsys):
    code, out, _ = run_cli(["charvar", "--k", "4", "--check-symbols"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "symbols"
    assert doc["counts"]["fail"] == 0
    assert doc["counts"]["deviation"] >= 1  # the contraction display typos


@pytest.mark.parametrize("modes", [
    [],
    ["--sample", "1", "--check-symbols"],
    ["--sample", "1", "--decompose", "f.json"],
    ["--check-symbols", "--decompose", "f.json"],
])
def test_charvar_takes_exactly_one_mode(modes, capsys):
    code, out, err = run_cli(["charvar", "--k", "3", *modes], capsys)
    assert code == 1 and out == ""
    assert "error: " in err


@pytest.mark.parametrize("args, message", [
    (["--sample", "1", "--format", "text"], "--format text and --strict-paper apply only to --check-symbols"),
    (["--sample", "1", "--strict-paper"], "--format text and --strict-paper apply only to --check-symbols"),
    (["--decompose", "FILE", "--format", "text"], "--format text and --strict-paper apply only to --check-symbols"),
    (["--decompose", "FILE", "--strict-paper"], "--format text and --strict-paper apply only to --check-symbols"),
    (["--check-symbols", "--seed", "3"], "--seed applies only to --sample"),
    (["--decompose", "FILE", "--seed", "3"], "--seed applies only to --sample"),
])
def test_charvar_refuses_a_flag_its_mode_would_ignore(args, message, capsys, tmp_path):
    # --sample once printed points for --format text and exited 0
    path = tmp_path / "f.json"
    path.write_text(dumps(poly_to_dict(Poly.variable(sigma_eta_space(3), "eta", 1))), encoding="utf-8")
    argv = ["charvar", "--k", "3", *(str(path) if a == "FILE" else a for a in args)]
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"
    code, out, _ = run_cli(["charvar", "--k", "3", "--sample", "1", "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["object"] == "zpoints"


def test_numcheck_values(capsys):
    code, out, _ = run_cli(["numcheck", "--k", "2", "--sigma", "3,2", "--f", "pow:2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["trace"]["value"][0] - 5.0) < 1e-9  # N_2(3,2) = 5
    assert doc["trace"]["difference"] < 1e-9


def test_numcheck_reports_the_worked_out_radius_and_node_count(capsys, monkeypatch):
    # the benchmark's numcheck inputs at k = 2..12, for each of its functions
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "bench"))
    from workloads import numcheck_sigma

    rng = random.Random(1)
    for k in range(2, 13):
        sigma = [float(s) for s in numcheck_sigma(rng, k)]
        text = ",".join(map(repr, sigma))
        for f in ("exp", "sin", f"pow:{2 * k}"):
            code, out, _ = run_cli(["numcheck", "--k", str(k), f"--sigma={text}", "--f", f], capsys)
            assert code == 0
            doc = json.loads(out)
            assert doc["radius"] == contour_radius(sigma)
            assert doc["nodes"] == NODES


def test_numcheck_bad_sigma_count(capsys):
    code, _, err = run_cli(["numcheck", "--k", "3", "--sigma", "1,2"], capsys)
    assert code == 1


@pytest.mark.parametrize("args, message", [
    (["--sigma", "1,2", "--f", "pow:x"], "unknown function 'pow:x'"),
    (["--sigma", "1,,2"], "sigma entry 2 is not a number: ''"),
])
def test_numcheck_names_the_bad_input(args, message, capsys):
    code, out, err = run_cli(["numcheck", "--k", "2", *args], capsys)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_golden_check_fresh_checkout(capsys):
    rep = golden_check()
    counts = rep.counts
    assert counts["fail"] == 0
    ids = {e.id: e.status for e in rep.entries}
    assert ids["golden:sigma2_k2"] == "pass"
    assert ids["golden:sigma2_k3"] == "pass"
    assert ids["golden:sigma3_k3"] == "pass"
    assert ids["golden:n6_k3"] == "pass"
    assert ids["golden:pn3_k4"] == "deviation"
    assert ids["golden:pn4_k4"] == "deviation"
    assert ids["golden:minors_k3"] == "pass"


def test_golden_check_corrupted_file(tmp_path, capsys):
    import shutil

    from symtrace.report import golden_dir

    shutil.copytree(golden_dir(), tmp_path / "golden")
    (tmp_path / "golden" / "n6_k3.json").write_text("{broken", encoding="utf-8")
    (tmp_path / "golden" / "minors_k2.json").unlink()
    rep = golden_check(tmp_path / "golden")
    statuses = {e.id: (e.status, e.detail) for e in rep.entries}
    assert statuses["golden:n6_k3"][0] == "fail"
    assert "n6_k3" in statuses["golden:n6_k3"][1]
    assert statuses["golden:minors_k2"][0] == "fail"
    assert "missing" in statuses["golden:minors_k2"][1]


@pytest.fixture
def golden_entry(tmp_path, capsys):
    """Run `golden --dir` with flags on a copy of golden/ in which tamper has
    edited the document of one file; return the exit code and that file's entry."""

    def run(name, tamper, *flags):
        import shutil

        from symtrace.report import golden_dir

        base = tmp_path / "golden"
        shutil.copytree(golden_dir(), base)
        file = base / f"{name}.json"
        doc = json.loads(file.read_text(encoding="utf-8"))
        file.write_text(json.dumps(tamper(doc)), encoding="utf-8")
        code, out, _ = run_cli(["golden", "--dir", str(base), *flags], capsys)
        checks = {c["id"]: c for c in json.loads(out)["checks"]}
        return code, checks[f"golden:{name}"]

    return run


def set_first_coeff(poly_doc, coeff):
    poly_doc["terms"][0]["coeff"] = coeff


def test_golden_tampered_weylop_with_passing_validator_is_deviation(golden_entry):
    def tamper(doc):
        set_first_coeff(doc["value"]["terms"][0]["coeff"], "4/1")  # d^[2,0,0]: 3 -> 4
        return doc

    code, entry = golden_entry("sigma2_k3", tamper)
    assert code == 0 and entry["status"] == "deviation"
    assert "d^[2, 0, 0]: computed 3, stored 4" in entry["detail"]


def test_golden_weylop_mismatch_names_the_partial_and_both_values(golden_entry):
    def tamper(doc):
        term = next(t for t in doc["value"]["terms"] if t["dexp"] == [0, 1, 1])
        set_first_coeff(term["coeff"], "2/1")  # s1*s2 -> 2*s1*s2
        return doc

    code, entry = golden_entry("sigma2_k3", tamper, "--strict-paper")
    assert code == 2 and entry["status"] == "deviation"
    assert entry["detail"] == \
        "computed operator differs: d^[0, 1, 1]: computed s1*s2 + 3*s3, stored 2*s1*s2 + 3*s3"


def test_golden_tampered_poly_without_validator_fails(golden_entry):
    def tamper(doc):
        set_first_coeff(doc["value"], "2/1")
        return doc

    code, entry = golden_entry("n6_k3", tamper)
    assert code == 2 and entry["status"] == "fail"
    assert entry["detail"].startswith("computed ") and " vs stored " in entry["detail"]


def test_golden_tampered_poly_table_fails(golden_entry):
    def tamper(doc):
        set_first_coeff(doc["entries"]["m(1,2)"], "2/1")
        return doc

    code, entry = golden_entry("minors_k3", tamper)
    assert code == 2 and entry == {"id": "golden:minors_k3", "status": "fail", "detail": "table mismatch"}


def test_golden_unknown_kind_fails(golden_entry):
    def tamper(doc):
        doc["kind"] = "bogus"
        return doc

    code, entry = golden_entry("n6_k3", tamper)
    assert code == 2 and entry["status"] == "fail"
    assert entry["detail"] == "unknown kind 'bogus'"


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "symtrace.cli", "verify", "--k", "2", "--suite", "weights"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0


def test_usage_error_exit_code(capsys):
    assert dispatch(["verify", "--k", "3", "--suite", "bogus"]) == 1


@pytest.mark.parametrize("suite", ["relations", "weights", "symbols"])
def test_verify_rejects_max_m_where_it_does_not_apply(suite, capsys):
    code, out, err = run_cli(["verify", "--k", "3", "--suite", suite, "--max-m", "5"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and suite in err


def test_verify_symbols_k10_finishes():
    # the suite once expanded the symbolic discriminant and did not finish at k=10
    rep = run_suite("symbols", 10)
    assert rep.exit_status() == 0
    assert rep.counts["fail"] == 0


def test_golden_pn_mismatch_is_checked_not_excused(monkeypatch):
    from symtrace.symfun import NewtonFamily

    right = NewtonFamily.primitive

    def wrong(fam, m):
        return right(fam, m) + Poly.variable(fam.space, "sigma", 1)

    monkeypatch.setattr(NewtonFamily, "primitive", wrong)
    statuses = {e.id: e.status for e in golden_check().entries}
    assert statuses["golden:pn3_k4"] == "fail"
    assert statuses["golden:pn4_k4"] == "fail"


def test_xi_rejects_asymmetric_file(capsys, tmp_path):
    op = WeylOp.partial(x_space(2), 1)
    path = tmp_path / "asym.json"
    path.write_text(dumps(weyl_to_dict(op)), encoding="utf-8")
    code, _, err = run_cli(["xi", "--k", "2", "--op", str(path)], capsys)
    assert code == 1
    assert "not symmetric" in err


@pytest.mark.parametrize("sigma", ["3,nan", "nan,2", "3,inf", "-inf,2", "3,nan+1j"])
def test_numcheck_rejects_non_finite_sigma(capsys, sigma):
    code, out, err = run_cli(["numcheck", "--k", "2", f"--sigma={sigma}", "--f", "exp"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_numcheck_rejects_non_finite_trace(capsys):
    # exp(800) overflows a double, so the contour sums are not finite
    code, out, err = run_cli(["numcheck", "--k", "2", "--sigma=800,0", "--f", "exp"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


_magnitudes = st.floats(-300, 300).map(lambda e: 10.0 ** e)
_sigma_entries = st.one_of(
    st.tuples(_magnitudes, st.sampled_from([1.0, -1.0])).map(lambda t: repr(t[0] * t[1])),
    st.tuples(_magnitudes, st.floats(-math.pi, math.pi)).map(lambda t: repr(cmath.rect(*t))),
)
_trace_functions = st.one_of(
    st.sampled_from(["exp", "sin"]),
    st.integers(0, 40).map(lambda m: f"pow:{m}"),
    st.integers(0, 10 ** 20).map(lambda m: f"pow:{m}"),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda k: st.lists(_sigma_entries, min_size=k, max_size=k)), _trace_functions)
def test_numcheck_ends_in_finite_values_or_one_error_line(sigma, f):
    # cmath raises where a contour value overflows, meets a pole or leaves
    # the log's domain; that is the same one-line refusal as an inf or nan sum
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(["numcheck", "--k", str(len(sigma)), f"--sigma={','.join(sigma)}", "--f", f])
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        doc = json.loads(out)
        trace = doc["trace"]
        values = [doc["radius"], *trace["value"], *trace["residue_form"], trace["difference"]]
        assert err == "" and all(math.isfinite(v) for v in values)
    else:
        assert code == 1 and out == ""
        assert err == "error: the contour trace is not finite (overflow or a degenerate contour)\n"


def test_internal_invariant_failure_is_one_line_error(capsys, tmp_path, monkeypatch):
    import symtrace.charvar as charvar

    k = 2
    se = sigma_eta_space(k)
    f = Poly.variable(se, "eta", 2) * charvar.minors(k)[1, 2]
    path = tmp_path / "f.json"
    path.write_text(dumps(poly_to_dict(f)), encoding="utf-8")
    # break the recombination so decompose_in_minors' exactness assertion fires
    monkeypatch.setattr(charvar, "recombine", lambda k, coeffs: Poly.zero(sigma_eta_space(k)))
    code, out, err = run_cli(["charvar", "--k", "2", "--decompose", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: internal error: minor decomposition failed to recombine\n"


@pytest.mark.parametrize("args", [
    ["verify", "--k", "1", "--suite", "relations"],
    ["verify", "--k", "3", "--suite", "system", "--max-m", "-2"],
    ["verify", "--k", "3", "--suite", "forms", "--max-m", "-3"],
    ["verify", "--k", "3", "--suite", "primitive", "--max-m", "0"],
    ["member", "--k", "2", "--op", "golden/sigma2_k2.json", "--newton-bound", "-5"],
])
def test_a_check_that_would_check_nothing_is_refused(args, capsys):
    # these once passed on empty ranges: k = 1 leaves the relations
    # without generators, and a bound below the family's first index
    # draws no member
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("args", [
    ["verify", "--k", "3", "--suite", "system", "--max-m", "0"],
    ["verify", "--k", "3", "--suite", "forms", "--max-m", "-2"],
    ["verify", "--k", "3", "--suite", "primitive", "--max-m", "1"],
    ["member", "--k", "2", "--op", "golden/sigma2_k2.json", "--newton-bound", "0"],
])
def test_a_bound_at_the_first_index_still_checks(args, capsys):
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert json.loads(out)


def test_golden_on_a_missing_directory_is_a_usage_error(capsys, tmp_path):
    missing = tmp_path / "missing"
    code, out, err = run_cli(["golden", "--dir", str(missing)], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: no such directory: {missing}\n"


def test_decompose_of_a_high_eta_power_is_a_semantic_negative(capsys, tmp_path):
    path = tmp_path / "eta2_1200.json"
    eta2 = Poly.variable(sigma_eta_space(2), "eta", 2)
    path.write_text(dumps(poly_to_dict(eta2 ** 1200)), encoding="utf-8")
    code, out, _ = run_cli(["charvar", "--k", "2", "--decompose", str(path)], capsys)
    assert code == 2
    assert json.loads(out)["member_of_minor_ideal"] is False


def test_xi_rejects_a_file_asymmetric_only_under_a_later_transposition(capsys, tmp_path):
    # d1 d2 + d3 over x:3 is invariant under (x1 x2) but not under (x2 x3)
    X3 = x_space(3)
    op = WeylOp.partial(X3, 1) * WeylOp.partial(X3, 2) + WeylOp.partial(X3, 3)
    path = tmp_path / "asym.json"
    path.write_text(dumps(weyl_to_dict(op)), encoding="utf-8")
    code, out, err = run_cli(["xi", "--k", "3", "--op", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: not symmetric: fails under the transposition (x2 x3)\n"


REFERENCE = json.loads((Path(__file__).parent.parent / "bench" / "reference.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(n for n in REFERENCE["sha256"] if n.startswith("xi ")) + ["golden"])
def test_xi_and_golden_outputs_match_the_recorded_hashes(name, capsys):
    if name == "golden":
        argv = ["golden"]
    else:
        op, k = name.split()[1:]
        argv = ["xi", "--k", k.removeprefix("k="), "--op", op]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == REFERENCE["sha256"][name]


def test_xi_s6_at_k6_output_hash(capsys):
    # about 1 s; the full x-space transport took about 30 s
    code, out, _ = run_cli(["xi", "--k", "6", "--op", "S6"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        "ae125d6cf80dfd7b789091a976d1cbd63fdf84c5b3ec59b17671ffbd68223b89"


# recorded before the sampler moved to int arithmetic; the benchmark
# hashes neither the default seed nor k = 2
SAMPLE_SHA256 = {
    ("charvar", "--k", "2", "--sample", "10"): "ef06ef64a99932d9cf4c8247eba94c6e4012acb456f57241b4fb6c437625cfa8",
    ("charvar", "--k", "3", "--sample", "10"): "1d2b1043fb7a4c3e03394a1157db98420d38e4e665f5b8c0d67006b66773147d",
    ("charvar", "--k", "4", "--sample", "10"): "8bf452e3680a85f9c16e3cb7385144f898f6795eff89abd238b2a6fde72ea4dd",
    ("charvar", "--k", "5", "--sample", "10"): "7be2aefb7c0c349058c22fb71dc9200c45765521856091128dcefc3c1a81060c",
    ("charvar", "--k", "6", "--sample", "10"): "c5dfb841d8207e07548519534fcfb144af22f84eb2d96598ccce00c5c8af4cbf",
    ("verify", "--k", "2", "--suite", "symbols"): "9cba6b5b6c5d4f893a72ff3dac70bd11117b28cf31cb9df253013b7957ab05fb",
}


@pytest.mark.parametrize("argv", sorted(SAMPLE_SHA256), ids=" ".join)
def test_sampled_points_match_the_recorded_hashes(argv, capsys):
    code, out, _ = run_cli(list(argv), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SAMPLE_SHA256[argv]


def _decompose_inputs(k):
    """The top-order symbol of xi S_k, and a seeded combination of the minors
    whose coefficients depend on sigma and have eta-degree 2."""
    se = sigma_eta_space(k)
    rng = random.Random(k)
    eta_pairs = [tuple(int(i == a) + int(i == b) for i in range(k)) for a in range(k) for b in range(a, k)]
    combo = Poly.sum(se, (
        Poly(se, {tuple(rng.randint(0, 1) for _ in range(k)) + e: rng.randint(-3, 3) for e in rng.sample(eta_pairs, 2)})
        * m for m in minors(k).values()))
    return {"symbol": xi_transport(elementary_symmetric_op(k, k)).symbol(), "combination": combo}


DECOMPOSE_SHA256 = {
    (3, "symbol"): "4e08e3c8bdc158cb21ffddac7c2ea7ece83b52a165e6c500224eb3890edf0ed6",
    (3, "combination"): "69537c553cf5d7ee05fcf1e308fcbf489f9bf4169cc5b1f2a74bb4bfb46bb317",
    (4, "symbol"): "ce1582ee1f76912e70a6911058f74c9eeca3191ce70c4229844dc520787265c3",
    (4, "combination"): "bc756a025986303481645eb143e7b800bf94c72e34be8a37f9f738efe3c6cf2f",
    (5, "symbol"): "f8d943c0dda11d23ee7e63e46318fdfd267f558db1951b83a470dbfde6e418df",
    (5, "combination"): "9bd9955a91da4dfee104a06630717a3d8cfafc1a9c8196ebf01619ceeb20e179",
}


@pytest.mark.parametrize("k", [3, 4, 5])
def test_decompose_outputs_match_the_recorded_hashes(k, capsys, tmp_path):
    # the minor coefficients printed by charvar --decompose, byte for byte
    for name, f in _decompose_inputs(k).items():
        path = tmp_path / f"{name}.json"
        path.write_text(dumps(poly_to_dict(f)), encoding="utf-8")
        code, out, _ = run_cli(["charvar", "--k", str(k), "--decompose", str(path)], capsys)
        assert code == 0 and json.loads(out)["recombines"] is True
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DECOMPOSE_SHA256[k, name], (k, name)
