"""Rules on the library source that CI keeps."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symtrace
from symtrace.charvar import minors
from symtrace.serialize import dumps, poly_to_dict

SRC = Path(symtrace.__file__).parent


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so a check written with one
    # passes vacuously there; checks raise AssertionError explicitly
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


# a running x = x + piece over Poly or WeylOp copies the sum on every step;
# Poly.sum and WeylOp.sum accumulate into one dict.  vanishes_on_Z keeps
# its literal loop as the independent chart check, and check_images
# subtracts one expected image per image.
RUNNING_SUM_EXEMPT = {"vanishes_on_Z", "check_images"}


def test_no_running_sum_in_a_loop():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or fn.name in RUNNING_SUM_EXEMPT:
                continue
            loops = [node for node in ast.walk(fn) if isinstance(node, (ast.For, ast.While))]
            for node in (n for loop in loops for n in ast.walk(loop)):
                if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Name)):
                    continue
                value = node.value
                if (isinstance(value, ast.BinOp) and isinstance(value.op, (ast.Add, ast.Sub))
                        and isinstance(value.left, ast.Name) and value.left.id == node.targets[0].id):
                    found.append(f"{path.name}:{fn.name}:{node.lineno}")
    assert sorted(set(found)) == []


# poly.py is the kernel: only it wraps term dicts; everything above it,
# weyl.py and the partition descent of symfun included, goes through
# Poly.sum, Poly.sum_of_products, collect/embed, scale or the validated
# constructor
KERNEL = {"poly.py"}
KERNEL_HELPERS = {"_trusted"}
KERNEL_HELPER_EDGES: dict[str, str] = {}  # function -> why it may build and wrap a term dict


def _enclosing_functions(tree) -> dict:
    """node -> name of the innermost function around it (ast.walk goes outside in)."""
    scope = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope.update(dict.fromkeys(ast.walk(fn), fn.name))
    return scope


def test_only_the_kernel_uses_the_term_dict_helpers():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        if path.name in KERNEL:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        scope = _enclosing_functions(tree)
        for node in ast.walk(tree):
            # each use is a name or an attribute; an import counts where it renames a helper
            if (isinstance(node, ast.Name) and node.id in KERNEL_HELPERS
                    or isinstance(node, ast.alias) and node.name in KERNEL_HELPERS and node.asname
                    or isinstance(node, ast.Attribute) and node.attr in KERNEL_HELPERS):
                found.add(f"{path.stem}.{scope.get(node, '<module>')}")
    assert sorted(found) == sorted(KERNEL_HELPER_EDGES)


def test_only_the_kernel_reads_the_keys_of_a_term_dict():
    # a Poly's term dict is keyed by packed ints that only poly.py packs and
    # decodes; everything else reads terms through sorted_terms, coefficient
    # and the other accessors, WeylOp's as well, and may count them with
    # len().  weyl.py reads its own nested view as self.terms.
    root = Path(__file__).parent.parent
    found = []
    for path in sorted(SRC.rglob("*.py")) + sorted((root / "demos").glob("*.py")) + sorted((root / "tests").glob("*.py")):
        if path.name in KERNEL:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}  # a .terms() method
        allowed.update(id(arg) for node in ast.walk(tree) if isinstance(node, ast.Call)
                       and getattr(node.func, "id", None) == "len" for arg in node.args)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute) or node.attr != "terms" or id(node) in allowed:
                continue
            if path.name == "weyl.py" and getattr(node.value, "id", None) == "self":
                continue
            found.append(f"{path.parent.name}/{path.name}:{node.lineno}")
    assert found == []


UNCALLED_OUTSIDE_TESTS = {  # public function -> why it stays with no caller in src/ or demos/
    "symfun.discriminant": "bench/tracer.py wraps it; ROADMAP items 1 and 9 retire it",
    # the CLI streams through serialize.dump; until the tracer wraps that
    # writer, these two keep the names its serialize metrics read
    "serialize.dumps": "bench/tracer.py wraps it; ROADMAP item 1 points the tracer at serialize.dump",
    "serialize.weyl_to_dict": "bench/tracer.py wraps it; ROADMAP item 1 points the tracer at serialize.dump",
}


def _qualified_uses(path, tree):
    """(module, name) for each use in tree that names the module it comes from:
    an import from that symtrace module, an attribute on a name bound to the
    module, or, inside the module itself, a bare name loaded outside that
    name's own top-level definition."""
    modules = {}  # local name -> module, from `from symtrace import numerics`
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("symtrace")):
            module = (node.module or "").removeprefix("symtrace").lstrip(".")
            for a in node.names:
                if module:
                    yield module, a.name
                else:
                    modules[a.asname or a.name] = a.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            yield modules[node.value.id], node.attr
    if path.parent == SRC:
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            yield from ((path.stem, n.id) for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id != own)


def test_every_public_function_has_a_caller_outside_tests():
    # code that only its own tests call restates what something else
    # already computes; it goes, or the table above says why it stays.
    # The package __init__ only re-exports, so its imports are no callers.
    defined, used = set(), set()
    for path in sorted(SRC.glob("*.py")) + sorted((Path(__file__).parent.parent / "demos").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if path.parent == SRC:
            defined.update(f"{path.stem}.{stmt.name}" for stmt in tree.body
                           if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"))
        if path.name != "__init__.py":
            used.update(f"{module}.{name}" for module, name in _qualified_uses(path, tree))
    assert sorted(defined - used) == sorted(UNCALLED_OUTSIDE_TESTS)


def _is_space_expr(node) -> bool:
    """A .space attribute, or a call that returns a VarSpace."""
    if isinstance(node, ast.Attribute):
        return node.attr == "space"
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
    return name.endswith("_space") or name in ("VarSpace", "drop", "from_code")


def test_spaces_are_compared_by_identity():
    # each layout has one interned VarSpace, so == and != on spaces only
    # restate `is`; guards go through spaces.check_space
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Compare) and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
                    and any(map(_is_space_expr, [node.left, *node.comparators]))):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_every_function_the_benchmark_tracer_wraps_runs_its_own_code():
    # bench/selftest.py counts the calls to each wrapped function through its
    # code object; a functools.cache wrapper has none, and a hit skips it
    import importlib
    import importlib.util

    path = Path(__file__).parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for name, module, attr in tracer.TARGETS:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        if not hasattr(obj, "__code__"):
            missing.append(name)
    assert missing == []


def test_report_has_no_pass_flag_set_in_a_loop():
    # an `ok = False` inside a loop records a bare fail; identities go
    # through RunReport.identity, which names the failing case
    tree = ast.parse((SRC / "report.py").read_text(encoding="utf-8"))
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        loops = [node for node in ast.walk(fn) if isinstance(node, (ast.For, ast.While))]
        for node in (n for loop in loops for n in ast.walk(loop)):
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, bool)
                    and any(isinstance(t, ast.Name) for t in node.targets)):
                found.append(f"{fn.name}:{node.lineno}")
    assert sorted(set(found)) == []


def test_numpy_is_imported_only_inside_poly_roots():
    # only root finding needs numpy, and the import sits in its body, so
    # importing the package, and with it every command, loads none
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        scope = _enclosing_functions(tree)
        for node in ast.walk(tree):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name.split(".")[0] == "numpy" for name in names):
                found.append(f"{path.stem}.{scope.get(node, '<module>')}")
    assert found == ["numerics.poly_roots"]


_NUMPY_PROBE = """
import contextlib, io, json, sys
from symtrace import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.dispatch(sys.argv[1:])
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules}))
"""


@pytest.mark.parametrize("argv", [
    ["gen", "--family", "newton", "--k", "3", "--max-m", "6"],
    ["xi", "--k", "3", "--op", "S2"],
    ["verify", "--k", "3", "--suite", "system"],
    ["charvar", "--k", "3", "--sample", "2"],
    ["charvar", "--k", "3", "--check-symbols"],
    ["charvar", "--k", "2", "--decompose", "MINOR"],
    ["member", "--k", "2", "--op", "sigma2_k2.json"],
    ["numcheck", "--k", "2", "--sigma", "3,2", "--f", "exp"],
    ["golden"],
], ids=" ".join)
def test_no_command_loads_numpy(argv, tmp_path):
    # each command in a fresh interpreter, so nothing this test process
    # imported counts
    minor = tmp_path / "minor.json"
    minor.write_text(dumps(poly_to_dict(minors(2)[1, 2])), encoding="utf-8")
    argv = [str(minor) if a == "MINOR" else a for a in argv]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, *argv], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"code": 0, "numpy": False}
