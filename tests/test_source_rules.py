"""Rules on the library source that CI keeps."""

import ast
from pathlib import Path

import symtrace

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


# poly.py is the kernel: only it builds term dicts with the private
# helpers; everything above it, weyl.py included, goes through Poly.sum,
# Poly.sum_of_products, collect/embed, scale or the validated constructor
KERNEL = {"poly.py"}
KERNEL_HELPERS = {"_accumulate", "_trusted"}
KERNEL_HELPER_EDGES = {  # function -> why it may build and wrap a term dict
    "symfun.reduce_partitions": "partition coefficients become sigma-terms here; the exponents are "
                                "gaps of partitions, clean by construction, and validating them "
                                "cost about 5% more calls on xi S6",
}


def test_only_the_kernel_uses_the_term_dict_helpers():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        if path.name in KERNEL:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        scope = {}  # node -> innermost enclosing function (ast.walk goes outside in)
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope.update(dict.fromkeys(ast.walk(fn), fn.name))
        for node in ast.walk(tree):
            # each use is a name or an attribute; an import counts where it renames a helper
            if (isinstance(node, ast.Name) and node.id in KERNEL_HELPERS
                    or isinstance(node, ast.alias) and node.name in KERNEL_HELPERS and node.asname
                    or isinstance(node, ast.Attribute) and node.attr in KERNEL_HELPERS):
                found.add(f"{path.stem}.{scope.get(node, '<module>')}")
    assert sorted(found) == sorted(KERNEL_HELPER_EDGES)


UNCALLED_OUTSIDE_TESTS = {  # public function -> why it stays with no caller in src/ or demos/
    "symfun.discriminant": "bench/tracer.py wraps it; ROADMAP items 1 and 9 retire it",
    "symfun.newton_varouchas": "the independent oracle of NewtonFamily.newton",
    "symfun.symmetrize": "the input strategy of the sympy oracle",
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
