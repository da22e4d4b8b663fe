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
# its literal loop as the independent chart check; check_images
# subtracts one expected image per image, and poly_roots iterates floats.
RUNNING_SUM_EXEMPT = {"vanishes_on_Z", "check_images", "poly_roots"}


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
