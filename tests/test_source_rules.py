"""Rules the package source keeps, checked on its syntax trees."""

import ast
from pathlib import Path

import farkaskit

PACKAGE = Path(farkaskit.__file__).parent


def test_no_assert_statements():
    # `python -O` strips asserts; a forced identity raises
    # InvariantViolation instead, so it holds under every interpreter flag
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def _private_lp_names(tree):
    """lp._name attributes and `from .lp import _name` imports in a tree."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id == "lp"):
            yield node.lineno
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[-1] == "lp"):
            yield from (node.lineno for alias in node.names
                        if alias.name.startswith("_"))


def test_kernel_internals_stay_in_lp():
    # the exchange and the membership sweeps rely on the kernel's tableau
    # invariants, which only lp.py may touch
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "lp.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}" for line in _private_lp_names(tree)]
    assert found == []
    probe = ast.parse("from .lp import _Tableau\nlp._Tableau(p)\n"
                      "lp.solve(p)\nfrom farkaskit.lp import _eliminate, solve")
    assert sorted(_private_lp_names(probe)) == [1, 2, 4]


def _imported_modules(tree):
    """The top-level name of every module an `import` or `from` imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_no_module_imports_copy():
    # instances and polyhedra keep derived sets, points and systems in
    # their __dict__ (`sets.kept`), which a shallow copy shares with data
    # they may no longer fit; changed data is built through a constructor
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [path.name for name in _imported_modules(tree)
                  if name == "copy"]
    assert found == []
    probe = ast.parse("import copy\nfrom copy import copy\nimport copyreg\n"
                      "from . import copy")
    assert list(_imported_modules(probe)) == ["copy", "copy", "copyreg"]


def _to_lifted_calls(tree):
    """The line of every `.to_lifted()` call in a tree."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "to_lifted"):
            yield node.lineno


def test_no_module_calls_to_lifted():
    # a polyhedron is a lifted set with no witness columns, so every set
    # is passed as itself; `to_lifted` stays for outside callers only
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}" for line in _to_lifted_calls(tree)]
    assert found == []
    probe = ast.parse("p.to_lifted()\nto_lifted(p)\nf = p.to_lifted\n"
                      "sets.supports(inst.ground.to_lifted(), vs)")
    assert sorted(_to_lifted_calls(probe)) == [1, 4]
