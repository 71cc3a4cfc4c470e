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


def _name_of(func):
    """The called name of a call's func: an attribute's or a bare name's."""
    if isinstance(func, ast.Attribute):
        return func.attr
    return getattr(func, "id", None)


def _joint_lp_systems(tree, where=None):
    """The enclosing function's name (None at module level) of every
    `System(...)` call, `lp.System` or bare, that takes a `_joint_lp(...)`
    call, `sets._joint_lp` or bare, as an argument."""
    for node in ast.iter_child_nodes(tree):
        if (isinstance(node, ast.Call) and _name_of(node.func) == "System"
                and any(isinstance(a, ast.Call)
                        and _name_of(a.func) == "_joint_lp"
                        for a in node.args)):
            yield where
        inner = node.name if isinstance(node, ast.FunctionDef) else where
        yield from _joint_lp_systems(node, inner)


def _joint_lp_references(tree):
    """The line of every `sets._joint_lp` attribute and every import of
    `_joint_lp` in a tree."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "_joint_lp"
                and isinstance(node.value, ast.Name)
                and node.value.id == "sets"):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from (node.lineno for alias in node.names
                        if alias.name == "_joint_lp")


def test_only_the_kept_sweep_puts_a_sets_rows_on_a_system():
    # a set's support sweeps share the one System it keeps (`sets._sweep`);
    # a System built on its rows anywhere else would run a phase 1 of its
    # own, and so would a fresh one in another module
    systems, references = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        systems += [(path.name, where) for where in _joint_lp_systems(tree)]
        if path.name != "sets.py":
            references += [f"{path.name}:{line}"
                           for line in _joint_lp_references(tree)]
    assert systems == [("sets.py", "_sweep")]
    assert references == []
    probe = ast.parse("def f(s):\n    return lp.System(_joint_lp(s))\n"
                      "lp.System(sets._joint_lp(s)).maxima(c)\n"
                      "lp.solve(_joint_lp(s))\nfrom .sets import _joint_lp\n"
                      "g = sets._joint_lp\nlp.System(program(s))\n")
    assert list(_joint_lp_systems(probe)) == ["f", None]
    assert sorted(_joint_lp_references(probe)) == [3, 5, 6]


def _witness_layout_reads(tree):
    """The line of every `.witness_dim` or `.witness_nonneg` attribute in a
    tree; a keyword argument of that name is no read."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and node.attr in ("witness_dim", "witness_nonneg")):
            yield node.lineno


def test_only_sets_reads_a_witness_layout():
    # proofs by substitution into a set's rows are answered in sets
    # (`sets.satisfied`), so no other module needs to know which columns
    # are witnesses or which of them are signed
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "sets.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}" for line in _witness_layout_reads(tree)]
    assert found == []
    probe = ast.parse("s.witness_dim\nLiftedSet(witness_dim=2)\n"
                      "[f for f in s.witness_nonneg]\nwitness_nonneg = []\n"
                      "getattr(s, 'witness_dim')\nt.s.witness_dim + 1\n")
    assert sorted(_witness_layout_reads(probe)) == [1, 3, 6]
