"""Fuzzing the CLI loaders: a malformed instance, grid, approx or tilt
document is rejected with InputFormatError, which every command turns into
exit 64 and a one-line message, never a traceback or another exit code."""

import copy
import json
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from farkaskit import cli
from farkaskit.errors import InputFormatError

from test_cli import ALL_HOLDS, APPROX, GRID

TILTS = dict(ALL_HOLDS, tilts=[[[1, 0], 0], [["1/2", -1], "1/3"]])
DOCS = {"instance": ALL_HOLDS, "grid": GRID, "approx": APPROX,
        "tilts": TILTS}
KEYS = sorted({"f", "A", "C", "D", "G", "h", "E", "e", "box", "slopes",
               "offsets", "domain", "grid", "rows", "approx", "degree",
               "nodes", "values", "epsilons", "tilts"})
# rational literals, good and bad; the exponents stay small enough that
# forming 10 to their power would be harmless if the digit bound broke
LITERALS = st.sampled_from([
    "1/2", "-3", " 2/4 ", "0.5", "1e3", "-2E-2", "1e4300", "3e-5000",
    "1/0", "x", "", "nan", "inf", "1e", "--1", "1/2/3"])
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                    st.integers(), st.floats(), st.text(max_size=3),
                    LITERALS)
VALUES = st.recursive(
    SCALARS, lambda kids: st.one_of(
        st.lists(kids, max_size=3),
        st.dictionaries(st.sampled_from(KEYS), kids, max_size=3)),
    max_leaves=10)


@st.composite
def mutated(draw, doc):
    """The document with one entry, at any depth, deleted or replaced by
    an arbitrary JSON value."""
    doc = copy.deepcopy(doc)
    node = doc
    while True:
        key = draw(st.sampled_from(
            list(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
        elif draw(st.booleans()):
            del node[key]
            return doc
        else:
            node[key] = draw(VALUES)
            return doc


KIND_AND_DOC = st.sampled_from(sorted(DOCS)).flatmap(
    lambda kind: st.tuples(st.just(kind), mutated(DOCS[kind])))


def _load(kind, doc):
    """What the CLI loads from a document of this kind, in its order."""
    if kind == "grid":
        return cli.load_grid(doc)
    if kind == "approx":
        return cli.load_approx(doc)
    inst = cli.load_instance(doc)
    return cli.load_tilts(doc, inst.n) if kind == "tilts" else inst


def _rejected(kind, doc) -> bool:
    try:
        _load(kind, doc)
    except InputFormatError:
        return True
    return False


def _invoke(kind, text):
    """Run the command reading a document of this kind on `text`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        args = {"instance": ["check", str(path), "--theorem", "1"],
                "grid": ["semiinf", str(path), "7-8"],
                "approx": ["polyapprox", str(path), "--out",
                           str(Path(tmp) / "out.csv")],
                "tilts": ["stable", str(path)]}[kind]
        return CliRunner().invoke(cli.main, args)


@settings(max_examples=200, deadline=None)
@given(KIND_AND_DOC)
def test_loaders_raise_only_input_errors(kind_and_doc):
    # any other exception propagates and fails the test
    _rejected(*kind_and_doc)


@settings(max_examples=40, deadline=None)
@given(KIND_AND_DOC)
def test_rejected_documents_exit_64_without_traceback(kind_and_doc):
    kind, doc = kind_and_doc
    if not _rejected(kind, doc):
        return  # well formed: the command's own exit codes apply
    res = _invoke(kind, json.dumps(doc))
    assert res.exit_code == 64, res.output
    assert res.output.startswith("input error: "), res.output
    assert "Traceback" not in res.output


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=24))
def test_any_file_content_loads_or_is_rejected(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_bytes(data)
        try:
            assert isinstance(cli.load_document(str(path)), dict)
        except InputFormatError:
            pass


def _instance_text(entry):
    return json.dumps(dict(ALL_HOLDS, A=[[entry, 0], [1, 1]]))


@pytest.mark.parametrize("kind, text", [
    # undecodable bytes, an integer past Python's digit limit and nesting
    # past its recursion limit: the decoder raises ValueError or
    # RecursionError rather than JSONDecodeError
    ("instance", b"\xff{}"),
    ("instance", _instance_text("BIG").replace('"BIG"', "7" * 5000)),
    ("grid", "[" * 100000 + "]" * 100000),
    # a literal whose exponent passes the digit bound is refused before
    # 10 to its power is formed
    ("instance", _instance_text("1e4300")),
    ("tilts", json.dumps(dict(TILTS, tilts=[[["-1e-5000", 0], 0]]))),
    # a JSON boolean is not an integer degree
    ("approx", json.dumps({"approx": dict(APPROX["approx"], degree=True)})),
    # an empty tolerance list has nothing to sweep, which is no "no fit"
    ("approx", json.dumps({"approx": dict(APPROX["approx"], epsilons=[])})),
])
def test_hostile_documents_exit_64(kind, text):
    res = _invoke(kind, text)
    assert res.exit_code == 64, res.output
    assert res.output.startswith("input error: "), res.output


@pytest.mark.parametrize("text, message", [
    ("[1]", "top level must be an object"),
    (json.dumps(dict(ALL_HOLDS, D={"box": [[1, 0], [0, 1]]})),
     "D.box: box with lo > hi"),
    (json.dumps(dict(ALL_HOLDS, A=[])), "A: at least one row required"),
    (json.dumps(dict(ALL_HOLDS, D={"box": [["x", 1], [0, 1]]})),
     "D.box[0]: not a rational literal: 'x'"),
])
def test_loader_failures_name_their_cause(text, message):
    res = _invoke("instance", text)
    assert res.exit_code == 64, res.output
    assert res.output.startswith("input error: "), res.output
    assert message in res.output


def test_unreadable_path_exits_64(tmp_path):
    missing = tmp_path / "missing.json"
    res = CliRunner().invoke(cli.main, ["check", str(missing),
                                        "--theorem", "1"])
    assert res.exit_code == 64, res.output
    assert res.output.startswith(f"input error: cannot read {missing}: ")
