"""Every CLI command's bytes, hashed and pinned.

Runs every command, in text and `--json`, over a small seeded pool of
instance files (feasible and infeasible), grid files, approximation files,
the gallery and three error paths, and hashes stdout, stderr, the exit
code and any CSV written. The temporary directory is masked, so the hash
depends only on what the program prints. A refactor that should change
no output must leave GOLDEN as it is.

To re-record after an intended change of output, print `_digest()[0]` and
replace GOLDEN, saying in the change why the output moved.
"""

import hashlib
import json
import random

from click.testing import CliRunner

from farkaskit import cli, instances
from farkaskit.rational import scalar_text

GOLDEN = "4b9ca90c9482e2310e339641240672c803c2c32dc7330e43a12653e13a1fe370"

APPROX_DOCS = [
    {"approx": {"degree": 3, "nodes": [0, "1/4", "1/2", 1],
                "values": [0, "1/16", "1/4", 1], "epsilons": ["1/10", 1]}},
    {"approx": {"degree": 2, "nodes": [0, "1/2", 1], "values": [0, "1/4", 1],
                "epsilons": ["1/10", 1]}},
]


def _grid_document(inst) -> dict:
    doc = cli.instance_document(inst)
    rows = [[a, lo, hi] for a, (lo, hi) in zip(doc["A"], doc["D"]["box"])]
    return {"f": doc["f"], "C": doc["C"], "grid": {"rows": rows}}


def _pool():
    """(instance documents with a point to test, grid documents)."""
    rng = random.Random(2026)
    docs = []
    for _ in range(4):
        inst = instances.random_feasible_instance(rng)
        point = instances.sample_feasible_points(inst, rng, count=1)[0]
        docs.append((cli.instance_document(inst), point))
    for _ in range(3):
        inst = instances.random_infeasible_instance(rng)
        docs.append((cli.instance_document(inst), [0] * inst.n))
    grids = [_grid_document(instances.random_grid(rng)) for _ in range(3)]
    return docs, grids


def _invocations(tmp):
    """Yield (argv, csv path or None) for every command on the pool."""
    docs, grids = _pool()
    for k, (doc, point) in enumerate(docs):
        path = tmp / f"inst{k}.json"
        path.write_text(json.dumps(doc))
        at = json.dumps([scalar_text(v) for v in point])
        for argv in (["check", str(path), "--theorem", "1"],
                     ["check", str(path), "--theorem", "2"],
                     ["check", str(path), "--theorem", "3"],
                     ["check", str(path), "--theorem", "concave"],
                     ["feasible", str(path)],
                     ["solve", str(path)],
                     ["dual", str(path)],
                     ["optimality", str(path), "--point", at],
                     ["stable", str(path), "--tilts", "3"]):
            yield argv, None
            yield argv + ["--json"], None
    tilted = dict(docs[0][0], tilts=[[["1"] * len(docs[0][1]), "0"]])
    path = tmp / "tilted.json"
    path.write_text(json.dumps(tilted))
    yield ["stable", str(path)], None
    yield ["stable", str(path), "--json"], None
    for k, doc in enumerate(grids):
        path = tmp / f"grid{k}.json"
        path.write_text(json.dumps(doc))
        for mode in ("7-8", "7-9", "9-10"):
            yield ["semiinf", str(path), mode], None
            yield ["semiinf", str(path), mode, "--json"], None
    for k, doc in enumerate(APPROX_DOCS):
        path = tmp / f"approx{k}.json"
        path.write_text(json.dumps(doc))
        for flag in ([], ["--json"]):
            out = tmp / f"approx{k}{len(flag)}.csv"
            yield ["polyapprox", str(path), "--out", str(out)] + flag, out
    for name in ("g1", "g2", "g3"):
        yield ["gallery", name], None
        yield ["gallery", name, "--json"], None
    truncated = tmp / "truncated.json"
    truncated.write_text('{"f": ')
    yield ["check", str(truncated), "--theorem", "1"], None
    rowless = tmp / "rowless.json"
    rowless.write_text(json.dumps({"f": {"slopes": [[1]]}, "grid": {}}))
    yield ["semiinf", str(rowless), "7-8"], None
    yield ["gallery", "g9"], None


def _digest(tmp):
    """(sha256 over every invocation, number of invocations)."""
    runner = CliRunner()
    h = hashlib.sha256()
    count = 0
    mask = str(tmp)
    for argv, csv in _invocations(tmp):
        res = runner.invoke(cli.main, argv, env={"FARKAS_SEED": "0"})
        text = [" ".join(argv), res.stdout, res.stderr, str(res.exit_code)]
        if csv is not None and csv.exists():
            text.append(csv.read_text())
        h.update("\0".join(text).replace(mask, "<tmp>").encode())
        count += 1
    return h.hexdigest(), count


def test_cli_output_is_pinned(tmp_path):
    digest, count = _digest(tmp_path)
    assert count == 159
    assert digest == GOLDEN
