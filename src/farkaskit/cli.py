"""Command-line surface: JSON instances in, verdicts and certificates out.

Exit codes: 0 consistent/feasible, 1 infeasible (or not optimal), 3 a
mathematically forced identity failed at runtime (always a bug somewhere),
64 malformed input, 65 a named hypothesis of the requested check is
violated by the instance.
"""

import json
import os
import sys
from dataclasses import fields, is_dataclass
from enum import Enum

import click

from . import duality, engine, gallery, polyapprox, semiinf, sets
from .calculus import PiecewiseAffine
from .engine import FarkasInstance
from .errors import InputFormatError, InvariantViolation
from .rational import as_q, scalar_text
from .semiinf import GridSystem

EXIT_OK = 0
EXIT_NO = 1
EXIT_ALARM = 3
EXIT_BAD_INPUT = 64
EXIT_HYPOTHESIS = 65


# --- input -----------------------------------------------------------------

def _fail(msg: str):
    raise InputFormatError(msg)


def _q(v, where: str):
    try:
        return as_q(v)
    except (TypeError, ValueError) as exc:
        _fail(f"{where}: {exc}")


def _q_vector(values, where: str):
    if not isinstance(values, list):
        _fail(f"{where}: expected an array")
    return [_q(v, where) for v in values]


def _q_matrix(rows, where: str):
    if not isinstance(rows, list):
        _fail(f"{where}: expected an array of rows")
    return [_q_vector(r, where) for r in rows]


def _polyhedron(block, dim: int | None, where: str) -> sets.Polyhedron:
    if not isinstance(block, dict):
        _fail(f"{where}: expected an object with G/h/E/e")
    G = _q_matrix(block.get("G", []), f"{where}.G")
    h = _q_vector(block.get("h", []), f"{where}.h")
    E = _q_matrix(block.get("E", []), f"{where}.E")
    e = _q_vector(block.get("e", []), f"{where}.e")
    if dim is None:
        widths = [len(r) for r in G + E]
        if not widths:
            _fail(f"{where}: cannot infer dimension from an empty block")
        dim = widths[0]
    try:
        return sets.Polyhedron(dim=dim, G=G, h=h, E=E, e=e)
    except ValueError as exc:
        _fail(f"{where}: {exc}")


def _target(block, m: int, where: str):
    if isinstance(block, dict) and "box" in block:
        pairs = block["box"]
        if not isinstance(pairs, list):
            _fail(f"{where}.box: expected an array of [lo, hi] pairs")
        parsed = []
        for k, pair in enumerate(pairs):
            if not isinstance(pair, list) or len(pair) != 2:
                _fail(f"{where}.box[{k}]: expected [lo, hi]")
            parsed.append((_q(pair[0], f"{where}.box[{k}]"),
                           _q(pair[1], f"{where}.box[{k}]")))
        try:
            return sets.Box(parsed)
        except ValueError as exc:
            _fail(f"{where}.box: {exc}")
    return _polyhedron(block, m, where)


def _objective(block, where: str) -> PiecewiseAffine:
    if not isinstance(block, dict) or "slopes" not in block:
        _fail(f"{where}: expected an object with slopes/offsets")
    slopes = _q_matrix(block["slopes"], f"{where}.slopes")
    offsets = _q_vector(block.get("offsets", []), f"{where}.offsets")
    if not slopes:
        _fail(f"{where}.slopes: at least one piece required")
    domain = None
    if block.get("domain") is not None:
        domain = _polyhedron(block["domain"], len(slopes[0]),
                             f"{where}.domain")
    try:
        return PiecewiseAffine(dim=len(slopes[0]), slopes=slopes,
                               offsets=offsets, domain=domain)
    except ValueError as exc:
        _fail(f"{where}: {exc}")


def load_document(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        _fail(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        _fail(f"{path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        _fail(f"{path}: top level must be an object")
    return doc


def load_instance(doc: dict) -> FarkasInstance:
    for key in ("f", "A", "D"):
        if key not in doc:
            _fail(f"missing required key {key!r}")
    matrix = _q_matrix(doc["A"], "A")
    if not matrix:
        _fail("A: at least one row required")
    n = len(matrix[0])
    ground = sets.whole_space_polyhedron(n) if "C" not in doc \
        else _polyhedron(doc["C"], n, "C")
    target = _target(doc["D"], len(matrix), "D")
    objective = _objective(doc["f"], "f")
    try:
        return FarkasInstance(ground=ground, matrix=matrix, target=target,
                              objective=objective)
    except ValueError as exc:
        _fail(f"inconsistent instance: {exc}")


def load_grid(doc: dict) -> GridSystem:
    if "grid" not in doc or "f" not in doc:
        _fail("grid instances need keys 'grid' and 'f'")
    block = doc["grid"]
    if not isinstance(block, dict) or not isinstance(block.get("rows"), list):
        _fail("grid: expected an object with a rows array")
    rows = []
    for k, row in enumerate(block["rows"]):
        if not isinstance(row, list) or len(row) != 3:
            _fail(f"grid.rows[{k}]: expected [functional, lower, upper]")
        rows.append((_q_vector(row[0], f"grid.rows[{k}]"),
                     _q(row[1], f"grid.rows[{k}]"),
                     _q(row[2], f"grid.rows[{k}]")))
    objective = _objective(doc["f"], "f")
    n = objective.dim
    ground = sets.whole_space_polyhedron(n) if "C" not in doc \
        else _polyhedron(doc["C"], n, "C")
    try:
        return GridSystem(n=n, rows=rows, ground=ground, objective=objective)
    except ValueError as exc:
        _fail(f"inconsistent grid: {exc}")


def load_approx(doc: dict) -> polyapprox.ApproxProblem:
    if "approx" not in doc:
        _fail("polynomial approximation needs the 'approx' key")
    block = doc["approx"]
    if not isinstance(block, dict):
        _fail("approx: expected an object")
    for key in ("degree", "nodes", "values", "epsilons"):
        if key not in block:
            _fail(f"approx: missing key {key!r}")
    if not isinstance(block["degree"], int):
        _fail("approx.degree: expected an integer")
    try:
        return polyapprox.ApproxProblem(
            degree_bound=block["degree"],
            nodes=_q_vector(block["nodes"], "approx.nodes"),
            values=_q_vector(block["values"], "approx.values"),
            epsilons=_q_vector(block["epsilons"], "approx.epsilons"))
    except ValueError as exc:
        _fail(f"approx: {exc}")


def instance_document(inst: FarkasInstance) -> dict:
    """Canonical file form of an instance; load_instance inverts it."""
    def vec(xs):
        return [scalar_text(v) for v in xs]

    def mat(rows):
        return [vec(r) for r in rows]

    def poly(p):
        return {"G": mat(p.G), "h": vec(p.h), "E": mat(p.E), "e": vec(p.e)}

    doc = {
        "f": {"slopes": mat(inst.objective.slopes),
              "offsets": vec(inst.objective.offsets)},
        "C": poly(inst.ground),
        "A": mat(inst.matrix),
    }
    if inst.objective.domain is not None:
        doc["f"]["domain"] = poly(inst.objective.domain)
    if isinstance(inst.target, sets.Box):
        doc["D"] = {"box": [[scalar_text(lo), scalar_text(hi)]
                            for lo, hi in inst.target.bounds]}
    else:
        doc["D"] = poly(inst.target)
    return doc


def load_tilts(doc: dict, n: int):
    if "tilts" not in doc:
        return None
    block = doc["tilts"]
    if not isinstance(block, list):
        _fail("tilts: expected an array of [shift, lift] pairs")
    tilts = []
    for k, item in enumerate(block):
        if not isinstance(item, list) or len(item) != 2:
            _fail(f"tilts[{k}]: expected [shift, lift]")
        shift = _q_vector(item[0], f"tilts[{k}]")
        if len(shift) != n:
            _fail(f"tilts[{k}]: shift width != {n}")
        tilts.append((shift, _q(item[1], f"tilts[{k}]")))
    return tilts


def _seed() -> int:
    raw = os.environ.get("FARKAS_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        _fail(f"FARKAS_SEED must be an integer, got {raw!r}")


# --- output ----------------------------------------------------------------

def _plain(x):
    """Recursively turn reports into JSON-ready data; rationals as p/q."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, Enum):
        return x.name.lower()
    if is_dataclass(x):
        return {f.name: _plain(getattr(x, f.name)) for f in fields(x)
                if f.metadata.get("json", True)}
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return scalar_text(x)


def _emit(as_json: bool, payload: dict, lines):
    if as_json:
        click.echo(json.dumps(_plain(payload), indent=2))
    else:
        for line in lines:
            click.echo(line)


def _vec_text(xs):
    return "[" + ", ".join(scalar_text(v) for v in xs) + "]"


def _cert_lines(cert):
    if cert is None:
        return ["certificate: absent"]
    if isinstance(cert, engine.Certificate):
        return [
            "certificate: present",
            f"  u: {_vec_text(cert.u)}",
            f"  v: {_vec_text(cert.v)}",
            f"  lam: {_vec_text(cert.lam)}",
            f"  conjugate value: {scalar_text(cert.conjugate_value)}",
            f"  ground support: {scalar_text(cert.ground_support)}",
            f"  target support: {scalar_text(cert.target_support)}",
        ]
    return [
        "certificate: present (single multiplier)",
        f"  lam: {_vec_text(cert.lam)}",
        f"  restricted conjugate: {scalar_text(cert.restricted_conjugate)}",
        f"  target support: {scalar_text(cert.target_support)}",
    ]


def _check_lines(rep: engine.CheckReport):
    non = rep.nonnegativity
    lines = [f"statement: {_plain(non.verdict)}"
             f" (minimum {scalar_text(non.minimum)})"]
    if non.witness is not None and not non.verdict.holds:
        lines.append(f"  negative at: {_vec_text(non.witness)}")
    lines += _cert_lines(rep.certificate)
    state = "holds" if rep.criterion_holds else "fails"
    lines.append(f"criterion: {state} at probe {_vec_text(rep.probe_point)}")
    lines.append(f"verdict: {rep.verdict}")
    return lines


# --- commands ---------------------------------------------------------------

def _run(body):
    try:
        code = body()
    except InputFormatError as exc:
        click.echo(f"input error: {exc}", err=True)
        sys.exit(EXIT_BAD_INPUT)
    except InvariantViolation as exc:
        click.echo(f"forced-identity alarm: {exc}", err=True)
        sys.exit(EXIT_ALARM)
    except ValueError as exc:
        click.echo(f"hypothesis violated: {exc}", err=True)
        sys.exit(EXIT_HYPOTHESIS)
    sys.exit(code)


@click.group()
def main():
    """Exact checks tying nonnegativity statements to multiplier
    certificates through closedness criteria."""


@main.command()
@click.argument("path")
@click.option("--theorem", "which",
              type=click.Choice(["1", "2", "3", "concave"]), required=True,
              help="1: split certificate; 2: single multiplier; 3: dual "
                   "criterion set; concave: sublevel containment.")
@click.option("--json", "as_json", is_flag=True, help="Machine output.")
def check(path, which, as_json):
    """Statement vs certificate vs closedness for one instance file."""
    def body():
        inst = load_instance(load_document(path))
        if which == "concave":
            rep = engine.check_sublevel(inst)
            _emit(as_json, {"mode": "concave", "report": rep}, [
                f"sublevel maximum: {scalar_text(rep.maximum)}",
                f"nonpositive on feasible set: {_yes(rep.nonpositive)}",
                f"conjugate epigraph contained: "
                f"{_yes(rep.epigraph_contained)}",
                f"conditional closedness: {_yes(rep.simili_closed)}",
                f"verdict: {rep.verdict}",
            ])
            return EXIT_OK
        if which == "1":
            rep = engine.check_primal_criterion(inst)
        elif which == "2":
            rep = engine.check_reduced_criterion(inst)
        else:
            rep = engine.check_dual_criterion(inst, seed=_seed())
        _emit(as_json, {"mode": which, "report": rep}, _check_lines(rep))
        return EXIT_OK
    _run(body)


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


@main.command()
@click.argument("path")
@click.option("--json", "as_json", is_flag=True, help="Machine output.")
def feasible(path, as_json):
    """Decide feasibility twice (direct LP and cone probe); they must agree."""
    def body():
        inst = load_instance(load_document(path))
        rep = engine.check_existence(inst)
        lines = [f"feasible: {_yes(rep.feasible)}"]
        if rep.point is not None:
            lines.append(f"point: {_vec_text(rep.point)}")
        lines.append(f"preimage nonempty: {_yes(rep.preimage_nonempty)}")
        _emit(as_json, {"report": rep}, lines)
        return EXIT_OK if rep.feasible else EXIT_NO
    _run(body)


@main.command()
@click.argument("path")
@click.option("--json", "as_json", is_flag=True, help="Machine output.")
def solve(path, as_json):
    """Minimize the objective over the feasible set, exactly."""
    def body():
        inst = load_instance(load_document(path))
        sol = duality.solve_primal(inst)
        lines = [f"status: {sol.status}",
                 f"value: {scalar_text(sol.value)}"]
        if sol.point is not None:
            lines.append(f"point: {_vec_text(sol.point)}")
        if sol.ray is not None:
            lines.append(f"improving ray: {_vec_text(sol.ray)}")
        _emit(as_json, {"report": sol}, lines)
        return EXIT_NO if sol.status == duality.INFEASIBLE else EXIT_OK
    _run(body)


@main.command()
@click.argument("path")
@click.option("--json", "as_json", is_flag=True, help="Machine output.")
def dual(path, as_json):
    """Best certified lower bound: the linked-triple maximization."""
    def body():
        inst = load_instance(load_document(path))
        sol = duality.solve_dual(inst)
        lines = [f"status: {sol.status}",
                 f"value: {scalar_text(sol.value)}"]
        payload = {"report": sol}
        if sol.status == duality.OPTIMAL:
            split = semiinf.decompose(sol.lam)
            payload["lam_plus"] = split.plus
            payload["lam_minus"] = split.minus
            lines += [
                f"u: {_vec_text(sol.u)}",
                f"v: {_vec_text(sol.v)}",
                f"lam: {_vec_text(sol.lam)}",
                f"lam split: plus {_vec_text(split.plus)}"
                f" minus {_vec_text(split.minus)}",
            ]
        _emit(as_json, payload, lines)
        return EXIT_NO if sol.status == duality.INFEASIBLE else EXIT_OK
    _run(body)


@main.command()
@click.argument("path")
@click.option("--point", required=True,
              help="Feasible point as a JSON array, e.g. '[0, \"1/2\"]'.")
@click.option("--json", "as_json", is_flag=True, help="Machine output.")
def optimality(path, point, as_json):
    """Three equivalent optimality tests at a feasible point."""
    def body():
        inst = load_instance(load_document(path))
        try:
            raw = json.loads(point)
        except json.JSONDecodeError as exc:
            _fail(f"--point is not valid JSON: {exc}")
        if not isinstance(raw, list):
            _fail("--point must be a JSON array")
        at = _q_vector(raw, "--point")
        rep = duality.check_optimality(inst, at)
        lines = [
            f"point: {_vec_text(at)}",
            f"value: {scalar_text(rep.value)}",
            f"optimal: {_yes(rep.optimal)}",
            f"  by value comparison: {_yes(rep.by_comparison)}",
            f"  by certificate: {_yes(rep.by_certificate)}",
            f"  by subdifferential: {_yes(rep.by_subdifferential)}",
        ]
        _emit(as_json, {"report": rep, "point": at}, lines)
        return EXIT_OK if rep.optimal else EXIT_NO
    _run(body)


@main.command()
@click.argument("path")
@click.option("--tilts", "count", type=int, default=25, show_default=True,
              help="Number of seeded tilts (ignored if the file lists its "
                   "own tilts).")
@click.option("--json", "as_json", is_flag=True, help="Machine output.")
def stable(path, count, as_json):
    """Strong duality under every sampled linear tilt of the objective."""
    def body():
        doc = load_document(path)
        inst = load_instance(doc)
        seed = _seed()
        file_tilts = load_tilts(doc, inst.n)
        if file_tilts is not None:
            shifts = [shift for shift, _ in file_tilts]
        else:
            shifts = duality.default_dual_tilts(inst.n, count=count,
                                                seed=seed)
        rep = duality.check_stable_strong_duality(inst, tilts=shifts,
                                                  seed=seed)
        lines = []
        table = []
        if rep.tilts_checked:
            lines.append("tilt | primal | dual | equal")
            for shift, row in zip(shifts, rep.per_tilt):
                table.append({"tilt": shift,
                              "primal": row.primal.value,
                              "dual": row.dual.value,
                              "equal": row.equal})
                lines.append(
                    f"{_vec_text(shift)} | {scalar_text(row.primal.value)}"
                    f" | {scalar_text(row.dual.value)} | {_yes(row.equal)}")
        lines.append(f"tilts checked: {rep.tilts_checked}")
        lines.append(f"all strong: {_yes(rep.all_strong)}")
        lines.append(f"containment sample points: {rep.containment_points}")
        if rep.note:
            lines.append(f"note: {rep.note}")
        _emit(as_json, {"report": rep, "table": table}, lines)
        if rep.tilts_checked == 0 and rep.note:
            return EXIT_NO
        return EXIT_OK
    _run(body)


@main.command("semiinf")
@click.argument("path")
@click.argument("mode", type=click.Choice(["7-8", "7-9", "9-10"]))
@click.option("--json", "as_json", is_flag=True, help="Machine output.")
def semiinf_cmd(path, mode, as_json):
    """Finite-grid checks: 7-8 split certificate, 7-9 single multiplier,
    9-10 dual criterion plus tilt stability."""
    def body():
        system = load_grid(load_document(path))
        seed = _seed()
        if mode == "7-8":
            rep = semiinf.check_grid_primal(system)
            _emit(as_json, {"mode": mode, "report": rep}, _check_lines(rep))
            return EXIT_OK
        if mode == "7-9":
            rep = semiinf.check_grid_reduced(system)
            _emit(as_json, {"mode": mode, "report": rep}, _check_lines(rep))
            return EXIT_OK
        rep = semiinf.check_grid_dual(system, seed=seed)
        stab = semiinf.check_grid_stability(system, seed=seed)
        lines = _check_lines(rep)
        lines.append(f"stability: {stab.tilts_checked} tilts, "
                     f"all equivalences held: {_yes(stab.all_equivalent)}")
        _emit(as_json, {"mode": mode, "report": rep, "stability": stab},
              lines)
        return EXIT_OK
    _run(body)


@main.command("polyapprox")
@click.argument("path")
@click.option("--out", required=True, help="CSV output path.")
@click.option("--json", "as_json", is_flag=True, help="Machine output.")
def polyapprox_cmd(path, out, as_json):
    """Cheapest polynomial through a band around tabulated values, per
    tolerance; frontier written as CSV."""
    def body():
        problem = load_approx(load_document(path))
        try:
            rows = polyapprox.sweep(problem)
        except ValueError as exc:
            click.echo(f"infeasible: {exc}", err=True)
            return EXIT_NO
        polyapprox.write_frontier(rows, out, problem.degree_bound)
        lines = []
        for row in rows:
            if row.coefficients is None:
                lines.append(f"epsilon {scalar_text(row.epsilon)}: "
                             "unbounded below")
            else:
                lines.append(
                    f"epsilon {scalar_text(row.epsilon)}: objective "
                    f"{scalar_text(row.objective)}, coefficients "
                    f"{_vec_text(row.coefficients)}")
        lines.append(f"wrote {out}")
        _emit(as_json, {"rows": rows, "out": out}, lines)
        return EXIT_OK
    _run(body)


@main.command("gallery")
@click.argument("name")
@click.option("--json", "as_json", is_flag=True, help="Machine output.")
def gallery_cmd(name, as_json):
    """Run one worked example and verify it against its frozen verdicts."""
    def body():
        if name not in gallery.GALLERY_NAMES:
            _fail(f"unknown gallery entry {name!r}: choose from"
                  f" {', '.join(gallery.GALLERY_NAMES)}")
        ok, rep = gallery.verify(name)
        lines = [f"gallery {name}"]
        lines += [f"  {s}" for s in rep.narrative]
        lines.append(f"verdicts match the frozen fixture: {_yes(ok)}")
        _emit(as_json, {"name": name, "summary": rep.summary,
                        "narrative": rep.narrative, "matches_frozen": ok},
              lines)
        return EXIT_OK if ok else EXIT_ALARM
    _run(body)


if __name__ == "__main__":
    main()
