"""End-to-end CLI behavior: exit codes, report content, file round-trips."""

import json

import pytest
from click.testing import CliRunner

from farkaskit import cli

ALL_HOLDS = {
    "f": {"slopes": [[1, 1]], "offsets": [0]},
    "C": {"G": [[-1, 0], [0, -1], [1, 0], [0, 1]], "h": [0, 0, 1, 1]},
    "A": [[1, 0], [1, 1]],
    "D": {"box": [[0, 1], [0, 1]]},
}

INFEASIBLE = {
    "f": {"slopes": [[-1]], "offsets": [0]},
    "C": {"G": [], "h": []},
    "A": [[0]],
    "D": {"box": [[1, 1]]},
}

GRID = {
    "f": {"slopes": [[1, 0]], "offsets": [0]},
    "grid": {"rows": [[[1, 0], 0, 2], [[1, -1], -1, 1]]},
    "C": {"G": [[-1, 0], [0, -1], [1, 0], [0, 1]], "h": [3, 3, 3, 3]},
}

APPROX = {
    "approx": {"degree": 2, "nodes": [0, "1/2", 1], "values": [0, 0, 0],
               "epsilons": ["1/10", 1]},
}


@pytest.fixture
def runner():
    return CliRunner()


def write(tmp_path, doc, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestCheck:
    @pytest.mark.parametrize("which", ["1", "2", "3"])
    def test_all_holds(self, runner, tmp_path, which):
        res = runner.invoke(cli.main, ["check", write(tmp_path, ALL_HOLDS),
                                       "--theorem", which])
        assert res.exit_code == 0, res.output
        assert "certificate: present" in res.output
        assert "criterion: holds" in res.output

    def test_infeasible_instance_consistent_failure(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["check", write(tmp_path, INFEASIBLE),
                                       "--theorem", "2"])
        assert res.exit_code == 0
        assert "statement: vacuous" in res.output
        assert "certificate: absent" in res.output
        assert "criterion: fails at probe [0, -1]" in res.output

    def test_dual_hypothesis_violation(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["check", write(tmp_path, INFEASIBLE),
                                       "--theorem", "3"])
        assert res.exit_code == 65
        assert "no feasible point inside the objective's domain" \
            in res.output

    def test_concave_mode(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["check", write(tmp_path, ALL_HOLDS),
                                       "--theorem", "concave"])
        assert res.exit_code == 0
        assert "verdict: consistent" in res.output

    def test_json_output(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["check", write(tmp_path, ALL_HOLDS),
                                       "--theorem", "1", "--json"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["report"]["criterion_holds"] is True
        assert doc["report"]["nonnegativity"]["minimum"] == "0"

    def test_truncated_file(self, runner, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"f": ')
        res = runner.invoke(cli.main, ["check", str(path), "--theorem", "1"])
        assert res.exit_code == 64

    def test_float_rejected(self, runner, tmp_path):
        doc = json.loads(json.dumps(ALL_HOLDS))
        doc["f"]["offsets"] = [0.5]
        res = runner.invoke(cli.main, ["check", write(tmp_path, doc),
                                       "--theorem", "1"])
        assert res.exit_code == 64
        assert "float" in res.output

    def test_missing_key(self, runner, tmp_path):
        doc = {"f": {"slopes": [[1]], "offsets": [0]}, "A": [[1]]}
        res = runner.invoke(cli.main, ["check", write(tmp_path, doc),
                                       "--theorem", "1"])
        assert res.exit_code == 64

    def test_dimension_mismatch(self, runner, tmp_path):
        doc = json.loads(json.dumps(ALL_HOLDS))
        doc["A"] = [[1, 0]]  # one row vs two target intervals
        res = runner.invoke(cli.main, ["check", write(tmp_path, doc),
                                       "--theorem", "1"])
        assert res.exit_code == 64


class TestFeasibleSolveDual:
    def test_feasible_yes(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["feasible", write(tmp_path, ALL_HOLDS)])
        assert res.exit_code == 0
        assert "feasible: yes" in res.output

    def test_feasible_no(self, runner, tmp_path):
        res = runner.invoke(cli.main,
                            ["feasible", write(tmp_path, INFEASIBLE)])
        assert res.exit_code == 1
        assert "feasible: no" in res.output

    def test_solve(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["solve", write(tmp_path, ALL_HOLDS)])
        assert res.exit_code == 0
        assert "value: 0" in res.output
        assert "point: [0, 0]" in res.output

    def test_solve_infeasible(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["solve", write(tmp_path, INFEASIBLE)])
        assert res.exit_code == 1
        assert "value: inf" in res.output

    def test_dual(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["dual", write(tmp_path, ALL_HOLDS)])
        assert res.exit_code == 0
        assert "value: 0" in res.output
        assert "lam split:" in res.output

    def test_dual_infeasible_pair(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["dual", write(tmp_path, INFEASIBLE)])
        assert res.exit_code == 1
        assert "value: -inf" in res.output


class TestOptimalityStable:
    def test_optimal_point(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["optimality",
                                       write(tmp_path, ALL_HOLDS),
                                       "--point", "[0, 0]"])
        assert res.exit_code == 0
        assert res.output.count("yes") == 4

    def test_suboptimal_point(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["optimality",
                                       write(tmp_path, ALL_HOLDS),
                                       "--point", '["1/2", 0]'])
        assert res.exit_code == 1
        assert "optimal: no" in res.output

    def test_infeasible_point_names_hypothesis(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["optimality",
                                       write(tmp_path, ALL_HOLDS),
                                       "--point", "[5, 5]"])
        assert res.exit_code == 65

    def test_bad_point_json(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["optimality",
                                       write(tmp_path, ALL_HOLDS),
                                       "--point", "[0,"])
        assert res.exit_code == 64

    def test_stable_default_tilts(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["stable", write(tmp_path, ALL_HOLDS),
                                       "--tilts", "4"])
        assert res.exit_code == 0
        assert "tilts checked: 4" in res.output
        assert "all strong: yes" in res.output

    def test_stable_json_table_without_per_tilt_reports(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["stable", write(tmp_path, ALL_HOLDS),
                                       "--tilts", "3", "--json"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        # the per-tilt reports feed the table and stay out of the report
        assert "per_tilt" not in doc["report"]
        assert [row["equal"] for row in doc["table"]] == [True] * 3
        assert [row["primal"] for row in doc["table"]] == \
            [row["dual"] for row in doc["table"]]

    def test_stable_file_tilts_override(self, runner, tmp_path):
        doc = json.loads(json.dumps(ALL_HOLDS))
        doc["tilts"] = [[[0, 0], 0], [[1, 0], 0], [["1/2", "1/2"], 1]]
        res = runner.invoke(cli.main, ["stable", write(tmp_path, doc),
                                       "--tilts", "9"])
        assert res.exit_code == 0
        assert "tilts checked: 3" in res.output

    def test_stable_infeasible_notes(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["stable", write(tmp_path, INFEASIBLE)])
        assert res.exit_code == 1
        assert "note:" in res.output


class TestSemiinfPolyapproxGallery:
    @pytest.mark.parametrize("mode", ["7-8", "7-9", "9-10"])
    def test_grid_modes(self, runner, tmp_path, mode):
        res = runner.invoke(cli.main, ["semiinf", write(tmp_path, GRID),
                                       mode])
        assert res.exit_code == 0, res.output
        assert "verdict: consistent" in res.output
        if mode == "9-10":
            assert "all equivalences held: yes" in res.output

    def test_grid_needs_grid_key(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["semiinf",
                                       write(tmp_path, ALL_HOLDS), "7-8"])
        assert res.exit_code == 64

    def test_polyapprox_writes_csv(self, runner, tmp_path):
        out = tmp_path / "frontier.csv"
        res = runner.invoke(cli.main, ["polyapprox",
                                       write(tmp_path, APPROX),
                                       "--out", str(out)])
        assert res.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "epsilon,objective,x1,x2"
        assert lines[1] == "1/10,0,0,0"

    @pytest.mark.parametrize("name", ["g1", "g2", "g3"])
    def test_gallery_matches(self, runner, name):
        res = runner.invoke(cli.main, ["gallery", name])
        assert res.exit_code == 0
        assert "verdicts match the frozen fixture: yes" in res.output

    def test_gallery_unknown(self, runner):
        res = runner.invoke(cli.main, ["gallery", "g9"])
        assert res.exit_code == 64

    def test_gallery_json(self, runner):
        res = runner.invoke(cli.main, ["gallery", "g3", "--json"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["matches_frozen"] is True
        assert doc["summary"]["minimum"] == "0"


class TestRoundTrip:
    @pytest.mark.parametrize("doc", [ALL_HOLDS, INFEASIBLE])
    def test_parse_serialize_parse(self, doc):
        inst = cli.load_instance(json.loads(json.dumps(doc)))
        again = cli.load_instance(cli.instance_document(inst))
        assert again == inst

    def test_bad_seed_env(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("FARKAS_SEED", "zebra")
        res = runner.invoke(cli.main, ["check", write(tmp_path, ALL_HOLDS),
                                       "--theorem", "3"])
        assert res.exit_code == 64

    def test_seed_env_accepted(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("FARKAS_SEED", "7")
        res = runner.invoke(cli.main, ["check", write(tmp_path, ALL_HOLDS),
                                       "--theorem", "3"])
        assert res.exit_code == 0
