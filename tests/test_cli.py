"""Command-line contracts: pipeline smoke, determinism, exit codes."""

import csv
import json

import numpy as np
import pytest

from lindrive import cli
from lindrive.decoder import load_anchors
from lindrive.harness import gen_trajectory_dataset


def run(capsys, *argv):
    code = cli.cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDemoAndScore:
    def test_demo_then_score_pipeline(self, tmp_path, capsys):
        traj_path = tmp_path / "traj.json"
        scene_path = tmp_path / "scene.json"
        report_path = tmp_path / "report.csv"
        code, out, _ = run(
            capsys, "demo", "--frames", "4", "--seed", "7", "--k", "4",
            "--out", str(traj_path), "--scene-out", str(scene_path),
        )
        assert code == 0
        assert traj_path.exists() and scene_path.exists()
        rec = json.loads(traj_path.read_text())
        assert len(rec["waypoints"]) == 8

        code, out, _ = run(
            capsys, "score", "--traj", str(traj_path),
            "--scene", str(scene_path), "--out", str(report_path),
        )
        assert code == 0
        with open(report_path) as fh:
            rows = list(csv.DictReader(
                line for line in fh if not line.startswith("#")
            ))
        assert len(rows) == 1
        assert 0.0 <= float(rows[0]["pdms"]) <= 1.0


    def test_demo_plans_a_single_frame(self, tmp_path, capsys):
        # frame 0 is both the whole stream and the planned frame
        traj_path = tmp_path / "traj.json"
        code, out, _ = run(
            capsys, "demo", "--frames", "1", "--seed", "42", "--k", "4",
            "--out", str(traj_path), "--scene-out", str(tmp_path / "scene.json"),
        )
        assert code == 0
        assert out.startswith("streamed 1 frames, decoded 4 modes, best mode ")
        assert len(json.loads(traj_path.read_text())["waypoints"]) == 8


class TestEquiv:
    def test_deterministic_output(self, capsys):
        code1, out1, _ = run(capsys, "equiv", "--seed", "42", "--cases", "12")
        code2, out2, _ = run(capsys, "equiv", "--seed", "42", "--cases", "12")
        assert code1 == code2 == 0
        assert out1 == out2
        assert "PASS" in out1 and "FAIL" not in out1

    @pytest.mark.parametrize("cases", ["5", "30"])
    def test_runs_the_cases_asked_for(self, capsys, cases):
        code, out, _ = run(capsys, "equiv", "--cases", cases)
        assert code == 0
        assert f"sequential vs chunked ({cases} cases)" in out

    @pytest.mark.parametrize("cases", ["0", "-4"])
    def test_fewer_than_one_case_rejected(self, capsys, cases):
        code, out, err = run(capsys, "equiv", "--cases", cases)
        assert code == cli.EXIT_BAD_DATA
        assert "cases must be at least 1" in err and out == ""


class TestBench:
    def test_csv_schema(self, tmp_path, capsys):
        out_path = tmp_path / "bench.csv"
        code, out, _ = run(
            capsys, "bench", "--frames", "1,2", "--mode", "linear",
            "--trials", "2", "--out", str(out_path),
        )
        assert code == 0
        with open(out_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "frames", "mode", "latency_ms", "state_bytes", "wall_ms",
            "latency_min_ms", "latency_max_ms",
        ]
        assert [r[0] for r in rows[1:]] == ["1", "2"]

    def test_bad_grid_rejected(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "bench", "--frames", "0", "--out", str(tmp_path / "b.csv")
        )
        assert code == cli.EXIT_BAD_DATA

    @pytest.mark.parametrize("grid,bad", [("1,a", "a"), ("2,0", "0"), ("4,1.5", "1.5"), (",", ",")])
    def test_bad_grid_item_named(self, tmp_path, capsys, grid, bad):
        out_path = tmp_path / "b.csv"
        code, out, err = run(capsys, "bench", "--frames", grid, "--out", str(out_path))
        assert code == cli.EXIT_BAD_DATA
        assert err == f"error: --frames takes integers >= 1, got {bad!r}\n"
        assert out == "" and not out_path.exists()

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_fewer_than_one_trial_rejected(self, tmp_path, capsys, trials):
        out_path = tmp_path / "b.csv"
        code, _, err = run(capsys, "bench", "--frames", "1", "--trials", trials, "--out", str(out_path))
        assert code == cli.EXIT_BAD_DATA
        assert "trials must be at least 1" in err
        assert not out_path.exists()


class TestCluster:
    def test_cluster_round_trip(self, tmp_path, capsys):
        data = gen_trajectory_dataset(12, seed=1)
        payload = [
            {"dt": 0.5, "waypoints": t.tolist()} for t in data
        ]
        data_path = tmp_path / "trajs.json"
        data_path.write_text(json.dumps(payload))
        out_path = tmp_path / "anchors.json"
        code, out, _ = run(
            capsys, "cluster", "--data", str(data_path), "--k", "3",
            "--seed", "2", "--out", str(out_path),
        )
        assert code == 0
        anchors = load_anchors(out_path)
        assert anchors.k == 3 and anchors.n == 8

    def test_too_many_clusters(self, tmp_path, capsys):
        data_path = tmp_path / "trajs.json"
        data_path.write_text(json.dumps(
            [{"dt": 0.5, "waypoints": np.zeros((8, 3)).tolist()}]
        ))
        code, _, err = run(
            capsys, "cluster", "--data", str(data_path), "--k", "5",
            "--out", str(tmp_path / "a.json"),
        )
        assert code == cli.EXIT_BAD_DATA

    @pytest.mark.parametrize("command", ["cluster", "demo"])
    def test_fewer_than_one_cluster(self, tmp_path, capsys, command):
        data_path = tmp_path / "trajs.json"
        data_path.write_text(json.dumps(
            [{"dt": 0.5, "waypoints": t.tolist()} for t in gen_trajectory_dataset(4, seed=1)]
        ))
        args = {
            "cluster": ["--data", str(data_path)],
            "demo": ["--frames", "1", "--scene-out", str(tmp_path / "scene.json")],
        }[command]
        code, _, err = run(
            capsys, command, *args, "--k", "0", "--out", str(tmp_path / "out.json"),
        )
        assert code == cli.EXIT_BAD_DATA
        assert "at least one cluster" in err


class TestExitCodes:
    def test_unknown_flag_usage_error(self, capsys):
        assert run(capsys, "bench", "--frames-per-second", "1")[0] == cli.EXIT_USAGE

    def test_unknown_command_usage_error(self, capsys):
        assert run(capsys, "launch")[0] == cli.EXIT_USAGE

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "score", "--traj", str(tmp_path / "nope.json"),
            "--scene", str(tmp_path / "nope2.json"),
        )
        assert code == cli.EXIT_MISSING_FILE

    @pytest.mark.parametrize("bad,payload", [("traj", [1]), ("scene", [1]), ("cluster-data", [1, 2])])
    def test_malformed_json_is_bad_data(self, tmp_path, capsys, bad, payload):
        traj, scene = tmp_path / "traj.json", tmp_path / "scene.json"
        run(capsys, "demo", "--frames", "1", "--seed", "3", "--k", "2",
            "--out", str(traj), "--scene-out", str(scene))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        argv = {
            "traj": ["score", "--traj", str(path), "--scene", str(scene)],
            "scene": ["score", "--traj", str(traj), "--scene", str(path)],
            "cluster-data": ["cluster", "--data", str(path), "--k", "1"],
        }[bad]
        code, _, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
        assert code == cli.EXIT_BAD_DATA
        assert "record" in err and "Traceback" not in err

    def test_distinct_codes(self):
        codes = {
            cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_MISSING_FILE,
            cli.EXIT_BAD_DATA, cli.EXIT_EQUIV_FAILED,
        }
        assert len(codes) == 5
