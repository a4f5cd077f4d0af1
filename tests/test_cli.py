import json
import multiprocessing

import numpy as np
import pytest

from simplexdyn.cli import main


def run_cli(argv):
    """Invoke the CLI in-process, capturing argparse's exit code too."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def read_csv(path):
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            if ":" in line:
                key, _, value = line[1:].partition(":")
                meta[key.strip()] = value.strip()
            continue
        if header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


class TestSimulate:
    def test_reference_interior_run(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = run_cli(["simulate", "--c", "0.3,0.4,0.25", "--p0", "0.2,0.3,0.5",
                        "--tol", "1e-12", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "converged: True" in stdout
        meta, header, rows = read_csv(out)
        assert header == ["t", "p_1", "p_2", "p_3"]
        final = [float(x) for x in rows[-1][1:]]
        np.testing.assert_allclose(final, [0.3220, 0.4915, 0.1864], atol=1e-3)

    def test_uniform_map_boundary_start(self, capsys):
        code = run_cli(["simulate", "--uniform", "--p0", "0.7,0.3,0"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "0.5, 0.5, 0" in stdout

    def test_dimension_mismatch_is_usage_error(self, capsys):
        code = run_cli(["simulate", "--c", "0.5", "--p0", "0.5,0.5"])
        assert code == 2

    def test_json_round_trip(self, tmp_path):
        out = tmp_path / "traj.json"
        run_cli(["simulate", "--c", "0.3,0.4,0.25", "--p0", "0.2,0.3,0.5",
                 "--format", "json", "--out", str(out)])
        blob = json.loads(out.read_text())
        assert blob["manifest"]["command"] == "simulate"
        states = np.array(blob["data"]["states"])
        assert states.shape[1] == 3
        np.testing.assert_allclose(states.sum(axis=1), 1.0, atol=1e-12)
        assert blob["data"]["converged"] is True

    def test_svg_written(self, tmp_path):
        svg = tmp_path / "traj.svg"
        run_cli(["simulate", "--c", "0.3,0.4,0.25", "--p0", "0.2,0.3,0.5",
                 "--svg", str(svg)])
        text = svg.read_text()
        assert text.startswith("<svg") and "polyline" in text


class TestFixedPoint:
    def test_reference_boundary_case(self, tmp_path, capsys):
        out = tmp_path / "fp.json"
        code = run_cli(["fixed-point", "--c", "0.8,0.1,0.9",
                        "--format", "json", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "M* = {1, 3}" in stdout
        blob = json.loads(out.read_text())
        assert blob["data"]["active_set"] == [1, 3]
        assert blob["data"]["lambda"] == pytest.approx(0.4235294117647059, abs=1e-12)
        np.testing.assert_allclose(blob["data"]["p_inf"], [0.47059, 0.0, 0.52941],
                                   atol=1e-5)

    def test_symmetric_case(self, capsys):
        run_cli(["fixed-point", "--c", "0.25,0.25,0.25"])
        stdout = capsys.readouterr().out
        assert "0.3333333333" in stdout

    def test_four_component_threshold(self, capsys):
        run_cli(["fixed-point", "--c", "0.8,0.1,0.9,0.85"])
        stdout = capsys.readouterr().out
        lam = 2 / (1 / 0.8 + 1 / 0.9 + 1 / 0.85)
        assert f"{lam:.10g}" in stdout


class TestStability:
    def test_consensus_spectrum(self, capsys):
        code = run_cli(["stability", "--c", "1,1,1", "--at-uniform"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "verdict: stable" in stdout
        assert "0.875" in stdout

    def test_uniform_boundary_point(self, capsys):
        code = run_cli(["stability", "--uniform", "--n", "3", "--at", "0.5,0.5,0"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "transversally_unstable" in stdout
        assert "3: 1.2" in stdout

    def test_default_interior_equilibrium(self, capsys):
        code = run_cli(["stability", "--c", "0.3,0.4,0.25"])
        assert code == 0
        assert "verdict: stable" in capsys.readouterr().out

    def test_rejects_non_fixed_point(self, capsys):
        code = run_cli(["stability", "--c", "0.3,0.4,0.25", "--at", "0.2,0.3,0.5"])
        assert code == 1
        assert "not a fixed point" in capsys.readouterr().err


class TestScan1D:
    def test_reference_threshold(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code = run_cli(["scan1d", "--vary", "2", "--range", "0.05:1.0:200",
                        "--c", "0.8,_,0.9", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "0.4235294" in stdout
        meta, header, rows = read_csv(out)
        assert header[0] == "c_value"
        crit = json.loads(meta["critical_values"])
        assert crit[0] == pytest.approx(1 / (1 / 0.8 + 1 / 0.9), abs=1e-8)

    def test_bad_range_is_usage_error(self):
        assert run_cli(["scan1d", "--vary", "2", "--range", "0.05-1.0-200",
                        "--c", "0.8,_,0.9"]) == 2

    def test_placeholder_mismatch_is_usage_error(self):
        assert run_cli(["scan1d", "--vary", "1", "--range", "0.05:1.0:50",
                        "--c", "0.8,_,0.9"]) == 2


class TestScan2D:
    def test_reference_region_map(self, tmp_path, capsys):
        out = tmp_path / "regions.csv"
        code = run_cli(["scan2d", "--vary", "1,2", "--range", "0.05:1.5:30",
                        "--c", "_,_,1,1", "--out", str(out)])
        assert code == 0
        meta, header, rows = read_csv(out)
        assert header == ["c_1", "c_2", "zero_set", "critical"]
        zero_sets = {row[2] for row in rows}
        assert zero_sets == {"", "1", "2", "1;2"}

    def test_json_contains_curves(self, tmp_path):
        out = tmp_path / "regions.json"
        run_cli(["scan2d", "--vary", "1,2", "--range", "0.05:1.5:20",
                 "--c", "_,_,1,1", "--format", "json", "--out", str(out)])
        blob = json.loads(out.read_text())
        assert blob["data"]["gamma1"] and blob["data"]["gamma2"]
        for c1, c2 in blob["data"]["gamma1"]:
            assert c1 * (1 / c2 + 2.0) == pytest.approx(2.0, abs=1e-9)


class TestDelay:
    def test_weak_feedback_fixed_point(self, capsys):
        code = run_cli(["delay", "--c", "0.9,0.85,0.95,0.8", "--beta", "1.2",
                        "--tau", "30", "--p0", "0.25,0.26,0.24,0.25",
                        "--steps", "15000", "--transient", "12000"])
        assert code == 0
        assert "regime: fixed_point" in capsys.readouterr().out

    def test_sweep_writes_extrema_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run_cli(["delay", "--c", "0.9,0.85,0.95,0.8", "--tau", "30",
                        "--p0", "0.25,0.26,0.24,0.25",
                        "--sweep-beta", "0:1.0:4", "--steps", "8000",
                        "--transient", "6000", "--threads", "1",
                        "--out", str(out)])
        assert code == 0
        meta, header, rows = read_csv(out)
        assert header == ["beta", "extremum"]
        assert len(rows) >= 4
        assert "fixed_point: 4" in capsys.readouterr().out

    def test_threads_starts_no_process(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a process was started")

        monkeypatch.setattr(multiprocessing, "Pool", refuse)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        code = run_cli(["delay", "--c", "0.9,0.85,0.95,0.8", "--tau", "30",
                        "--p0", "0.25,0.26,0.24,0.25",
                        "--sweep-beta", "0:1.0:3", "--steps", "3000",
                        "--transient", "2000", "--threads", "3"])
        assert code == 0
        assert "fixed_point: 3" in capsys.readouterr().out

    def test_threads_below_one_is_usage_error(self):
        assert run_cli(["delay", "--c", "0.9,0.85,0.95,0.8", "--tau", "30",
                        "--p0", "0.25,0.26,0.24,0.25", "--beta", "1.2",
                        "--threads", "0"]) == 2

    def test_requires_exactly_one_mode(self):
        assert run_cli(["delay", "--c", "0.9,0.85,0.95,0.8", "--tau", "30",
                        "--p0", "0.25,0.26,0.24,0.25"]) == 2

    def test_domain_violation_is_runtime_error(self, capsys):
        code = run_cli(["delay", "--c", "0.9,0.85,0.95,0.8", "--beta", "60",
                        "--tau", "5", "--p0", "0.25,0.26,0.24,0.25",
                        "--steps", "3000", "--transient", "1000"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestDeterminism:
    def strip_timestamp_csv(self, text):
        return "\n".join(l for l in text.splitlines() if not l.startswith("# generated:"))

    def test_csv_bytes_identical_modulo_timestamp(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", "--c", "0.3,0.4,0.25", "--p0", "0.2,0.3,0.5"]
        run_cli(argv + ["--out", str(a)])
        run_cli(argv + ["--out", str(b)])
        assert self.strip_timestamp_csv(a.read_text()) == self.strip_timestamp_csv(b.read_text())

    def test_json_identical_modulo_timestamp(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["fixed-point", "--c", "0.8,0.1,0.9", "--format", "json"]
        run_cli(argv + ["--out", str(a)])
        run_cli(argv + ["--out", str(b)])
        one, two = json.loads(a.read_text()), json.loads(b.read_text())
        one["manifest"].pop("timestamp")
        two["manifest"].pop("timestamp")
        assert one == two

    def test_csv_full_precision(self, tmp_path):
        out = tmp_path / "fp.csv"
        run_cli(["fixed-point", "--c", "0.8,0.1,0.9", "--out", str(out)])
        meta, header, rows = read_csv(out)
        p1 = float(rows[0][header.index("p_inf")])
        assert p1 == 8 / 17  # 17 significant digits survive the round trip
