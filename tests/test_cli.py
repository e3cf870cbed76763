import csv
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from spindimer import cli, verify
from spindimer.cli import main
from spindimer.quantifiers import QUANTIFIER_FUNCTIONS
from spindimer.scattering import scattering_phase

TWO_PI = 2.0 * np.pi
# Golden outputs written by the row-at-a-time implementation this CSV path replaced.
DATA = Path(__file__).parent / "data"


def read_rejects(path):
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def use_cpus(monkeypatch, count):
    """Make the CSV writer see `count` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@pytest.fixture
def forks(monkeypatch):
    """The processes started during a test, recorded as they start."""
    started = []
    start = multiprocessing.process.BaseProcess.start

    def record(process):
        started.append(process)
        start(process)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", record)
    return started


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


class TestSweep:
    def test_five_sample_structure_factor(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main(["sweep", "--from", "0", "--to", str(TWO_PI), "--samples", "5",
                     "--quantifiers", "S", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["x", "S"]
        values = [row[1] for row in rows]
        assert np.allclose(values, [0.0, 0.5, 1.0, 0.5, 0.0], atol=1e-12)

    def test_output_is_byte_identical_across_runs(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "--samples", "101", "--out"]
        assert main(argv + [str(out1)]) == 0
        assert main(argv + [str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_concurrence_peaks_at_pi(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["sweep", "--samples", "1001", "--quantifiers", "concurrence",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        xs = np.array([r[0] for r in rows])
        conc = np.array([r[1] for r in rows])
        best = int(np.argmax(conc))
        assert conc[best] == pytest.approx(1.0, abs=1e-12)
        assert abs(xs[best] - np.pi) < TWO_PI / 1000.0

    def test_witness_sign_changes_bracket_known_roots(self, tmp_path):
        out = tmp_path / "w.csv"
        assert main(["sweep", "--samples", "1001", "--quantifiers", "witness",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        xs = np.array([r[0] for r in rows])
        w = np.array([r[1] for r in rows])
        flips = np.nonzero(np.sign(w[:-1]) != np.sign(w[1:]))[0]
        assert len(flips) == 2
        assert xs[flips[0]] < 2.4315065365930624 < xs[flips[0] + 1]
        assert xs[flips[1]] < 3.8516787705865241 < xs[flips[1] + 1]

    def test_column_order_follows_request(self, tmp_path):
        out = tmp_path / "o.csv"
        assert main(["sweep", "--samples", "3", "--quantifiers", "bell,S,witness",
                     "--out", str(out)]) == 0
        header, _ = read_csv(out)
        assert header == ["x", "bell", "S", "witness"]

    def test_json_format(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(["sweep", "--from", "0", "--to", str(TWO_PI), "--samples", "3",
                     "--quantifiers", "S,bell", "--format", "json", "--out", str(out)]) == 0
        rows = json.loads(out.read_text(encoding="utf-8"))
        assert [set(r) for r in rows] == [{"x", "S", "bell"}] * 3
        assert rows[1]["S"] == pytest.approx(1.0, abs=1e-12)

    def test_degrees_flag(self, tmp_path):
        out_deg, out_rad = tmp_path / "d.csv", tmp_path / "r.csv"
        assert main(["sweep", "--from", "0", "--to", "360", "--samples", "5", "--degrees",
                     "--quantifiers", "S", "--out", str(out_deg)]) == 0
        assert main(["sweep", "--from", "0", "--to", str(TWO_PI), "--samples", "5",
                     "--quantifiers", "S", "--out", str(out_rad)]) == 0
        _, deg_rows = read_csv(out_deg)
        _, rad_rows = read_csv(out_rad)
        assert np.allclose([r[1] for r in deg_rows], [r[1] for r in rad_rows], atol=1e-12)

    def test_invalid_range_is_a_validation_failure(self, tmp_path, capsys):
        code = main(["sweep", "--from", "2", "--to", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_quantifier_and_sample_count(self, tmp_path):
        out = str(tmp_path / "x.csv")
        assert main(["sweep", "--quantifiers", "entropy", "--out", out]) == 1
        assert main(["sweep", "--samples", "1", "--out", out]) == 1

    def test_unwritable_output_is_an_io_failure(self, tmp_path):
        code = main(["sweep", "--samples", "3", "--out", str(tmp_path / "missing" / "x.csv")])
        assert code == 2

    def test_directory_as_output_is_an_io_failure_and_leaves_no_temp_file(self, tmp_path):
        assert main(["sweep", "--samples", "3", "--out", str(tmp_path)]) == 2
        assert list(tmp_path.iterdir()) == []

    def test_all_quantifier_sweep_matches_golden_bytes(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--samples", "2001", "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / "sweep_2001.golden.csv").read_bytes()

    def test_interrupted_write_keeps_the_old_output(self, tmp_path, monkeypatch):
        out = tmp_path / "s.csv"

        def write_then_fail(fh, table):
            fh.write("partial")
            raise OSError("device full")

        assert main(["sweep", "--samples", "50", "--out", str(out)]) == 0
        before = out.read_bytes()
        monkeypatch.setattr(cli, "_write_rows", write_then_fail)
        assert main(["sweep", "--samples", "7", "--out", str(out)]) == 2
        assert out.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]


class TestReport:
    def run_json(self, argv):
        import io
        from contextlib import redirect_stdout

        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(argv)
        assert code == 0
        return json.loads(buffer.getvalue())

    def test_antiparallel_point(self):
        report = self.run_json(["report", "--x", str(np.pi), "--format", "json"])
        assert report["concurrence"] == 1.0
        assert report["eof"] == 1.0
        assert report["bell"] == pytest.approx(2.8284271247461903, abs=1e-12)
        assert report["witness"] == -1.0
        assert report["oracle"]["concurrence"] == pytest.approx(1.0, abs=1e-10)
        assert report["oracle"]["discord_trace_norm"] == pytest.approx(1.0, abs=1e-10)

    def test_zero_point(self):
        report = self.run_json(["report", "--x", "0", "--format", "json"])
        for key in ("concurrence", "eof", "bell", "S"):
            assert report[key] == 0.0
        assert report["witness"] == 2.0

    def test_vector_mode_matches_scalar_mode_field_by_field(self):
        scalar = self.run_json(["report", "--x", str(np.pi), "--format", "json"])
        vector = self.run_json([
            "report", "--q", "1,0,0", "--r1", f"{np.pi},0,0", "--r2", "0,0,0",
            "--format", "json",
        ])
        for key, value in scalar.items():
            if isinstance(value, float):
                assert abs(value - vector[key]) < 1e-12, key

    def test_opposite_separation_gives_the_same_quantifiers(self):
        scalar = self.run_json(["report", "--x", str(np.pi), "--format", "json"])
        mirrored = self.run_json([
            "report", "--q", "1,0,0", "--r1", "0,0,0", "--r2", f"{np.pi},0,0",
            "--format", "json",
        ])
        assert mirrored["x"] == -scalar["x"]
        for key in ("S", "ReC", "witness", "concurrence", "eof", "bell"):
            assert abs(scalar[key] - mirrored[key]) < 1e-12

    def test_degrees_flag(self):
        by_degrees = self.run_json(["report", "--x", "180", "--degrees", "--format", "json"])
        assert by_degrees["concurrence"] == pytest.approx(1.0, abs=1e-12)

    def test_thermal_block(self):
        report = self.run_json([
            "report", "--x", "1.0", "--coupling", "1.0", "--temperature", "2.0",
            "--g", "2.0", "--format", "json",
        ])
        thermal = report["thermal"]
        model_chi = 2.0 * 4.0 * (1.0 + report["ReC"]) / (2.0 * 2.0)
        assert thermal["susceptibility"] == pytest.approx(model_chi, abs=1e-12)
        assert thermal["witness_from_susceptibility"] == pytest.approx(report["witness"], abs=1e-12)

    def test_text_format_mentions_reduced_phase(self, capsys):
        assert main(["report", "--x", str(TWO_PI + 1.0)]) == 0
        out = capsys.readouterr().out
        assert "x mod 2pi" in out

    def test_validation_failures(self):
        assert main(["report"]) == 1
        assert main(["report", "--x", "1", "--q", "1,0,0"]) == 1
        assert main(["report", "--q", "1,0,0"]) == 1
        assert main(["report", "--q", "1,0", "--r1", "0,0,0", "--r2", "1,0,0"]) == 1
        assert main(["report", "--x", "1", "--temperature", "-1"]) == 1

    @pytest.mark.parametrize("temperature", ["-1", "0", "nan", "inf"])
    def test_bad_temperature_has_one_message(self, capsys, temperature):
        assert main(["report", "--x", "1", "--temperature", temperature]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: temperature must be finite and positive\n"
        assert captured.out == ""

    def test_json_keys_and_values_follow_the_quantifier_vocabulary(self):
        x = 2.3
        report = self.run_json(["report", "--x", str(x), "--format", "json"])
        names = ["x", *QUANTIFIER_FUNCTIONS]
        assert list(report)[:len(names)] == names
        assert report["x"] == x
        for name, f in QUANTIFIER_FUNCTIONS.items():
            assert report[name] == float(f(x)), name

    def test_quantifier_lines_match_golden_text(self, capsys):
        assert main(["report", "--x", "8.5"]) == 0
        lines = capsys.readouterr().out.splitlines(keepends=True)
        assert "".join(lines[:10]) == (DATA / "report_8.5.golden.txt").read_text(encoding="utf-8")

    @pytest.mark.parametrize("golden, argv", [
        # x = pi/2, where the figure-consistent discord vanishes and its ratio is null.
        ("report_1.5707963267948966.golden.json", ["--x", "1.5707963267948966"]),
        ("report_8.5_thermal.golden.json", ["--x", "8.5", "--temperature", "0.7", "--coupling", "1.3", "--g", "2.1"]),
        # A vector whose first component is negative, given as its own argument and after "=".
        ("report_vector.golden.json", ["--q", "1.5,0.2,-0.3", "--r1", "0.1,2,0.5", "--r2", "-1,0.3,0.25"]),
        ("report_vector.golden.json", ["--q", "1.5,0.2,-0.3", "--r1", "0.1,2,0.5", "--r2=-1,0.3,0.25"]),
    ])
    def test_json_report_matches_golden(self, golden, argv):
        report = self.run_json(["report", *argv, "--format", "json"])
        assert_matches_golden(report, json.loads((DATA / golden).read_text(encoding="utf-8")))

    @pytest.mark.parametrize("argv", [
        ["--x", "nan"],
        ["--q", "inf,0,0", "--r1", "0,0,0", "--r2", "1,0,0"],
        ["--q", "1,0,0", "--r1", "0,nan,0", "--r2", "1,0,0"],
        ["--x", "1", "--temperature", "nan"],
        ["--x", "1", "--temperature", "inf"],
        ["--x", "-inf"],
        ["--q", "-inf,0,0", "--r1", "0,0,0", "--r2", "1,0,0"],
    ])
    def test_non_finite_point_is_a_validation_failure(self, capsys, argv):
        assert main(["report", *argv]) == 1
        captured = capsys.readouterr()
        assert "must be finite" in captured.err
        assert captured.out == ""


class TestIngest:
    def write(self, path, text):
        path.write_text(text, encoding="utf-8", newline="\n")

    def test_scalar_mode_reference_rows(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        self.write(src, f"x_rad,S\n{np.pi},1.0\n0.0,0.0\n{np.pi / 2.0},0.5\n")
        assert main(["ingest", "--input", str(src), "--mode", "scalar", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["x_rad", "S", "ReC", "witness", "concurrence", "eof", "bell",
                          "discord_verbatim", "discord_figure"]
        by_x = {round(r[0], 6): dict(zip(header, r)) for r in rows}
        row_pi = by_x[round(np.pi, 6)]
        assert row_pi["ReC"] == pytest.approx(-1.0, abs=1e-12)
        assert row_pi["concurrence"] == pytest.approx(1.0, abs=1e-12)
        row_zero = by_x[0.0]
        assert row_zero["witness"] == 2.0
        assert row_zero["concurrence"] == 0.0 and row_zero["bell"] == 0.0
        row_half = by_x[round(np.pi / 2.0, 6)]
        assert abs(row_half["ReC"]) < 1e-12
        assert row_half["witness"] == pytest.approx(2.0, abs=1e-12)
        assert row_half["concurrence"] == 0.0
        assert "accepted 3 rows, rejected 0 rows" in capsys.readouterr().out

    def test_vector_mode_appends_phase(self, tmp_path):
        src = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        self.write(src, "qx,qy,qz,r1x,r1y,r1z,r2x,r2y,r2z,S\n"
                        f"1,0,0,{np.pi},0,0,0,0,0,1.0\n")
        assert main(["ingest", "--input", str(src), "--mode", "vector", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header[10] == "x_rad"
        assert rows[0][10] == pytest.approx(np.pi, abs=1e-15)
        assert rows[0][header.index("concurrence")] == pytest.approx(1.0, abs=1e-12)

    def test_rejects_are_reported_with_line_numbers(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        self.write(src, "x_rad,S\n1.0,0.5\n2.0,1.5\nabc,0.1\n3.0\n0.5,0.25\n")
        assert main(["ingest", "--input", str(src), "--mode", "scalar", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 2
        rejects = (tmp_path / "out.csv.rejects.csv").read_text(encoding="utf-8").splitlines()
        assert rejects[0] == "line,reason,row"
        assert len(rejects) == 4
        assert rejects[1].startswith("3,") and "range" in rejects[1]
        assert rejects[2].startswith("4,") and "non-numeric" in rejects[2]
        assert rejects[3].startswith("5,") and "fields" in rejects[3]
        assert "accepted 2 rows, rejected 3 rows" in capsys.readouterr().out

    def test_input_file_is_never_mutated(self, tmp_path):
        src = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        self.write(src, "x_rad,S\n1.0,0.5\nbad,row\n")
        before = src.read_bytes()
        assert main(["ingest", "--input", str(src), "--mode", "scalar", "--out", str(out)]) == 0
        assert src.read_bytes() == before

    def test_wrong_header_is_a_validation_failure(self, tmp_path):
        src = tmp_path / "in.csv"
        self.write(src, "x,S\n1.0,0.5\n")
        assert main(["ingest", "--input", str(src), "--mode", "scalar",
                     "--out", str(tmp_path / "out.csv")]) == 1

    def test_missing_input_is_an_io_failure(self, tmp_path):
        assert main(["ingest", "--input", str(tmp_path / "none.csv"), "--mode", "scalar",
                     "--out", str(tmp_path / "out.csv")]) == 2


    @pytest.mark.parametrize("mode", ["scalar", "vector"])
    def test_output_matches_golden_bytes_and_rejects(self, tmp_path, mode):
        out = tmp_path / "out.csv"
        assert main(["ingest", "--input", str(DATA / f"ingest_{mode}.csv"), "--mode", mode,
                     "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / f"ingest_{mode}.golden.csv").read_bytes()
        got = read_rejects(tmp_path / "out.csv.rejects.csv")
        want = read_rejects(DATA / f"ingest_{mode}.golden.rejects.csv")
        assert [row[:2] for row in got] == [row[:2] for row in want]

    def test_rejected_cells_read_back_exactly(self, tmp_path):
        src = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        self.write(src, 'x_rad,S\n"2,0",0.3\n3.0,"a""b"\n,0.5\n1.0,0.5\n""\n')
        assert main(["ingest", "--input", str(src), "--mode", "scalar", "--out", str(out)]) == 0
        rejects = read_rejects(tmp_path / "out.csv.rejects.csv")
        assert rejects[0] == ["line", "reason", "row"]
        assert [(line, reason) for line, reason, _ in rejects[1:]] == [
            ("2", "non-numeric field"), ("3", "non-numeric field"), ("4", "non-numeric field"),
            ("6", "expected 2 fields, got 1"),
        ]
        cells = [next(csv.reader([row])) for _, _, row in rejects[1:]]
        assert cells == [["2,0", "0.3"], ["3.0", 'a"b'], ["", "0.5"], [""]]

    def test_run_without_rejects_removes_the_old_rejects_file(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        rejects = tmp_path / "out.csv.rejects.csv"
        argv = ["ingest", "--input", str(src), "--mode", "scalar", "--out", str(out)]
        self.write(src, "x_rad,S\n1.0,0.5\n1.0,bad\n")
        assert main(argv) == 0
        assert rejects.exists()
        self.write(src, "x_rad,S\n1.0,0.5\n")
        assert main(argv) == 0
        assert not rejects.exists()
        assert "accepted 1 rows, rejected 0 rows" in capsys.readouterr().out.splitlines()[-1]

    @pytest.mark.parametrize("error", [OSError, RuntimeError])
    def test_interrupted_write_keeps_old_outputs(self, tmp_path, monkeypatch, error):
        src = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        argv = ["ingest", "--input", str(src), "--mode", "scalar", "--out", str(out)]
        self.write(src, "x_rad,S\n1.0,0.5\n2.0,0.25\n1.0,bad\n")
        assert main(argv) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        self.write(src, "x_rad,S\n" + "0.5,0.5\n" * 50)
        write_rows = cli._write_rows

        def write_some_rows_then_fail(fh, table):
            write_rows(fh, table[:10])
            raise error("interrupted")

        monkeypatch.setattr(cli, "_write_rows", write_some_rows_then_fail)
        if error is OSError:
            assert main(argv) == 2
        else:
            with pytest.raises(RuntimeError):
                main(argv)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p != src} == {
            name: data for name, data in before.items() if name != "in.csv"
        }

    def test_unwritable_output_is_an_io_failure(self, tmp_path):
        src = tmp_path / "in.csv"
        self.write(src, "x_rad,S\n1.0,0.5\n")
        for out in (tmp_path / "missing" / "out.csv", tmp_path):
            assert main(["ingest", "--input", str(src), "--mode", "scalar", "--out", str(out)]) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["in.csv"]

    def test_rejects_carry_the_line_a_multi_line_record_starts_on(self, tmp_path):
        src = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        self.write(src, 'x_rad,S\n"1.0\n",0.5\nabc,0.5\n"2.0,\n0.5"\n3.0,7\n')
        assert main(["ingest", "--input", str(src), "--mode", "scalar", "--out", str(out)]) == 0
        rejects = read_rejects(tmp_path / "out.csv.rejects.csv")
        assert [(line, reason) for line, reason, _ in rejects[1:]] == [
            ("4", "non-numeric field"), ("5", "expected 2 fields, got 1"), ("7", "S = 7 out of range [0, 1]"),
        ]
        _, rows = read_csv(out)
        assert [row[:2] for row in rows] == [[1.0, 0.5]]

    def test_over_long_cell_is_a_validation_failure_naming_its_line(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        self.write(src, "x_rad,S\n1.0,0.5\n" + "2" * 200_000 + ",0.5\n3.0,0.5\n")
        assert main(["ingest", "--input", str(src), "--mode", "scalar", "--out", str(out)]) == 1
        assert "line 3" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["in.csv"]

    def test_vector_phase_equals_scattering_phase_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(5)
        geometry = rng.uniform(-10.0, 10.0, (2000, 9)) * 10.0 ** rng.integers(-3, 4, (2000, 1))
        src = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        lines = [",".join(cli.VECTOR_HEADER)] + [",".join(map(repr, row)) + ",0.5" for row in geometry.tolist()]
        self.write(src, "\n".join(lines) + "\n")
        assert main(["ingest", "--input", str(src), "--mode", "vector", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        x_rad = [row[header.index("x_rad")] for row in rows]
        assert x_rad == [scattering_phase(g[0:3], g[3:6], g[6:9]) for g in geometry]


@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=-100.0, max_value=100.0),
    st.floats(min_value=1e-6, max_value=100.0),
    st.integers(min_value=2, max_value=300),
)
def test_ingesting_the_theoretical_structure_factor_reproduces_the_sweep(x_from, width, samples):
    with tempfile.TemporaryDirectory() as tmp:
        sweep_out, ingest_in, ingest_out = (Path(tmp) / name for name in ("s.csv", "in.csv", "out.csv"))
        assert main(["sweep", f"--from={x_from!r}", f"--to={x_from + width!r}", "--samples", str(samples),
                     "--out", str(sweep_out)]) == 0
        sweep_lines = sweep_out.read_text(encoding="utf-8").splitlines()
        ingest_in.write_text(
            "\n".join(["x_rad,S"] + [",".join(line.split(",")[:2]) for line in sweep_lines[1:]]) + "\n",
            encoding="utf-8",
        )
        assert main(["ingest", "--input", str(ingest_in), "--mode", "scalar", "--out", str(ingest_out)]) == 0
        ingest_lines = ingest_out.read_text(encoding="utf-8").splitlines()
        assert ingest_lines[0] == "x_rad," + sweep_lines[0].split(",", 1)[1]
        assert ingest_lines[1:] == sweep_lines[1:]


def assert_matches_golden(got, want, path="report"):
    """Same keys in the same order, same strings, booleans, integers and list
    lengths; floats within 1e-12."""
    if isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= 1e-12, (path, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), path
        for key in want:
            assert_matches_golden(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for k, (g, w) in enumerate(zip(got, want)):
            assert_matches_golden(g, w, f"{path}[{k}]")
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


class TestParallelWriter:
    """The CSV writer formats chunks in one forked worker per usable CPU.

    Each path is forced through the CPU set `os.sched_getaffinity` reports;
    one CPU is the in-process path every other output is compared against.
    """

    def write_ingest_input(self, path):
        # 4400 rows, 90 of them rejected: 4310 accepted rows make three
        # chunks, the last one partial.
        lines = ["x_rad,S"]
        for i in range(4400):
            if i % 97 == 5:
                lines.append(f"{i},bad")
            elif i % 101 == 7:
                lines.append(f"{i * 0.01!r},1.5")
            else:
                lines.append(f"{i * 0.01!r},{(i % 89) / 88!r}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_sweep_bytes_match_the_in_process_path(self, tmp_path, monkeypatch, forks, cpus):
        argv = ["sweep", "--samples", "20001", "--out"]
        use_cpus(monkeypatch, 1)
        assert main([*argv, str(tmp_path / "in_process.csv")]) == 0
        assert forks == []
        use_cpus(monkeypatch, cpus)
        assert main([*argv, str(tmp_path / "forked.csv")]) == 0
        assert len(forks) == cpus
        assert (tmp_path / "forked.csv").read_bytes() == (tmp_path / "in_process.csv").read_bytes()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_ingest_bytes_and_rejects_match_the_in_process_path(self, tmp_path, monkeypatch, forks, cpus):
        src = tmp_path / "in.csv"
        self.write_ingest_input(src)
        outputs = {}
        for count in (1, cpus):
            use_cpus(monkeypatch, count)
            out = tmp_path / f"out_{count}.csv"
            assert main(["ingest", "--input", str(src), "--mode", "scalar", "--out", str(out)]) == 0
            rejects = out.with_name(out.name + ".rejects.csv")
            outputs[count] = (out.read_bytes(), rejects.read_bytes())
        assert len(forks) == cpus
        assert outputs[cpus] == outputs[1]
        assert outputs[1][0].count(b"\n") - 1 == 4310
        assert outputs[1][1].count(b"\n") - 1 == 90

    @pytest.mark.parametrize("fallback", ["one_cpu", "one_chunk", "no_affinity", "no_fork"])
    def test_falls_back_to_in_process_formatting(self, tmp_path, monkeypatch, forks, fallback):
        use_cpus(monkeypatch, 1 if fallback == "one_cpu" else 2)
        if fallback == "no_affinity":
            monkeypatch.delattr(os, "sched_getaffinity")
        if fallback == "no_fork":
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        samples = str(cli.ROWS_PER_CHUNK if fallback == "one_chunk" else 3 * cli.ROWS_PER_CHUNK)
        out = tmp_path / "s.csv"
        assert main(["sweep", "--samples", samples, "--quantifiers", "S", "--out", str(out)]) == 0
        assert forks == []
        assert len(out.read_text(encoding="utf-8").splitlines()) == int(samples) + 1

    @pytest.mark.parametrize("error", [OSError, RuntimeError])
    def test_worker_exception_keeps_old_outputs(self, tmp_path, monkeypatch, forks, error):
        src = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        argv = ["ingest", "--input", str(src), "--mode", "scalar", "--out", str(out)]
        src.write_text("x_rad,S\n1.0,0.5\n2.0,0.25\n1.0,bad\n", encoding="utf-8")
        assert main(argv) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        self.write_ingest_input(src)
        use_cpus(monkeypatch, 2)
        parent = os.getpid()
        format_rows = cli._format_rows

        def fail_in_a_worker(chunk):
            if os.getpid() != parent:
                raise error("interrupted")
            return format_rows(chunk)

        monkeypatch.setattr(cli, "_format_rows", fail_in_a_worker)
        if error is OSError:
            assert main(argv) == 2
        else:
            with pytest.raises(RuntimeError, match="^interrupted$"):
                main(argv)
        assert len(forks) == 2
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p != src} == {
            name: data for name, data in before.items() if name != "in.csv"
        }
        assert multiprocessing.active_children() == []

    def test_a_worker_that_dies_is_an_error_not_a_hang(self, tmp_path, monkeypatch, forks):
        out = tmp_path / "s.csv"
        use_cpus(monkeypatch, 2)
        parent = os.getpid()
        format_rows = cli._format_rows

        def die_in_the_last_worker(chunk):
            # Worker 1 of 2 formats chunk 1, the first that does not start at x = 0.
            if os.getpid() != parent and chunk[0, 0] != 0.0:
                os._exit(3)
            return format_rows(chunk)

        monkeypatch.setattr(cli, "_format_rows", die_in_the_last_worker)
        with pytest.raises(RuntimeError, match="^CSV formatting worker 1 exited before sending chunk 1$"):
            main(["sweep", "--samples", "5000", "--out", str(out)])
        assert list(tmp_path.iterdir()) == []
        assert multiprocessing.active_children() == []

    def test_text_buffered_before_the_fork_is_written_once(self, tmp_path, monkeypatch, forks, capfd):
        # Block-buffered, as stdout is when it is a file or a pipe.
        stdout = open(os.dup(1), "w", encoding="utf-8", buffering=8192)
        monkeypatch.setattr(sys, "stdout", stdout)
        use_cpus(monkeypatch, 2)
        print("before the sweep")
        try:
            assert main(["sweep", "--samples", "5000", "--out", str(tmp_path / "s.csv")]) == 0
        finally:
            stdout.close()
        assert len(forks) == 2
        assert capfd.readouterr().out == "before the sweep\n"


class TestVerify:
    def test_summary_matches_golden_json(self, verification_report):
        # Every check's observation and every discrepancy number, as `verify --json` writes them.
        golden = json.loads((DATA / "verify.golden.json").read_text(encoding="utf-8"))
        assert_matches_golden(verification_report.as_dict(), golden)

    def test_verify_passes_and_reports(self, tmp_path, capsys):
        json_path = tmp_path / "verify.json"
        code = main(["verify", "--json", str(json_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "exclusive vs scalar structure factor: max dev < 1e-12" in out
        assert "Tsirelson bound on the closed-form bell curve" in out
        assert "overall: PASS" in out
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        assert payload["all_pass"] is True
        names = [c["name"] for c in payload["checks"]]
        assert "trace-norm discord numerical vs closed form" in names
        assert any("violation_without_entanglement" in d for d in payload["discrepancies"])

    def test_interrupted_json_write_keeps_the_old_file(self, tmp_path, monkeypatch, verification_report):
        json_path = tmp_path / "verify.json"
        json_path.write_text("old\n", encoding="utf-8")

        def dump_some_then_fail(obj, fh, **kwargs):
            fh.write(json.dumps(obj, **kwargs)[:100])
            raise OSError("device full")

        monkeypatch.setattr(cli.verify, "run_all_checks", lambda: verification_report)
        monkeypatch.setattr(cli.json, "dump", dump_some_then_fail)
        assert main(["verify", "--json", str(json_path)]) == 2
        assert json_path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["verify.json"]

    def test_suite_makes_one_stacked_call_per_block(self, monkeypatch):
        calls = {"exclusive_structure_factor": 0, "random_density_matrix": 0, "werner_state": 0, "scan_roots": 0}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(verify, "exclusive_structure_factor")
        counted(verify.oracle, "random_density_matrix")
        counted(verify.oracle, "werner_state")
        # The correlation zeros and the three windows, each found once.
        counted(verify, "scan_roots")
        counted(verify.quantifiers, "scan_roots")
        assert verify.run_all_checks().all_pass
        assert calls["exclusive_structure_factor"] == 1
        assert 1 <= calls["random_density_matrix"] <= 2
        assert 1 <= calls["werner_state"] <= 2
        assert calls["scan_roots"] == 4


class TestArgumentErrors:
    def test_unknown_command_maps_to_validation_exit(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "error" in capsys.readouterr().err

    def test_import_does_not_load_scipy(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import spindimer.cli, sys; sys.exit('scipy' in sys.modules)"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_import_does_not_load_multiprocessing(self):
        # The CSV writer imports multiprocessing only when it forks workers.
        proc = subprocess.run(
            [sys.executable, "-c",
             "import spindimer.cli, sys; sys.exit([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules] or None)"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "s.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "spindimer", "sweep", "--samples", "3", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert out.exists()
