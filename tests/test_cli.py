"""Tests of the command-line interface.

`run_open_quote_smoke` is a command-line runner for three 200000-row
ingests of a file with a quoted cell left open, with a bound on peak memory:

    PYTHONPATH=src:tests python -c 'import sys, test_cli; test_cli.run_open_quote_smoke(sys.argv[1])' DIR

`run_all_quoted_twin` writes a 200000-row scalar input and its twin with
every cell quoted, for a shell step to ingest and compare:

    PYTHONPATH=src:tests python -c 'import sys, test_cli; test_cli.run_all_quoted_twin(sys.argv[1])' DIR
"""

import csv
import hashlib
import io
import json
import math
import multiprocessing
import os
import random
import re
import subprocess
import sys
import tempfile
import warnings
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from spindimer import cli, csvfloat, quantifiers, verify
from spindimer.cli import main
from spindimer.quantifiers import QUANTIFIER_FUNCTIONS, entanglement_of_formation
from spindimer.scattering import scattering_phase, scattering_phases

TWO_PI = 2.0 * np.pi
# Golden outputs written by the row-at-a-time implementation this CSV path replaced.
DATA = Path(__file__).parent / "data"
OPEN_QUOTE = "quoted cell runs past the end of its line"
# Lines 2, 3 and 5 hold a quoted cell still open at their end.
OPEN_QUOTES = 'x_rad,S\n"1.0\n",0.5\nabc,0.5\n"2.0,\n0.5"\n3.0,7\n0.25,"0.5"\n'


def read_rejects(path):
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def parse_rejects(data):
    """(line, reason) of each reject in the bytes of a rejects file."""
    return [row[:2] for row in csv.reader(io.StringIO(data.decode("utf-8"), newline=""))][1:]


def use_cpus(monkeypatch, count):
    """Make the ordered fork map see `count` usable CPUs."""
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

    @pytest.mark.parametrize("samples", [2, 2048, 2049, 20001])
    @pytest.mark.parametrize("quantifiers", [list(QUANTIFIER_FUNCTIONS), ["bell", "S", "witness"]])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_json_format(self, tmp_path, monkeypatch, forks, fmt, samples, quantifiers):
        # Each format against one whole-array evaluation of every column,
        # written as the in-memory path the chunked writer replaced wrote it.
        xs = np.linspace(-1.5, 7.25, samples)
        table = np.column_stack([xs] + [QUANTIFIER_FUNCTIONS[name](xs) for name in quantifiers])
        names = ["x", *quantifiers]
        if fmt == "csv":
            text = ",".join(names) + "\n" + "".join(",".join("%.17g" % v for v in row) + "\n" for row in table.tolist())
        else:
            text = json.dumps([dict(zip(names, row)) for row in table.tolist()], indent=2) + "\n"
        expected = text.encode("utf-8")
        chunks = -(-samples // cli.ROWS_PER_CHUNK)
        out = tmp_path / f"s.{fmt}"
        for cpus in (1, 2, 3):
            use_cpus(monkeypatch, cpus)
            forks.clear()
            assert main(["sweep", "--from", "-1.5", "--to", "7.25", "--samples", str(samples),
                         "--quantifiers", ",".join(quantifiers), "--format", fmt, "--out", str(out)]) == 0
            assert len(forks) == (min(cpus, chunks) if cpus > 1 and chunks > 1 else 0)
            assert out.read_bytes() == expected, cpus

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

    @pytest.mark.parametrize("bounds, message", [
        (["--from", "-inf", "--to", "0"], "--from and --to must be finite"),
        (["--to", "inf"], "--from and --to must be finite"),
        (["--from", "-1.7e308", "--to", "1.7e308"], "--to minus --from must be finite"),
    ])
    def test_non_finite_or_overflowing_range_is_one_error(self, tmp_path, capsys, bounds, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep", *bounds, "--out", str(tmp_path / "x.csv")]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    def test_empty_quantifier_list_is_one_error(self, tmp_path, capsys):
        assert main(["sweep", "--quantifiers", ",", "--out", str(tmp_path / "x.csv")]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: at least one quantifier must be requested\n")
        assert list(tmp_path.iterdir()) == []

    def test_unknown_format_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="format must be csv or json"):
            cli.SweepConfig(0.0, 1.0, 5, ("S",), tmp_path / "x.xml", "xml")

    def test_bad_quantifier_and_sample_count(self, tmp_path):
        out = str(tmp_path / "x.csv")
        assert main(["sweep", "--quantifiers", "entropy", "--out", out]) == 1
        assert main(["sweep", "--samples", "1", "--out", out]) == 1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_repeated_quantifier_is_one_error(self, tmp_path, capsys, fmt):
        # A repeated name would write its column twice, and two equal JSON keys per object.
        out = tmp_path / f"x.{fmt}"
        assert main(["sweep", "--quantifiers", "S,ReC,S,ReC", "--format", fmt, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        message = "error: repeated quantifiers ['S', 'ReC']; name each column once\n"
        assert (captured.out, captured.err) == ("", message)
        assert list(tmp_path.iterdir()) == []

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

    def test_each_job_evaluates_one_chunk_of_phases(self, tmp_path, monkeypatch):
        # The parent never evaluates the whole table: every kernel call sees one chunk.
        use_cpus(monkeypatch, 1)
        lengths = []
        for name, f in QUANTIFIER_FUNCTIONS.items():
            monkeypatch.setitem(QUANTIFIER_FUNCTIONS, name, lambda x, f=f: lengths.append(len(x)) or f(x))
        assert main(["sweep", "--samples", "5000", "--out", str(tmp_path / "s.csv")]) == 0
        assert max(lengths) <= cli.ROWS_PER_CHUNK
        assert len(lengths) == 3 * 8

    def test_interrupted_write_keeps_the_old_output(self, tmp_path, monkeypatch):
        out = tmp_path / "s.csv"

        def write_part_then_fail(job, count, consume):
            consume(0, job(0)[:20])
            raise OSError("device full")

        assert main(["sweep", "--samples", "50", "--out", str(out)]) == 0
        before = out.read_bytes()
        monkeypatch.setattr(cli, "_ordered_map", write_part_then_fail)
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

    def test_degrees_flag_with_vectors_is_a_validation_failure(self, capsys):
        argv = ["report", "--q", "1,0,0", "--r1", "180,0,0", "--r2", "0,0,0", "--degrees"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --degrees applies to --x only\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        (["--x", "1", "--r1", "1,0,0", "--r2", "0,0,0"], "give either --x or --q/--r1/--r2, not both"),
        (["--x", "1", "--r2", "0,0,0"], "give either --x or --q/--r1/--r2, not both"),
        (["--x", "1", "--q", "1,0,0", "--r1", "1,0,0", "--r2", "0,0,0"], "give either --x or --q/--r1/--r2, not both"),
        (["--r1", "1,0,0", "--r2", "0,0,0"], "--r1 and --r2 require --q"),
        (["--r1", "1,0,0"], "--r1 and --r2 require --q"),
        (["--q", "1,0,0", "--r1", "1,0,0"], "--q requires --r1 and --r2"),
        ([], "one of --x or --q/--r1/--r2 is required"),
    ])
    def test_point_options_are_given_whole_or_not_at_all(self, capsys, argv, message):
        assert main(["report", *argv]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_an_overflowing_phase_names_the_phase(self, capsys):
        assert main(["report", "--q", "1e200,0,0", "--r1", "1e200,0,0", "--r2", "0,0,0"]) == 1
        assert capsys.readouterr() == ("", "error: q . (r1 - r2) must be finite\n")

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

    BAD_G = "g**2 must be finite and at least the smallest normal float, 2.2250738585072014e-308"
    BAD_MODEL = [
        (["--g", "nan"], BAD_G),
        (["--g", "inf"], BAD_G),
        (["--g", "0"], BAD_G),
        (["--g", "1e200"], BAD_G),
        (["--g", "1e-200"], BAD_G),
        (["--g", "1e-160"], BAD_G),  # g**2 = 1e-320 is a subnormal float
        (["--coupling", "inf"], "coupling must be finite"),
        (["--g", "1e-160", "--coupling", "nan"], "coupling must be finite"),
    ]

    @pytest.mark.parametrize("argv, message", [
        # The model is checked whether or not a temperature is given.
        *BAD_MODEL,
        *[(["--temperature", "1", *argv], message) for argv, message in BAD_MODEL],
        # A valid model and temperature whose thermal values leave the float range.
        (["--temperature", "1e-310"], "susceptibility is not finite for g = 2.0 and temperature = 1e-310"),
        (["--g", "1.5e-154", "--temperature", "1000"], "susceptibility is subnormal for g = 1.5e-154 and temperature = 1000.0"),
    ])
    def test_bad_model_is_a_validation_failure(self, capsys, argv, message):
        assert main(["report", "--x", "1", *argv, "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["--temperature", "1e308"],
        ["--temperature", "1.79e308"],
        # A subnormal temperature, with a g small enough to keep chi finite.
        ["--temperature", "1e-310", "--g", "1.5e-154"],
        # chi is finite (about 1.9e307), but g**2 (1 + Re C) and T chi are not.
        ["--g", "1.3e154", "--temperature", "10"],
    ])
    def test_extreme_temperature_recovers_the_witness(self, argv):
        report = self.run_json(["report", "--x", "1", *argv, "--format", "json"])
        assert abs(report["thermal"]["witness_from_susceptibility"] - report["witness"]) <= 1e-15

    def test_json_keys_and_values_follow_the_quantifier_vocabulary(self):
        x = 2.3
        report = self.run_json(["report", "--x", str(x), "--format", "json"])
        names = ["x", *QUANTIFIER_FUNCTIONS]
        assert list(report)[:len(names)] == names
        assert report["x"] == x
        for name, f in QUANTIFIER_FUNCTIONS.items():
            assert report[name] == float(f(x)), name

    def test_every_delta_is_closed_form_minus_oracle(self):
        # Near pi the closed-form concurrence exceeds the oracle's by one ulp,
        # and EoF increases with the concurrence, so both deltas are positive.
        report = self.run_json(["report", "--x", "3.14159", "--format", "json"])
        oracle_eof = float(entanglement_of_formation(report["oracle"]["concurrence"]))
        assert report["delta"]["concurrence"] == report["concurrence"] - report["oracle"]["concurrence"] > 0.0
        assert report["delta"]["eof"] == report["eof"] - oracle_eof > 0.0

    def test_quantifier_lines_match_golden_text(self, capsys):
        assert main(["report", "--x", "8.5"]) == 0
        lines = capsys.readouterr().out.splitlines(keepends=True)
        assert "".join(lines[:10]) == (DATA / "report_8.5.golden.txt").read_text(encoding="utf-8")

    def test_thermal_text_matches_golden(self, capsys):
        # Labels and their alignment byte for byte; values within 1e-12, as in the JSON goldens.
        assert main(["report", "--x", "8.5", "--temperature", "0.7", "--coupling", "1.3", "--g", "2.1"]) == 0
        got = capsys.readouterr().out.splitlines()
        want = (DATA / "report_8.5_thermal.golden.txt").read_text(encoding="utf-8").splitlines()
        assert len(got) == len(want)
        for line, golden in zip(got, want):
            (label, _, value), (golden_label, _, golden_value) = line.partition("= "), golden.partition("= ")
            assert label == golden_label, line
            assert value == golden_value or abs(float(value) - float(golden_value)) <= 1e-12, line

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

    @pytest.mark.parametrize("q, message", [
        ("1,0", "--q must be three comma-separated numbers"),
        ("1,a,0", "--q must be numeric: could not convert string to float: 'a'"),
    ])
    def test_malformed_vector_is_one_error(self, capsys, q, message):
        assert main(["report", "--q", q, "--r1", "0,0,0", "--r2", "1,0,0"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


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

    @pytest.mark.parametrize("mode", ["scalar", "vector"])
    def test_a_byte_order_mark_is_named_in_the_header_error(self, tmp_path, capsys, mode):
        header = ",".join(cli.SCALAR_HEADER if mode == "scalar" else cli.VECTOR_HEADER)
        src = tmp_path / "in.csv"
        src.write_bytes(b"\xef\xbb\xbf" + header.encode() + b"\n")
        assert main(["ingest", "--input", str(src), "--mode", mode, "--out", str(tmp_path / "out.csv")]) == 1
        assert capsys.readouterr().err == (
            f"error: expected header {header!r} in {mode} mode (the file starts with a UTF-8 byte order mark)\n")
        assert [p.name for p in tmp_path.iterdir()] == ["in.csv"]

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

    def test_a_rejected_row_may_need_a_raised_field_limit_to_read_back(self, tmp_path):
        # Each input cell is one character, but the 66001 cells CSV-encoded
        # into the one `row` field take 132001, past csv's default limit.
        src = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        self.write(src, "x_rad,S\n" + ",".join(["1"] * 66001) + "\n1.0,0.5\n")
        assert main(["ingest", "--input", str(src), "--mode", "scalar", "--out", str(out)]) == 0
        with pytest.raises(csv.Error, match="field larger than field limit"):
            read_rejects(tmp_path / "out.csv.rejects.csv")
        limit = csv.field_size_limit(1 << 20)
        try:
            rejects = read_rejects(tmp_path / "out.csv.rejects.csv")
        finally:
            csv.field_size_limit(limit)
        assert [(line, reason) for line, reason, _ in rejects[1:]] == [("2", "expected 2 fields, got 66001")]
        assert next(csv.reader([rejects[1][2]])) == ["1"] * 66001

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
        use_cpus(monkeypatch, 1)  # the slices run in-process, one after the other
        monkeypatch.setattr(cli, "ROWS_PER_CHUNK", 10)
        handles, lines_written = [], []
        replaced_on_success, ingest_slice = cli._replaced_on_success, cli._ingest_slice

        @contextmanager
        def record_handle(path):
            with replaced_on_success(path) as fh:
                handles.append(fh)
                yield fh

        def fail_after_the_first_slice(data, bounds, first, last, mode):
            if first > 2:
                handles[0].flush()
                lines_written.append(Path(handles[0].name).read_text(encoding="utf-8").count("\n"))
                raise error("interrupted")
            return ingest_slice(data, bounds, first, last, mode)

        monkeypatch.setattr(cli, "_replaced_on_success", record_handle)
        monkeypatch.setattr(cli, "_ingest_slice", fail_after_the_first_slice)
        if error is OSError:
            assert main(argv) == 2
        else:
            with pytest.raises(RuntimeError):
                main(argv)
        assert lines_written == [1 + 10]  # the header and the first slice's rows
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p != src} == {
            name: data for name, data in before.items() if name != "in.csv"
        }

    def test_unwritable_output_is_an_io_failure(self, tmp_path):
        src = tmp_path / "in.csv"
        self.write(src, "x_rad,S\n1.0,0.5\n")
        for out in (tmp_path / "missing" / "out.csv", tmp_path):
            assert main(["ingest", "--input", str(src), "--mode", "scalar", "--out", str(out)]) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["in.csv"]

    def test_an_open_quote_rejects_its_line_alone(self, tmp_path):
        src = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        self.write(src, OPEN_QUOTES)
        assert main(["ingest", "--input", str(src), "--mode", "scalar", "--out", str(out)]) == 0
        assert read_rejects(tmp_path / "out.csv.rejects.csv")[1:] == [
            ["2", OPEN_QUOTE, "1.0"], ["3", OPEN_QUOTE, '",0.5"'], ["4", "non-numeric field", "abc,0.5"],
            ["5", OPEN_QUOTE, '"2.0,"'], ["6", "expected 2 fields, got 1", '"0.5"""'],
            ["7", "S = 7 out of range [0, 1]", "3.0,7"],
        ]
        _, rows = read_csv(out)
        assert [row[:2] for row in rows] == [[0.25, 0.5]]

    def test_a_stray_quote_takes_only_its_own_line(self, tmp_path, capsys):
        # Read on past its line, the cell the quote on line 3 opens would
        # hold every later line, past csv's 131072-character field limit.
        src = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        rows = [f"{i * 1e-4!r},0.5" for i in range(20002)]
        rows[1] = '"' + rows[1]
        self.write(src, "x_rad,S\n" + "\n".join(rows) + "\n")
        assert main(["ingest", "--input", str(src), "--mode", "scalar", "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "accepted 20001 rows, rejected 1 rows"
        assert read_rejects(tmp_path / "out.csv.rejects.csv")[1:] == [["3", OPEN_QUOTE, '"0.0001,0.5"']]

    def test_over_long_cell_is_a_validation_failure_naming_its_line(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        self.write(src, "x_rad,S\n1.0,0.5\n" + "2" * 200_000 + ",0.5\n3.0,0.5\n")
        assert main(["ingest", "--input", str(src), "--mode", "scalar", "--out", str(out)]) == 1
        assert "line 3" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["in.csv"]

    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("text, message", [
        (b"x_rad,S\n1.0,0.5\r\n2.0,\xff0.5\n3.0,0.5\n", "line 3 is not valid UTF-8: byte 0xff (invalid start byte)"),
        (b"x_rad,\xc3S\n1.0,0.5\n", "line 1 is not valid UTF-8: byte 0xc3 (invalid continuation byte)"),
        (b"x_rad,S\r1.0,0.5\r2.0,0.5\r\xe2\x82", "line 4 is not valid UTF-8: byte 0xe2 (unexpected end of data)"),
    ])
    def test_input_that_is_not_utf8_names_its_line(self, tmp_path, monkeypatch, capsys, cpus, text, message):
        src = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        self.write(src, "x_rad,S\n1.0,0.5\n1.0,bad\n")
        assert main(["ingest", "--input", str(src), "--mode", "scalar", "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p != src}
        src.write_bytes(text)
        use_cpus(monkeypatch, cpus)
        monkeypatch.setattr(cli, "ROWS_PER_CHUNK", 1)
        capsys.readouterr()
        assert main(["ingest", "--input", str(src), "--mode", "scalar", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p != src} == before

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("text, message", [
        (b"x_rad,S\n1.0,0.5\n2\x00,0.5\n", "line 3 contains a NUL byte"),
        (b"x_rad,S\x00\n1.0,0.5\n", "line 1 contains a NUL byte"),
    ])
    def test_nul_byte_is_refused_naming_its_line(self, tmp_path, monkeypatch, capsys, cpus, text, message):
        # csv reads a NUL as a character on some Pythons and refuses the line on others.
        src = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        self.write(src, "x_rad,S\n1.0,0.5\n1.0,bad\n")
        assert main(["ingest", "--input", str(src), "--mode", "scalar", "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p != src}
        src.write_bytes(text)
        use_cpus(monkeypatch, cpus)
        monkeypatch.setattr(cli, "ROWS_PER_CHUNK", 1)
        capsys.readouterr()
        assert main(["ingest", "--input", str(src), "--mode", "scalar", "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p != src} == before

    @pytest.mark.parametrize("src_name, out_name, refused", [
        ("a.csv", "a.csv", "a.csv"),
        ("m.rejects.csv", "m", "m.rejects.csv"),  # no rejects: the run would delete its input
        ("a.csv", "link.csv", "link.csv"),
    ])
    def test_output_that_is_the_input_is_refused(self, tmp_path, capsys, src_name, out_name, refused):
        src = tmp_path / src_name
        self.write(src, "x_rad,S\n1.0,0.5\n")
        if out_name == "link.csv":
            (tmp_path / out_name).symlink_to(src)
        before = {p.name: (p.is_symlink(), p.read_bytes()) for p in tmp_path.iterdir()}
        assert main(["ingest", "--input", str(src), "--mode", "scalar", "--out", str(tmp_path / out_name)]) == 1
        assert capsys.readouterr() == ("", f"error: output {tmp_path / refused} is the input file\n")
        assert {p.name: (p.is_symlink(), p.read_bytes()) for p in tmp_path.iterdir()} == before

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
    """The table writer formats chunks in one forked worker per usable CPU.

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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_sweep_bytes_match_the_in_process_path(self, tmp_path, monkeypatch, forks, cpus, fmt):
        argv = ["sweep", "--samples", "20001", "--format", fmt, "--out"]
        use_cpus(monkeypatch, 1)
        assert main([*argv, str(tmp_path / "in_process")]) == 0
        assert forks == []
        use_cpus(monkeypatch, cpus)
        assert main([*argv, str(tmp_path / "forked")]) == 0
        assert len(forks) == cpus
        assert (tmp_path / "forked").read_bytes() == (tmp_path / "in_process").read_bytes()
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
        format_csv = cli.format_csv

        def fail_in_a_worker(chunk):
            if os.getpid() != parent:
                raise error("interrupted")
            return format_csv(chunk)

        monkeypatch.setattr(cli, "format_csv", fail_in_a_worker)
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
        format_csv = cli.format_csv

        def die_in_the_last_worker(chunk):
            # Worker 1 of 2 formats chunk 1, the first that does not start at x = 0.
            if os.getpid() != parent and chunk[0, 0] != 0.0:
                os._exit(3)
            return format_csv(chunk)

        monkeypatch.setattr(cli, "format_csv", die_in_the_last_worker)
        with pytest.raises(RuntimeError, match="^worker 1 exited before sending chunk 1$"):
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


class TestIngestSlices:
    """Ingest cuts its input into slices of ROWS_PER_CHUNK lines and runs
    each as one job. With slices a line or a few long, every input here
    crosses many slice ends; the outputs must equal those of the whole file
    read as one slice in-process.
    """

    def ingest(self, monkeypatch, src, cpus, rows_per_chunk, mode="scalar"):
        """(exit code, output bytes, rejects bytes or None) of one ingest run."""
        use_cpus(monkeypatch, cpus)
        monkeypatch.setattr(cli, "ROWS_PER_CHUNK", rows_per_chunk)
        out = src.with_name(f"out_{cpus}_{rows_per_chunk}.csv")
        code = main(["ingest", "--input", str(src), "--mode", mode, "--out", str(out)])
        rejects = out.with_name(out.name + ".rejects.csv")
        return code, out.read_bytes() if out.exists() else None, rejects.read_bytes() if rejects.exists() else None

    def assert_matches_one_slice(self, monkeypatch, src, cpus, rows_per_chunk, mode="scalar"):
        want = self.ingest(monkeypatch, src, 1, 10**9, mode)
        assert self.ingest(monkeypatch, src, cpus, rows_per_chunk, mode) == want
        return want

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("rows_per_chunk", [1, 2, 3])
    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    def test_an_open_quote_is_one_line_at_every_slice_size(self, tmp_path, monkeypatch, forks,
                                                         cpus, rows_per_chunk, ending):
        lines = ["x_rad,S"]
        for i in range(40):
            if i % 9 == 3:
                lines.append(f'"{i * 0.1!r}{ending}",0.5')  # two lines, each with an open quote
            elif i % 9 == 6:
                lines.append(f'"{i},{ending}{ending}0.5"')  # an open quote, an empty line, one field
            elif i % 13 == 4:
                lines.append(f"{i},bad")
            elif i % 11 == 5:
                lines.append(f'"{i * 0.1!r}",0.25')  # a quoted cell closed on its line, accepted
            else:
                lines.append(f"{i * 0.1!r},{(i % 5) / 4!r}")
        src = tmp_path / "in.csv"
        src.write_bytes((ending.join(lines) + ending).encode())
        want = self.ingest(monkeypatch, src, 1, 10**9)
        reads = []
        ingest_slice = cli._ingest_slice

        def record_reads(data, bounds, first, last, mode):
            reads.append((first, last))  # only reads in this process: forked jobs record in their copy
            return ingest_slice(data, bounds, first, last, mode)

        monkeypatch.setattr(cli, "_ingest_slice", record_reads)
        code, out, rejects = self.ingest(monkeypatch, src, cpus, rows_per_chunk)
        assert (code, out, rejects) == want and code == 0
        # Each slice is read once, from its first line: here on one CPU, in the workers on more.
        slices = [(first, min(first + rows_per_chunk - 1, 54)) for first in range(2, 55, rows_per_chunk)]
        assert reads == (slices if cpus == 1 else [])
        assert len(forks) == (cpus if cpus > 1 else 0)
        assert parse_rejects(rejects) == [
            ["5", OPEN_QUOTE], ["6", OPEN_QUOTE], ["7", "non-numeric field"], ["9", OPEN_QUOTE],
            ["10", "expected 2 fields, got 0"], ["11", "expected 2 fields, got 1"], ["17", OPEN_QUOTE],
            ["18", OPEN_QUOTE], ["21", OPEN_QUOTE], ["22", "expected 2 fields, got 0"],
            ["23", "expected 2 fields, got 1"], ["25", "non-numeric field"], ["29", OPEN_QUOTE], ["30", OPEN_QUOTE],
            ["33", OPEN_QUOTE], ["34", "expected 2 fields, got 0"], ["35", "expected 2 fields, got 1"],
            ["41", OPEN_QUOTE], ["42", OPEN_QUOTE], ["45", OPEN_QUOTE], ["46", "expected 2 fields, got 0"],
            ["47", "expected 2 fields, got 1"], ["53", OPEN_QUOTE], ["54", OPEN_QUOTE],
        ]
        assert out.count(b"\n") == 1 + 40 - 5 - 4 - 2
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("header", [b'"x_rad\n",S\n', b'x_rad,"S\n', b'x_rad,"S\r'])
    def test_a_header_with_an_open_quote(self, tmp_path, monkeypatch, capsys, forks, header):
        src = tmp_path / "in.csv"
        src.write_bytes(header + b"1.0,0.5\n2.0,0.25\n")
        assert self.ingest(monkeypatch, src, 2, 1) == (1, None, None)
        assert capsys.readouterr().err == "error: expected header 'x_rad,S' in scalar mode\n"
        assert forks == []
        assert [p.name for p in tmp_path.iterdir()] == ["in.csv"]

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("rows_per_chunk", [1, 2, 3])
    def test_an_unclosed_quote_is_one_reject(self, tmp_path, monkeypatch, cpus, rows_per_chunk):
        src = tmp_path / "in.csv"
        src.write_bytes(b'x_rad,S\n1.0,0.5\n2.0,0.25\n"3.0,\n0.5\n4.0,0.5\n"5.0')
        code, out, rejects = self.assert_matches_one_slice(monkeypatch, src, cpus, rows_per_chunk)
        assert code == 0 and parse_rejects(rejects) == [
            ["4", OPEN_QUOTE], ["5", "expected 2 fields, got 1"], ["7", OPEN_QUOTE],
        ]
        assert [line.split(",")[:2] for line in out.decode().splitlines()[1:]] == [
            ["1", "0.5"], ["2", "0.25"], ["4", "0.5"],
        ]

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("rows_per_chunk", [1, 2, 3])
    def test_lines_after_an_open_quote_are_records(self, tmp_path, monkeypatch, cpus, rows_per_chunk):
        # Read on from line 3 or 4, the quoted cell would take lines 5 and
        # 6, 140000 characters, past csv's cell limit; each is a row whose x
        # is 70001 characters.
        src = tmp_path / "in.csv"
        long_row = b"1." + b"0" * 69999 + b",0.5\n"
        src.write_bytes(b'x_rad,S\n0.5,0.5\n"1.0\n",0.5\n' + long_row * 2 + b"2.0,0.25\n")
        code, out, rejects = self.assert_matches_one_slice(monkeypatch, src, cpus, rows_per_chunk)
        assert code == 0 and parse_rejects(rejects) == [["3", OPEN_QUOTE], ["4", OPEN_QUOTE]]
        assert [line.split(",")[:2] for line in out.decode().splitlines()[1:]] == [
            ["0.5", "0.5"], ["1", "0.5"], ["1", "0.5"], ["2", "0.25"],
        ]

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("ending", ["\r\n", "\r", "mixed"])
    @pytest.mark.parametrize("ends_a_line", [True, False], ids=["last_line_ended", "last_line_open"])
    def test_line_endings(self, tmp_path, monkeypatch, forks, cpus, ending, ends_a_line):
        endings = ["\n", "\r\n", "\r"] if ending == "mixed" else [ending]
        text = "x_rad,S" + endings[0]
        for i in range(50):
            row = f"{i},bad" if i % 7 == 2 else f"{i * 0.1!r},{(i % 5) / 4!r}"
            text += row + (endings[(i + 1) % len(endings)] if ends_a_line or i < 49 else "")
        src = tmp_path / "in.csv"
        src.write_bytes(text.encode())
        code, out, rejects = self.assert_matches_one_slice(monkeypatch, src, cpus, 4)
        assert code == 0 and out.count(b"\n") == 1 + 50 - 7
        assert [line for line, _ in parse_rejects(rejects)] == [str(i + 2) for i in range(50) if i % 7 == 2]
        assert len(forks) == (cpus if cpus > 1 else 0)  # cut into 13 slices, whatever ends the lines

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("mode", ["scalar", "vector"])
    def test_golden_bytes_from_small_slices(self, tmp_path, monkeypatch, forks, cpus, mode):
        src = tmp_path / "in.csv"
        src.write_bytes((DATA / f"ingest_{mode}.csv").read_bytes())
        code, out, _ = self.assert_matches_one_slice(monkeypatch, src, cpus, 3, mode)
        assert code == 0 and out == (DATA / f"ingest_{mode}.golden.csv").read_bytes()
        assert len(forks) == cpus

    @pytest.mark.parametrize("cpus, rows_per_chunk", [(2, 1), (3, 1), (3, 2)])
    def test_open_quotes_from_small_slices(self, tmp_path, monkeypatch, cpus, rows_per_chunk):
        src = tmp_path / "in.csv"
        src.write_text(OPEN_QUOTES, encoding="utf-8", newline="\n")
        code, out, rejects = self.assert_matches_one_slice(monkeypatch, src, cpus, rows_per_chunk)
        assert code == 0
        assert parse_rejects(rejects) == [
            ["2", OPEN_QUOTE], ["3", OPEN_QUOTE], ["4", "non-numeric field"], ["5", OPEN_QUOTE],
            ["6", "expected 2 fields, got 1"], ["7", "S = 7 out of range [0, 1]"],
        ]
        assert [line.split(",")[:2] for line in out.decode().splitlines()[1:]] == [["0.25", "0.5"]]

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_over_long_cell_is_a_validation_failure_naming_its_line(self, tmp_path, monkeypatch, capsys, forks, cpus):
        # Two unreadable records in different slices; the first in file order is named.
        src = tmp_path / "in.csv"
        src.write_text("x_rad,S\n" + "1.0,0.5\n" * 10 + "2" * 200_000 + ",0.5\n" + "3.0,0.5\n" * 10
                       + "4" * 200_000 + ",0.5\n", encoding="utf-8")
        assert self.ingest(monkeypatch, src, cpus, 2) == (1, None, None)
        err = capsys.readouterr().err
        assert err.startswith("error: unreadable CSV record on line 12: ") and err.count("\n") == 1
        assert len(forks) == cpus
        assert [p.name for p in tmp_path.iterdir()] == ["in.csv"]

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("text", ["x_rad,S\n", "x_rad,S", "x_rad,S\r\n", "x_rad,S\r"])
    def test_header_only_input(self, tmp_path, monkeypatch, capsys, forks, cpus, text):
        src = tmp_path / "in.csv"
        src.write_bytes(text.encode())
        header = ",".join(["x_rad", "S", *cli.QUANTIFIER_NAMES[1:]]) + "\n"
        assert self.ingest(monkeypatch, src, cpus, 1) == (0, header.encode(), None)
        assert capsys.readouterr().out == "accepted 0 rows, rejected 0 rows\n"
        assert forks == []

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("data", [b"", b"\n", b"\r", b"\r\n"])
    def test_input_without_a_header(self, tmp_path, monkeypatch, capsys, forks, cpus, data):
        # b"" has no lines at all; the others hold one empty line.
        src = tmp_path / "in.csv"
        src.write_bytes(data)
        assert self.ingest(monkeypatch, src, cpus, 1) == (1, None, None)
        assert capsys.readouterr().err == "error: expected header 'x_rad,S' in scalar mode\n"
        assert forks == []
        assert [p.name for p in tmp_path.iterdir()] == ["in.csv"]


def reference_slice(data, bounds, first, last, mode):
    """What cli._ingest_slice returns for a slice, computed one line at a
    time: each of lines first..last, split from the text at byte
    bounds[first - 1] on as a file opened with newline="" splits it, read by
    a csv.reader of its own without its terminator, float() on every cell,
    and each reject's cells CSV-encoded on their own."""
    width = len(cli.SCALAR_HEADER if mode == "scalar" else cli.VECTOR_HEADER)
    lines = io.TextIOWrapper(io.BytesIO(data[bounds[first - 1]:]), encoding="utf-8", newline="")
    rejected, parsed_lines, parsed_cells, values = [], [], [], []
    for line_no, line in zip(range(first, last + 1), lines):
        reader = csv.reader([line.rstrip("\r\n"), ""])  # a quoted cell open at the end takes the ""
        try:
            row = next(reader)
        except csv.Error as exc:
            raise ValueError(f"unreadable CSV record on line {line_no}: {exc}") from None
        if reader.line_num > 1:
            rejected.append((line_no, "quoted cell runs past the end of its line", row))
        elif len(row) != width:
            rejected.append((line_no, f"expected {width} fields, got {len(row)}", row))
        else:
            try:
                values += [float(cell) for cell in row]
            except ValueError:
                rejected.append((line_no, "non-numeric field", row))
            else:
                parsed_lines.append(line_no)
                parsed_cells.append(row)

    table = np.array(values, dtype=float).reshape(-1, width)
    s = table[:, -1]
    x = table[:, 0] if mode == "scalar" else scattering_phases(table[:, 0:3], table[:, 3:6], table[:, 6:9])
    phase_ok = np.isfinite(x)
    with np.errstate(invalid="ignore"):
        ok = phase_ok & (s >= 0.0) & (s <= 1.0)
    for k in np.flatnonzero(~ok).tolist():
        reason = "phase is not finite" if not phase_ok[k] else f"S = {float(s[k]):g} out of range [0, 1]"
        rejected.append((parsed_lines[k], reason, parsed_cells[k]))
    rejected.sort()
    rejects = io.StringIO()
    for line, reason, cells in rejected:
        row = io.StringIO()
        csv.writer(row, lineterminator="").writerow(cells)
        csv.writer(rejects, lineterminator="\n").writerow((line, reason, row.getvalue()))
    derived = quantifiers.quantifier_table(x[ok], s[ok])
    output = np.column_stack([table[ok]] + ([x[ok]] if mode == "vector" else []) + list(derived.values()))
    return percent_17g(output), rejects.getvalue(), len(rejected), len(output)


def slice_outcome(reader, data, bounds, first, last, mode):
    """reader(...)'s result, or its ValueError's message."""
    try:
        return reader(data, bounds, first, last, mode)
    except ValueError as exc:
        return str(exc)


NUMERIC_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: "%.17g" % v),
    st.floats(-20.0, 20.0).map(repr),
    st.integers(-10**25, 10**25).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e999", "-1e999", "-0", "0.0", ".5", "5.", "1e5", "1E-5",
                     "9007199254740993", "", "n/a", " 1", "1 ", "1_0", "\u0661", "-.", "0x1p3", "1.5e"]),
)
QUOTED_NUMERIC_CELLS = NUMERIC_CELLS.map(lambda t: f'"{t}"')
# Quoted cells as csv writes them, and cells with a quote off a cell's edge.
QUOTED_CELLS = st.one_of(
    st.text(alphabet='0.5,"\n\r', max_size=6).map(lambda t: '"' + t.replace('"', '""') + '"'),
    QUOTED_NUMERIC_CELLS,
    st.sampled_from(['1"5', '"1"5', '"1" ', ' "1"', '"1"""', '""', '"1,5"', '","']),
)


@st.composite
def csv_slices(draw):
    """(data, bounds, first, last, mode): mixed CSV lines, their line index,
    and a run of them."""
    mode = draw(st.sampled_from(["scalar", "vector"]))
    width = 2 if mode == "scalar" else 10
    s_cell = st.floats(0.0, 1.0).map(repr)
    cells = st.one_of(NUMERIC_CELLS, QUOTED_NUMERIC_CELLS)
    accepted = st.tuples(st.lists(cells, min_size=width - 1, max_size=width - 1),
                         st.one_of(s_cell, s_cell.map(lambda t: f'"{t}"'))).map(lambda row: row[0] + [row[1]])
    any_cells = st.lists(st.one_of(NUMERIC_CELLS, QUOTED_CELLS), max_size=width + 2)
    counts = st.sampled_from([0, 1, 3, width - 1, width + 1]).flatmap(
        lambda n: st.lists(NUMERIC_CELLS, min_size=n, max_size=n))
    rows = draw(st.lists(st.one_of(accepted, accepted, any_cells, counts), min_size=1, max_size=12))
    text = "".join(",".join(row) + draw(st.sampled_from(["\n", "\r\n", "\r"])) for row in rows)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # an unterminated last line
    data = text.encode("utf-8")
    bounds = csvfloat.line_bounds(data)
    lines = len(bounds) - 1
    assume(lines)
    first = draw(st.integers(1, lines))
    last = draw(st.integers(first, lines))
    return data, bounds, first, last, mode


class TestSliceReader:
    """cli._ingest_slice reads lines whose quotes sit at cell edges with
    numpy and csvfloat's decimal kernel, and every other quoted line with a
    csv.reader of its own; every slice must come out as csv.reader and
    float() read its lines one at a time, the whole returned tuple equal."""

    @settings(max_examples=200, deadline=None)
    @given(csv_slices())
    def test_mixed_slices_read_as_csv_and_float_read_them(self, case):
        assert slice_outcome(cli._ingest_slice, *case) == slice_outcome(reference_slice, *case)

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    def test_an_open_quote_on_the_last_line(self, ending):
        data = ending.join(["0.5,0.5", '"1.0', '",0.25', "abc,0.5", "0.75,1"]).encode()
        bounds = csvfloat.line_bounds(data)
        want = reference_slice(data, bounds, 1, 2, "scalar")
        assert cli._ingest_slice(data, bounds, 1, 2, "scalar") == want
        assert want[1:] == ("2,quoted cell runs past the end of its line,1.0\n", 1, 1)

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    def test_a_slice_that_begins_on_an_empty_line(self, ending):
        # The slice's first line is a lone "\n" after a "\r\n": looking for a
        # "\r" before that "\n" must not wrap round to the slice's last byte.
        data = f"0.5,0.5\r\n\n0.25,0.5{ending}".encode()
        bounds = csvfloat.line_bounds(data)
        want = reference_slice(data, bounds, 2, 3, "scalar")
        assert cli._ingest_slice(data, bounds, 2, 3, "scalar") == want
        assert want[1:] == ('2,"expected 2 fields, got 0",\n', 1, 1)

    def test_an_over_long_quote_free_cell(self):
        data = b"0.5,0.5\n0." + b"2" * 200_000 + b",0.5\n3.0,0.5\n"
        bounds = csvfloat.line_bounds(data)
        with pytest.raises(ValueError, match=r"^unreadable CSV record on line 2: field larger than field limit"):
            cli._ingest_slice(data, bounds, 1, 3, "scalar")
        limit = csv.field_size_limit(300_000)
        try:
            got = cli._ingest_slice(data, bounds, 1, 3, "scalar")
            assert got == reference_slice(data, bounds, 1, 3, "scalar")
        finally:
            csv.field_size_limit(limit)
        assert got[1:] == ("", 0, 3) and got[0].splitlines()[1].startswith("0.22222222222222221,0.5,")

    def test_bench_like_cells_go_through_the_kernel(self, monkeypatch):
        # Nearly every cell of repr-written rows is decided without float().
        rng = np.random.default_rng(26)
        table = np.column_stack([rng.uniform(-3.0, 3.0, (2048, 9)), rng.uniform(0.0, 1.0, 2048)])
        rows = [",".join(map(repr, row)) for row in table.tolist()]
        data = ("\n".join(rows) + "\n").encode()
        calls = []
        decimals = csvfloat._decimals

        def count_undecided(*args):
            values, decided = decimals(*args)
            calls.append(int(np.count_nonzero(~decided)))
            return values, decided

        monkeypatch.setattr(csvfloat, "_decimals", count_undecided)
        assert cli._ingest_slice(data, csvfloat.line_bounds(data), 1, 2048, "vector")[3] == 2048
        assert len(calls) == 1 and calls[0] <= 0.01 * 2048 * 10


def percent_17g(table):
    """The rows of a float table as CSV text, each value through "%.17g" on its own."""
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in np.asarray(table).tolist())


class TestCsvValues:
    """Sweep and ingest CSV bytes against "%.17g" value by value, for values
    the CSV kernel leaves to Python (exponent form, subnormal, 1e300) next to
    signed zeros, at 1, 2 and 3 CPUs."""

    @pytest.mark.parametrize("bounds, x_from, x_to", [
        (["--from=-1e18", "--to", "1e18"], -1e18, 1e18),
        (["--from", "0", "--to", "1e-6"], 0.0, 1e-6),
    ])
    def test_sweep(self, tmp_path, monkeypatch, forks, bounds, x_from, x_to):
        samples = 5000
        xs = np.linspace(x_from, x_to, samples)
        table = np.column_stack([xs] + [f(xs) for f in QUANTIFIER_FUNCTIONS.values()])
        expected = (",".join(["x", *QUANTIFIER_FUNCTIONS]) + "\n" + percent_17g(table)).encode("utf-8")
        assert re.search(rb"e[+-]\d\d", expected)
        out = tmp_path / "s.csv"
        for cpus in (1, 2, 3):
            use_cpus(monkeypatch, cpus)
            forks.clear()
            assert main(["sweep", *bounds, "--samples", str(samples), "--out", str(out)]) == 0
            assert len(forks) == (cpus if cpus > 1 else 0)
            assert out.read_bytes() == expected, cpus

    @pytest.mark.parametrize("mode", ["scalar", "vector"])
    def test_ingest(self, tmp_path, monkeypatch, forks, mode):
        # Slices of two lines: lines 6 and 7 are one slice, all of it rejected.
        extremes = [-0.0, 5e-324, 1e-7, 1e300]
        if mode == "scalar":
            header = cli.SCALAR_HEADER
            rows = [[x, s] for x in extremes for s in (-0.0, 5e-324, 1e-7)]
        else:
            header = cli.VECTOR_HEADER
            rows = [[q, 0.0, -0.0, r, -0.0, 5e-324, 1e-7, 0.0, 0.0, s]
                    for q, r in ((1e300, 1e-7), (-0.0, 1e300), (5e-324, 1e-7), (1e-7, -0.0)) for s in (-0.0, 1e-7)]
        lines = [",".join(header)] + [",".join(map(repr, row)) for row in rows]
        lines[5:5] = ["abc," * (len(header) - 1) + "0.5", ",".join(["1.0"] * (len(header) - 1) + ["7"])]
        src = tmp_path / "in.csv"
        src.write_text("\n".join(lines) + "\n", encoding="utf-8")

        table = np.array(rows)
        x = table[:, 0] if mode == "scalar" else scattering_phases(table[:, 0:3], table[:, 3:6], table[:, 6:9])
        echoed = [table] + ([x] if mode == "vector" else [])
        output = np.column_stack(echoed + list(quantifiers.quantifier_table(x, table[:, -1]).values()))
        out_header = [*header, *(["x_rad"] if mode == "vector" else []), *cli.QUANTIFIER_NAMES[1:]]
        expected = (",".join(out_header) + "\n" + percent_17g(output)).encode("utf-8")
        for cell in (b"-0,", b"4.9406564584124654e-324", b"9.9999999999999995e-08", b"1e+300"):
            assert cell in expected
        monkeypatch.setattr(cli, "ROWS_PER_CHUNK", 2)
        for cpus in (1, 2, 3):
            use_cpus(monkeypatch, cpus)
            forks.clear()
            out = tmp_path / f"out_{cpus}.csv"
            assert main(["ingest", "--input", str(src), "--mode", mode, "--out", str(out)]) == 0
            assert len(forks) == (cpus if cpus > 1 else 0)
            assert out.read_bytes() == expected, cpus
            rejects = read_rejects(out.with_name(out.name + ".rejects.csv"))
            assert [row[0] for row in rejects[1:]] == ["6", "7"]


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

    def test_each_check_stands_alone(self, verification_report):
        # Run on freshly built shared inputs in reverse order, each check
        # observes what it observed in the full suite, bit for bit.
        shared = verify._shared_inputs()
        assert len(verify._CHECKS) == len(verification_report.checks)
        pairs = list(zip(verify._CHECKS, verification_report.checks))
        for (name, tolerance, metric, observe), check in reversed(pairs):
            assert (name, tolerance, metric) == (check.name, check.tolerance, check.metric)
            assert float(observe(shared)).hex() == check.observed.hex(), name

    def test_each_random_check_draws_from_a_generator_of_its_own(self, monkeypatch):
        # Every generator made while the suite runs records, for each draw,
        # the step it was made in, the step it draws in and a digest of what
        # it drew. A check that drew from a generator made at import, or by
        # another step or an earlier run, would draw what a previous run
        # left, which the check's rounding-level observation cannot show.
        default_rng, step, made, draws = np.random.default_rng, ["import"], [], []

        class Recorded:
            def __init__(self, seed):
                self.generator, self.step = default_rng(seed), step[-1]
                made.append((self.step, seed))

            def __getattr__(self, name):
                method = getattr(self.generator, name)

                def draw(*args, **kwargs):
                    result = method(*args, **kwargs)
                    digest = hashlib.sha256(np.ascontiguousarray(result).tobytes()).hexdigest()
                    draws.append((self.step, step[-1], name, digest))
                    return result

                return draw

        def in_step(name, function):
            def run(*args):
                step.append(name)
                try:
                    return function(*args)
                finally:
                    step.pop()

            return run

        monkeypatch.setattr(np.random, "default_rng", Recorded)
        monkeypatch.setattr(verify, "_shared_inputs", in_step("shared inputs", verify._shared_inputs))
        monkeypatch.setattr(verify, "_discrepancy_table", in_step("discrepancy table", verify._discrepancy_table))
        monkeypatch.setattr(verify, "_CHECKS", tuple(
            (name, tolerance, metric, in_step(name, observe)) for name, tolerance, metric, observe in verify._CHECKS
        ))
        runs = []
        for _ in range(2):
            verify.run_all_checks()
            runs.append((made[:], draws[:]))
            made.clear()
            draws.clear()

        seeds = {
            "shared inputs": 303,
            "exclusive vs scalar structure factor": 101,
            "susceptibility pipeline reproduces witness": 202,
            "trace-norm discord numerical vs closed form": 404,
            "CHSH direct angle search vs Horodecki value": 505,
            "Pauli decompose/reconstruct round trip": 606,
        }
        for run_made, run_draws in runs:
            assert run_made == list(seeds.items())
            assert all(made_in == drawn_in for made_in, drawn_in, _, _ in run_draws)
            assert {drawn_in for _, drawn_in, _, _ in run_draws} == set(seeds)
        assert runs[0][1] == runs[1][1]

    def test_a_nan_observation_fails_its_check(self, monkeypatch):
        # The singlet-point check reduces seven deviations; a NaN in the last
        # one must not be skipped, as Python's max skips it.
        original = verify.closed_form_vs_oracle

        def nan_discord(x):
            comparison = original(x)
            comparison["oracle"]["discord_trace_norm"] = float("nan")
            return comparison

        monkeypatch.setattr(verify, "closed_form_vs_oracle", nan_discord)
        report = verify.run_all_checks()
        assert [(c.name, math.isnan(c.observed)) for c in report.checks if not c.passed] == [
            ("closed forms vs oracle at the singlet point x = pi", True)
        ]

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
        concurrence_states = []
        wootters = verify.oracle.wootters_concurrence

        def counted_states(rho):
            concurrence_states.append(int(np.prod(np.shape(rho)[:-2])))
            return wootters(rho)

        monkeypatch.setattr(verify.oracle, "wootters_concurrence", counted_states)

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
        counted(quantifiers, "scan_roots")
        assert verify.run_all_checks().all_pass
        assert calls["exclusive_structure_factor"] == 1
        assert 1 <= calls["random_density_matrix"] <= 2
        assert 1 <= calls["werner_state"] <= 2
        assert calls["scan_roots"] == 4
        # The 7 seed-303 CHSH violators, the 100 Werner states and the singlet
        # point; not the 1000 random states, whose other 993 cannot count.
        assert sum(concurrence_states) == 108

    @staticmethod
    def counterexamples_of_every_state(states, chsh):
        return np.count_nonzero((chsh > 2.0 + 1e-9) & (verify.oracle.wootters_concurrence(states) == 0.0))

    # (seed, states, violators the altered oracle calls separable); seed 77's
    # 50 states hold no CHSH violator, so the selection is empty.
    @pytest.mark.parametrize("seed, size, altered", [(303, 1000, 2), (1, 400, 1), (2, 400, 1), (77, 50, 0)])
    def test_separable_check_counts_what_every_state_would(self, monkeypatch, seed, size, altered):
        # The check computes the concurrence of the CHSH violators only. With
        # the oracle as shipped, and with one that calls every state of
        # concurrence below 1/2 separable (a per-state value, so that the count
        # is not 0 = 0), the count equals the one over every state's concurrence.
        states = verify.oracle.random_density_matrix(np.random.default_rng(seed), size)
        shared = SimpleNamespace(random_states=states, chsh=verify.oracle.chsh_max(states, "optimized"))
        assert verify._separable_violators(shared) == self.counterexamples_of_every_state(states, shared.chsh) == 0
        wootters = verify.oracle.wootters_concurrence
        monkeypatch.setattr(verify.oracle, "wootters_concurrence", lambda rho: np.where(
            np.asarray(wootters(rho)) < 0.5, 0.0, 1.0
        ))
        assert verify._separable_violators(shared) == self.counterexamples_of_every_state(states, shared.chsh) == altered

    def test_separable_check_of_a_stack_without_violators(self, monkeypatch):
        # Werner states violate CHSH only for p > 1/sqrt(2); the selection is empty.
        states = verify.oracle.werner_state(np.linspace(0.0, 0.7, 20))
        shared = SimpleNamespace(random_states=states, chsh=verify.oracle.chsh_max(states, "optimized"))
        seen = []
        wootters = verify.oracle.wootters_concurrence
        monkeypatch.setattr(verify.oracle, "wootters_concurrence", lambda rho: seen.append(np.shape(rho)) or wootters(rho))
        assert verify._separable_violators(shared) == self.counterexamples_of_every_state(states, shared.chsh) == 0
        assert seen[0] == (0, 4, 4)

    def test_separable_check_fails_on_an_oracle_that_finds_no_entanglement(self, monkeypatch):
        # Every seed-303 CHSH violator then counts.
        monkeypatch.setattr(verify.oracle, "wootters_concurrence", lambda rho: np.zeros(np.shape(rho)[:-2]))
        check = {c.name: c for c in verify.run_all_checks().checks}["separable random states never violate CHSH"]
        assert (check.observed, check.passed) == (7.0, False)

    def test_pipeline_closed_forms_on_the_phase_array_match_scalar_calls(self):
        # The susceptibility check evaluates Re C and the witness once on its
        # seed-202 phases; each value is the per-phase scalar call's bit for bit.
        phases = np.random.default_rng(202).uniform(0.0, 2.0 * np.pi, 100)
        wide = np.random.default_rng(7).uniform(0.0, 2.0 * np.pi, 10_000)
        for f in (quantifiers.real_correlation, quantifiers.witness):
            for x in (phases, wide):
                stacked = np.array(f(x).tolist())
                scalar = np.array([float(f(phase)) for phase in x])
                assert np.array_equal(stacked.view(np.int64), scalar.view(np.int64)), f.__name__


class TestArgumentErrors:
    def test_unknown_command_maps_to_validation_exit(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "error" in capsys.readouterr().err

    def test_import_loads_neither_scipy_nor_multiprocessing(self):
        # The table writer imports multiprocessing only when it forks workers.
        proc = subprocess.run(
            [sys.executable, "-c",
             "import spindimer.cli, sys; "
             "sys.exit([m for m in ('scipy', 'multiprocessing', 'concurrent.futures') if m in sys.modules] or None)"],
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


class TestClosedStdout:
    """A reader that closes stdout before the command writes to it (as
    `| head -0` does) does not turn the run into an I/O failure."""

    def run_with_closed_stdout(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            return subprocess.run([sys.executable, "-m", "spindimer", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)

    def test_report(self):
        proc = self.run_with_closed_stdout(["report", "--x", "1"])
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_verify_still_writes_its_json(self, tmp_path):
        proc = self.run_with_closed_stdout(["verify", "--json", str(tmp_path / "closed.json")])
        assert (proc.returncode, proc.stderr) == (0, "")
        assert main(["verify", "--json", str(tmp_path / "open.json")]) == 0
        assert (tmp_path / "closed.json").read_bytes() == (tmp_path / "open.json").read_bytes()


class TestOutputPaths:
    """Every writer (sweep, ingest, verify --json) writes through a symlink
    to its target and refuses an output that is not a regular file."""

    @pytest.fixture(params=["sweep", "ingest", "verify"])
    def command(self, request, tmp_path, monkeypatch, verification_report):
        """argv for the command, given its output path."""
        monkeypatch.setattr(cli.verify, "run_all_checks", lambda: verification_report)
        src = tmp_path / "in.csv"
        src.write_text("x_rad,S\n1.0,0.5\n", encoding="utf-8")
        return {
            "sweep": lambda out: ["sweep", "--samples", "3", "--out", str(out)],
            "ingest": lambda out: ["ingest", "--input", str(src), "--mode", "scalar", "--out", str(out)],
            "verify": lambda out: ["verify", "--json", str(out)],
        }[request.param]

    def test_a_symlinked_output_keeps_its_link(self, tmp_path, command, capsys):
        want = tmp_path / "want.out"
        assert main(command(want)) == 0
        real, link = tmp_path / "real.out", tmp_path / "link.out"
        real.write_text("old\n", encoding="utf-8")
        link.symlink_to(real)
        assert main(command(link)) == 0
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert real.read_bytes() == want.read_bytes()
        assert not [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]

    def test_a_fifo_output_is_refused_untouched(self, tmp_path, command, capsys):
        fifo = tmp_path / "fifo.out"
        os.mkfifo(fifo)
        capsys.readouterr()
        assert main(command(fifo)) == 1
        assert capsys.readouterr().err == f"error: output {fifo} is not a regular file\n"
        assert fifo.is_fifo()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo.out", "in.csv"]


def run_open_quote_smoke(directory) -> None:
    """The same 200000-row scalar ingest three times, its lines ended by \\n
    (lf.csv), \\r\\n (crlf.csv) and a bare \\r (cr.csv), each copy with a
    quoted cell that holds the file's line ending on file lines 2049-2050.
    Writes the three inputs and their outputs (`<input>.out.csv`) into
    `directory`, prints the peak RSS, and exits 1 unless every ingest
    succeeds, each rejects file holds exactly lines 2049 and 2050, and the
    peak stays within 150 MB. The inputs are written a line at a time, so
    they add little to the peak."""
    import resource  # Unix only, and needed only here

    paths = [Path(directory, name) for name in ("lf.csv", "crlf.csv", "cr.csv")]
    for path, ending in zip(paths, ["\n", "\r\n", "\r"]):
        with path.open("w", newline="") as fh:
            fh.write("x_rad,S" + ending)
            # Data row 2048 is file line 2049; its quoted cell ends on line 2050.
            fh.writelines(f'"0.5{ending}",0.5{ending}' if i == 2047 else f"{i * 1e-5!r},0.5{ending}" for i in range(200000))
    codes = [main(["ingest", "--input", str(path), "--mode", "scalar", "--out", f"{path}.out.csv"]) for path in paths]
    mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS {mb:.1f} MB")
    for path in paths:
        rejects = parse_rejects(Path(f"{path}.out.csv.rejects.csv").read_bytes())
        if rejects != [["2049", OPEN_QUOTE], ["2050", OPEN_QUOTE]]:
            raise SystemExit(f"{path}: rejects {rejects}")
    raise SystemExit(1 if any(codes) or mb > 150 else 0)


def run_all_quoted_twin(directory) -> None:
    """Writes `plain.csv`, a 200000-row scalar input of repr floats (seed 31),
    and `quoted.csv`, the same rows with every cell quoted, header included,
    into `directory`."""
    rng = random.Random(31)
    rows = [("x_rad", "S")] + [(repr(rng.uniform(-12.0, 12.0)), repr(rng.random())) for _ in range(200000)]
    Path(directory, "plain.csv").write_text("".join(f"{a},{b}\n" for a, b in rows))
    Path(directory, "quoted.csv").write_text("".join(f'"{a}","{b}"\n' for a, b in rows))
