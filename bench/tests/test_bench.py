"""Tests of the benchmark's own parts: span arithmetic, output checks,
input generation and the recorder's patching.

Run from the repository root: python3 -m pytest bench/tests -q
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from inputs import make_ingest_input, sweep_range  # noqa: E402
from spans import SpanRecorder, summarize  # noqa: E402

from spindimer import cli  # noqa: E402


def test_self_time_of_a_nested_trace():
    # a [0, 10] holds b [1, 4] and d [5, 9]; b holds c [2, 3]; e [11, 12] is a second root.
    names = ["a", "b", "c", "d", "e"]
    summary = summarize(
        names,
        name=[0, 1, 2, 3, 4],
        parent=[-1, 0, 1, 0, -1],
        start=[0.0, 1.0, 2.0, 5.0, 11.0],
        end=[10.0, 4.0, 3.0, 9.0, 12.0],
    )
    assert {n: s["self_s"] for n, s in summary.items()} == {"a": 3.0, "b": 2.0, "c": 1.0, "d": 4.0, "e": 1.0}
    assert summary["a"]["total_s"] == 10.0
    assert all(s["calls"] == 1 for s in summary.values())


def test_self_time_sums_repeated_names():
    summary = summarize(["f", "g"], name=[0, 1, 0, 1], parent=[-1, 0, -1, 2],
                        start=[0.0, 0.5, 2.0, 2.25], end=[1.0, 0.75, 3.0, 2.5])
    assert summary["f"] == {"calls": 2, "total_s": 2.0, "self_s": 1.5}
    assert summary["g"] == {"calls": 2, "total_s": 0.5, "self_s": 0.5}


@pytest.fixture
def sweep_csv(tmp_path):
    x_from, x_to = sweep_range(7)
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", f"--from={x_from!r}", f"--to={x_to!r}", "--samples", "301", "--out", str(out)]) == 0
    return out, x_from, x_to


def test_sweep_check_accepts_the_program_output(sweep_csv):
    out, x_from, x_to = sweep_csv
    assert checks.check_sweep(out, x_from, x_to, 301) == []


def test_sweep_check_compares_values_not_bytes(sweep_csv):
    out, x_from, x_to = sweep_csv
    text = out.read_text()
    unsigned = text.replace(",-0,", ",0,").replace(",-0\n", ",0\n")
    assert unsigned != text
    out.write_text(unsigned)
    assert checks.check_sweep(out, x_from, x_to, 301) == []


def test_sweep_check_rejects_one_perturbed_value(sweep_csv):
    out, x_from, x_to = sweep_csv
    lines = out.read_text().splitlines()
    cells = lines[150].split(",")
    cells[6] = repr(float(cells[6]) * (1.0 + 1e-7))  # the bell column
    lines[150] = ",".join(cells)
    out.write_text("\n".join(lines) + "\n")
    problems = checks.check_sweep(out, x_from, x_to, 301)
    assert len(problems) == 1 and problems[0].startswith("bell: 1 values differ")


def test_sweep_check_rejects_a_missing_row(sweep_csv):
    out, x_from, x_to = sweep_csv
    lines = out.read_text().splitlines()
    out.write_text("\n".join(lines[:-1]) + "\n")
    assert checks.check_sweep(out, x_from, x_to, 301)


@pytest.fixture(params=["scalar", "vector"])
def ingest_run(request, tmp_path):
    mode = request.param
    tally = make_ingest_input(tmp_path / f"{mode}.csv", mode, 600, seed=5)
    out = tmp_path / f"{mode}.out.csv"
    assert cli.main(["ingest", "--input", str(tally.path), "--mode", mode, "--out", str(out)]) == 0
    return out, out.with_name(out.name + ".rejects.csv"), tally


def test_ingest_check_accepts_the_program_output(ingest_run):
    out, rejects, tally = ingest_run
    assert tally.reject_lines and len(tally.accepted) + len(tally.reject_lines) == 600
    assert checks.check_ingest(out, rejects, tally) == []


def test_ingest_check_rejects_a_missing_reject(ingest_run):
    out, rejects, tally = ingest_run
    lines = rejects.read_text().splitlines()
    rejects.write_text("\n".join(lines[:2] + lines[3:]) + "\n")
    problems = checks.check_ingest(out, rejects, tally)
    assert len(problems) == 1 and "missing lines" in problems[0]


def test_ingest_check_rejects_a_perturbed_value(ingest_run):
    out, rejects, tally = ingest_run
    lines = out.read_text().splitlines()
    cells = lines[10].split(",")
    cells[-1] = repr(float(cells[-1]) + 1e-6)
    lines[10] = ",".join(cells)
    out.write_text("\n".join(lines) + "\n")
    assert checks.check_ingest(out, rejects, tally)


def test_generator_is_deterministic_per_seed(tmp_path):
    for mode in ("scalar", "vector"):
        a = make_ingest_input(tmp_path / "a.csv", mode, 500, seed=3)
        b = make_ingest_input(tmp_path / "b.csv", mode, 500, seed=3)
        c = make_ingest_input(tmp_path / "c.csv", mode, 500, seed=4)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "c.csv").read_bytes()
        assert a.reject_lines == b.reject_lines
        assert np.array_equal(a.accepted, b.accepted)
    assert sweep_range(3) == sweep_range(3) != sweep_range(4)


def test_generator_writes_plain_floats(tmp_path):
    make_ingest_input(tmp_path / "s.csv", "scalar", 200, seed=1)
    text = (tmp_path / "s.csv").read_text()
    assert "np." not in text and "float64" not in text


def test_verify_check_counts_checks_and_discrepancies(tmp_path):
    path = tmp_path / "v.json"
    report = {"all_pass": True, "checks": [{"passed": True}] * 20, "discrepancies": [{}] * 4}
    path.write_text(json.dumps(report))
    assert checks.check_verify(path, 0) == []
    report["checks"] = report["checks"][:19]
    path.write_text(json.dumps(report))
    assert checks.check_verify(path, 0)
    assert checks.check_verify(tmp_path / "missing.json", 0)


def test_recorder_wraps_every_binding_and_restores_them(tmp_path):
    import spindimer
    from spindimer import quantifiers, verify

    originals = (cli.run_sweep, verify.real_correlation, spindimer.real_correlation,
                 dict(quantifiers.QUANTIFIER_FUNCTIONS))
    recorder = SpanRecorder()
    recorder.install()
    try:
        assert verify.real_correlation is not originals[1]
        assert spindimer.real_correlation is verify.real_correlation
        root = recorder.open("op")
        assert cli.main(["sweep", "--samples", "11", "--out", str(tmp_path / "s.csv")]) == 0
        recorder.close(root)
    finally:
        recorder.uninstall()
    assert (cli.run_sweep, verify.real_correlation, spindimer.real_correlation,
            dict(quantifiers.QUANTIFIER_FUNCTIONS)) == originals
    arrays = recorder.arrays()
    summary = summarize(recorder.names, **arrays)
    assert summary["op"]["calls"] == 1
    assert summary["cli.run_sweep"]["calls"] == 1
    assert summary["quantifiers.kernels"]["calls"] == 8
    assert recorder.kernel_points == 8 * 11
    assert summary["quantifiers.entanglement_of_formation"]["calls"] == 1
    total_self = sum(s["self_s"] for s in summary.values())
    assert math.isclose(total_self, summary["op"]["total_s"], rel_tol=1e-9)


def test_recorder_splits_discord_by_method():
    from spindimer import oracle

    recorder = SpanRecorder()
    recorder.install()
    try:
        rho = oracle.werner_state(0.5)
        oracle.trace_norm_discord(rho, "closed_form_bell_diagonal")
        oracle.trace_norm_discord(rho)
    finally:
        recorder.uninstall()
    summary = summarize(recorder.names, **recorder.arrays())
    assert summary["oracle.trace_norm_discord[closed_form_bell_diagonal]"]["calls"] == 1
    assert summary["oracle.trace_norm_discord[numerical_min]"]["calls"] == 1


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


class FakeWorker:
    """Writes the next of `contents` to the op's output file."""

    def __init__(self, path, contents):
        self.path, self.contents = path, list(contents)

    def op(self, argvs, trace):
        self.path.write_text(self.contents.pop(0))
        return {"seconds": 0.01, "exit_codes": [0], "error": None}


def test_closed_loop_rechecks_every_output_that_changed(tmp_path):
    out = tmp_path / "out.txt"
    checked = []

    def check(codes):
        checked.append(out.read_text())
        return [] if out.read_text() == "good" else ["bad output"]

    workload = run.Workload(argvs=[["x"]], rows=1, outputs=[out], check=check)
    worker = FakeWorker(out, ["good", "good", "bad", "good"] + ["good"] * 10_000)
    result = run.closed_loop(worker, workload, seconds=0.05, trace=False, setup_sample=None)
    assert checked == ["good", "bad"]
    assert result["failed"] == 1 and result["attempted"] > 4
