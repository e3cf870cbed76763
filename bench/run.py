"""spindimer benchmark: verify, sweep and ingest workloads.

Usage, from the root of a checkout:

  python3 bench/run.py --workload verify|sweep|ingest|all --seed N --seconds S --trace 0|1

Each workload runs in one fresh worker process (bench/worker.py) as a
closed loop with one client: after one warm-up operation, operations run
back to back, each checked before the next starts, until --seconds have
passed. The program is imported from ./src; the seed only shapes the
generated inputs. With --trace 0 the end-to-end metrics are reported, with
--trace 1 the per-layer metrics of a separate traced run. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See bench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from inputs import make_ingest_input, sweep_range
from spans import LAYERS, summarize

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SWEEP_SAMPLES = 200_000
INGEST_ROWS = 25_000  # per file; one op ingests a scalar file and a vector file
SETUP_SAMPLES = 5
OP_TIMEOUT_S = 150.0

END_TO_END = (
    ("setup_s", "s"),
    ("rows_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("oracle.trace_norm_discord.calls", "count"),
    ("oracle.trace_norm_discord.ms_per_call", "ms"),
    ("oracle.trace_norm_discord.self_s", "s"),
    ("oracle.chsh_direct_search.ms_per_call", "ms"),
    ("oracle.chsh_max.us_per_call", "us"),
    ("oracle.wootters_concurrence.us_per_call", "us"),
    ("oracle.self_s", "s"),
    ("spin_core.fano_decompose.us_per_call", "us"),
    ("spin_core.fano_reconstruct.us_per_call", "us"),
    ("spin_core.require_density_matrix.calls", "count"),
    ("spin_core.self_s", "s"),
    ("scattering.exclusive_structure_factor.us_per_call", "us"),
    ("scattering.self_s", "s"),
    ("quantifiers.scan_roots.calls", "count"),
    ("quantifiers.scan_roots.self_s", "s"),
    ("quantifiers.scan_roots.total_s", "s"),
    ("quantifiers.kernels.ns_per_point", "ns"),
    ("quantifiers.entanglement_of_formation.calls", "count"),
    ("quantifiers.entanglement_of_formation.us_per_call", "us"),
    ("quantifiers.self_s", "s"),
    ("verify.run_all_checks.self_s", "s"),
    ("verify.self_s", "s"),
    ("cli.run_sweep.self_s", "s"),
    ("cli.sweep_bytes_out", "bytes"),
    ("cli.run_ingest.self_s", "s"),
    ("cli.ingest_bytes_out", "bytes"),
    ("cli.ingest_rejected_rows", "count"),
    ("cli.self_s", "s"),
    ("import.scipy_s", "s"),
    ("import.numpy_s", "s"),
    ("import.spindimer_self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


@dataclass
class Workload:
    """One operation of a workload: the CLI calls it makes and how to check them."""

    argvs: list[list[str]]
    rows: int  # work per op: sweep output rows, ingest input rows, verify checks
    outputs: list[Path]
    check: Callable[[list[int]], list[str]]
    bytes_metric: str | None = None  # the layer metric that reports the size of `outputs`


def make_verify(work: Path, seed: int) -> Workload:
    out = work / "verify.json"
    return Workload(
        argvs=[["verify", "--json", str(out)]],
        rows=checks.VERIFY_CHECKS,
        outputs=[out],
        check=lambda codes: checks.check_verify(out, codes[0]),
    )


def make_sweep(work: Path, seed: int) -> Workload:
    out = work / "sweep.csv"
    x_from, x_to = sweep_range(seed)
    argv = ["sweep", f"--from={x_from!r}", f"--to={x_to!r}", "--samples", str(SWEEP_SAMPLES), "--out", str(out)]

    def check(codes):
        problems = [f"sweep exited {codes[0]}"] if codes[0] != 0 else []
        return problems + checks.check_sweep(out, x_from, x_to, SWEEP_SAMPLES)

    return Workload(argvs=[argv], rows=SWEEP_SAMPLES, outputs=[out], check=check,
                    bytes_metric="cli.sweep_bytes_out")


def make_ingest(work: Path, seed: int) -> Workload:
    argvs, outputs, expected = [], [], []
    for mode in ("scalar", "vector"):
        tally = make_ingest_input(work / f"{mode}.csv", mode, INGEST_ROWS, seed)
        out = work / f"{mode}.out.csv"
        rejects = out.with_name(out.name + ".rejects.csv")
        argvs.append(["ingest", "--input", str(tally.path), "--mode", mode, "--out", str(out)])
        outputs += [out, rejects]
        expected.append((out, rejects, tally))

    def check(codes):
        problems = [f"ingest exited {code}" for code in codes if code != 0]
        for out, rejects, tally in expected:
            problems += checks.check_ingest(out, rejects, tally)
        return problems

    return Workload(argvs=argvs, rows=2 * INGEST_ROWS, outputs=outputs, check=check,
                    bytes_metric="cli.ingest_bytes_out")


WORKLOADS = {"verify": make_verify, "sweep": make_sweep, "ingest": make_ingest}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["MKL_NUM_THREADS"] = "1"
    return env


def run_import(env: dict[str, str], *flags: str) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, *flags, "-c", "import spindimer.cli"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import spindimer.cli failed:\n{proc.stderr}")
    return proc


def time_import(env: dict[str, str]) -> float:
    """Wall time of a fresh interpreter that imports spindimer.cli and exits."""
    start = time.perf_counter()
    run_import(env)
    return time.perf_counter() - start


def measure_import_layers(env: dict[str, str]) -> dict[str, float]:
    """Self import time per top-level package, from python -X importtime."""
    stderr = run_import(env, "-X", "importtime").stderr
    totals: dict[str, float] = {}
    for line in stderr.splitlines():
        match = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)", line)
        if match:
            top = match.group(2).split(".")[0]
            totals[top] = totals.get(top, 0.0) + int(match.group(1)) * 1e-6
    return {
        "import.scipy_s": totals.get("scipy", 0.0),
        "import.numpy_s": totals.get("numpy", 0.0),
        "import.spindimer_self_s": totals.get("spindimer", 0.0),
    }


class Worker:
    """The workload process and its line protocol (see worker.py)."""

    def __init__(self, env: dict[str, str]):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT,
        )
        try:
            self.receive(120.0)
        except BaseException:
            self.stop()
            raise

    def send(self, message: dict) -> None:
        self.proc.stdin.write((json.dumps(message) + "\n").encode())
        self.proc.stdin.flush()

    def receive(self, timeout: float) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise TimeoutError(f"worker gave no reply within {timeout:g} s")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def op(self, argvs: list[list[str]], trace: bool) -> dict:
        self.send({"argvs": argvs, "trace": trace})
        return self.receive(OP_TIMEOUT_S)

    def quit(self, spans: Path | None) -> int:
        self.send({"quit": True, "spans": str(spans) if spans else None})
        reply = self.receive(60.0)
        self.proc.wait(timeout=60)
        return int(reply["maxrss_kb"])

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def layer_metrics(spans_file: Path, traced_ops: int, extras: dict[str, float]) -> dict[str, float]:
    data = np.load(spans_file)
    names = [str(n) for n in data["names"]]
    summary = summarize(names, data["name"], data["parent"], data["start"], data["end"])
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def span(name):
        return summary.get(name, empty)

    def per_call(name, scale):
        s = span(name)
        return s["total_s"] / s["calls"] * scale if s["calls"] else 0.0

    def per_op(value):
        return value / traced_ops

    discord = "oracle.trace_norm_discord[numerical_min]"
    metrics = {
        "oracle.trace_norm_discord.calls": per_op(span(discord)["calls"]),
        "oracle.trace_norm_discord.ms_per_call": per_call(discord, 1e3),
        "oracle.trace_norm_discord.self_s": per_op(span(discord)["self_s"]),
        "oracle.chsh_direct_search.ms_per_call": per_call("oracle.chsh_direct_search", 1e3),
        "oracle.chsh_max.us_per_call": per_call("oracle.chsh_max", 1e6),
        "oracle.wootters_concurrence.us_per_call": per_call("oracle.wootters_concurrence", 1e6),
        "spin_core.fano_decompose.us_per_call": per_call("spin_core.fano_decompose", 1e6),
        "spin_core.fano_reconstruct.us_per_call": per_call("spin_core.fano_reconstruct", 1e6),
        "spin_core.require_density_matrix.calls": per_op(span("spin_core.require_density_matrix")["calls"]),
        "scattering.exclusive_structure_factor.us_per_call": per_call("scattering.exclusive_structure_factor", 1e6),
        "quantifiers.scan_roots.calls": per_op(span("quantifiers.scan_roots")["calls"]),
        "quantifiers.scan_roots.self_s": per_op(span("quantifiers.scan_roots")["self_s"]),
        "quantifiers.scan_roots.total_s": per_op(span("quantifiers.scan_roots")["total_s"]),
        "quantifiers.entanglement_of_formation.calls": per_op(span("quantifiers.entanglement_of_formation")["calls"]),
        "quantifiers.entanglement_of_formation.us_per_call": per_call("quantifiers.entanglement_of_formation", 1e6),
        "verify.run_all_checks.self_s": per_op(span("verify.run_all_checks")["self_s"]),
        "cli.run_sweep.self_s": per_op(span("cli.run_sweep")["self_s"]),
        "cli.run_ingest.self_s": per_op(span("cli.run_ingest")["self_s"]),
    }
    # Eight quantifier columns make one phase point.
    points = int(data["kernel_points"]) / 8
    kernels = span("quantifiers.kernels")["total_s"]
    metrics["quantifiers.kernels.ns_per_point"] = kernels / points * 1e9 if points else 0.0
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = per_op(
            sum(s["self_s"] for n, s in summary.items() if n.startswith(layer + "."))
        )
    metrics.update(extras)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    try:
        workload = WORKLOADS[name](work, seed)
        run_import(env)  # fills the bytecode and file caches, which users have warm
        imports = measure_import_layers(env) if trace else {}
        spans_file = WORK / f"{name}-spans.npz" if trace else None
        worker = Worker(env)
        try:
            result = closed_loop(worker, workload, seconds, trace, None if trace else lambda: time_import(env))
            result["maxrss_kb"] = worker.quit(spans_file)
        finally:
            worker.stop()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = result["untraced"]
    result["rows"] = workload.rows
    if not trace:
        result["metrics"] = {
            "setup_s": statistics.median(result["setup"]),
            "rows_per_s": workload.rows * len(untraced) / sum(untraced),
            "peak_rss_mb": result["maxrss_kb"] / 1024.0,
        }
        return result
    extras = dict(imports)
    extras["trace.overhead_ratio"] = statistics.median(result["traced"]) / statistics.median(untraced)
    extras["cli.sweep_bytes_out"] = extras["cli.ingest_bytes_out"] = 0
    if workload.bytes_metric:
        extras[workload.bytes_metric] = statistics.mean(result["bytes_out"])
    extras["cli.ingest_rejected_rows"] = statistics.mean(result["rejected_rows"])
    result["metrics"] = layer_metrics(spans_file, len(result["traced"]), extras)
    return result


def closed_loop(worker: Worker, workload: Workload, seconds: float, trace: bool,
                setup_sample: Callable[[], float] | None) -> dict:
    """One warm-up op, then ops back to back until `seconds` have passed.

    In a traced run the timed ops alternate traced and untraced, starting
    traced; the untraced ones give the base of trace.overhead_ratio.
    Otherwise SETUP_SAMPLES set-up samples are taken at even intervals of
    the run, each between two ops. Spreading them over the run averages
    over the host's speed, which on the reference machine swings by up to
    2x over tens of seconds, instead of sampling one moment of it.

    Outputs are deterministic, so an op whose output files are byte for
    byte those of an op that passed the full check passes too; only new
    outputs are parsed. This keeps the time between ops short.
    """
    result = {"attempted": 0, "failed": 0, "problems": [], "traced": [], "untraced": [], "setup": [],
              "warmup_s": None, "bytes_out": [], "rejected_rows": []}
    verified: set[str] = set()

    def one_op(traced: bool) -> float:
        for path in workload.outputs:
            path.unlink(missing_ok=True)
        reply = worker.op(workload.argvs, traced)
        result["attempted"] += 1
        digest = hashlib.sha256(repr(reply["exit_codes"]).encode())
        for path in workload.outputs:
            digest.update(path.read_bytes() if path.exists() else b"missing")
        if reply["error"]:
            problems = [reply["error"]]
        elif digest.hexdigest() in verified:
            problems = []
        else:
            problems = workload.check(reply["exit_codes"])
            if not problems:
                verified.add(digest.hexdigest())
        if problems:
            result["failed"] += 1
            result["problems"] += problems[:3]
        result["bytes_out"].append(sum(p.stat().st_size for p in workload.outputs if p.exists()))
        result["rejected_rows"].append(sum(
            len(checks.reject_line_numbers(p))
            for p in workload.outputs
            if p.name.endswith(".rejects.csv") and p.exists()
        ))
        return reply["seconds"]

    result["warmup_s"] = one_op(False)
    start = time.perf_counter()
    deadline = start + seconds
    k = 0
    while time.perf_counter() < deadline:
        due = (time.perf_counter() - start) / seconds * SETUP_SAMPLES
        if setup_sample and len(result["setup"]) < min(due + 1, SETUP_SAMPLES):
            result["setup"].append(setup_sample())
        traced = trace and k % 2 == 0
        result["traced" if traced else "untraced"].append(one_op(traced))
        k += 1
    while setup_sample and len(result["setup"]) < SETUP_SAMPLES:
        result["setup"].append(setup_sample())
    if not result["untraced"]:
        result["untraced"].append(result["warmup_s"])
    return result


def run_info() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "spindimer").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def print_table(name: str, result: dict, trace: bool) -> None:
    print(f"workload {name}: {result['attempted']} ops attempted (1 warm-up), {result['failed']} failed, "
          f"error_rate {result['failed'] / result['attempted']:g}")
    for problem in result["problems"]:
        print(f"  check failed: {problem}")
    if not trace:
        setup_q = quartiles(result["setup"])
        op_q = quartiles(result["untraced"])
        times = " ".join(f"{t:.3f}" for t in result["untraced"])
        print(f"  setup_s      median {setup_q[1]:.4f}  q1 {setup_q[0]:.4f}  q3 {setup_q[2]:.4f}  n {len(result['setup'])}  s")
        print(f"  op_s         median {op_q[1]:.4f}  q1 {op_q[0]:.4f}  q3 {op_q[2]:.4f}  n {len(result['untraced'])}  s  [{times}]")
        print(f"  rows_per_s   {result['metrics']['rows_per_s']:.1f}  1/s  ({result['rows']} rows per op, over all timed ops)")
        print(f"  peak_rss_mb  {result['metrics']['peak_rss_mb']:.1f}  MB")
        return
    print(f"  traced ops {len(result['traced'])}, untraced ops {len(result['untraced'])}")
    for key, unit in PER_LAYER:
        print(f"  {key:<52} {result['metrics'][key]:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spindimer" / "__init__.py").is_file():
        print(f"error: no spindimer sources under {SRC}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("info " + json.dumps(run_info()), flush=True)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, trace)
        except (RuntimeError, TimeoutError, OSError) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        print_table(name, results[name], trace)

    specs = PER_LAYER if trace else END_TO_END
    prefix = len(names) > 1
    metrics = {
        (f"{n}.{k}" if prefix else k): {"value": results[n]["metrics"][k], "unit": unit}
        for n in names
        for k, unit in specs
    }
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
