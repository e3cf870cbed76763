"""Output checks for the benchmark workloads.

The quantifiers are recomputed here from the paper's formulas with numpy,
independently of `spindimer.quantifiers`. Outputs are compared by value,
not by bytes, so a change that prints `0` for `-0` or writes the same rows
in chunks still passes. Each check returns a list of problems; an empty
list means the output is correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from inputs import SCALAR_HEADER, VECTOR_HEADER, IngestInput

QUANTIFIER_COLUMNS = ("S", "ReC", "witness", "concurrence", "eof", "bell", "discord_verbatim", "discord_figure")
INGEST_COLUMNS = QUANTIFIER_COLUMNS[1:]

# The program and these formulas round differently; a wrong formula or a
# corrupted digit is far outside this.
RTOL = 1e-9
ATOL = 1e-12

VERIFY_CHECKS = 20
VERIFY_DISCREPANCIES = 4


def binary_entropy_of_concurrence(conc: np.ndarray) -> np.ndarray:
    """Entanglement of formation in bits, with 0 log 0 = 0."""
    p = 0.5 * (1.0 + np.sqrt(1.0 - conc * conc))
    q = 0.5 * (1.0 - np.sqrt(1.0 - conc * conc))
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, -p * np.log2(p), 0.0) + np.where(q > 0.0, -q * np.log2(q), 0.0)
    return terms


def quantifiers_from(x: np.ndarray, s: np.ndarray) -> dict[str, np.ndarray]:
    """Every quantifier at phase x for a structure factor s."""
    re_c = np.cos(x) * s
    conc = np.maximum(0.0, -0.5 * (1.0 + 3.0 * re_c))
    return {
        "S": s,
        "ReC": re_c,
        "witness": 2.0 + 3.0 * re_c,
        "concurrence": conc,
        "eof": binary_entropy_of_concurrence(conc),
        "bell": 2.0 * math.sqrt(2.0) * s,
        "discord_verbatim": 0.5 * s,
        "discord_figure": 0.5 * np.abs(re_c),
    }


def _compare(name: str, got: np.ndarray, want: np.ndarray) -> list[str]:
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, expected {want.shape}"]
    bad = ~np.isclose(got, want, rtol=RTOL, atol=ATOL)
    if not bad.any():
        return []
    k = int(np.flatnonzero(bad)[0])
    return [f"{name}: {int(bad.sum())} values differ, first at row {k}: {got[k]!r} != {want[k]!r}"]


def _read_table(path: Path) -> tuple[list[str], np.ndarray]:
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        values = np.loadtxt(fh, delimiter=",", dtype=float, ndmin=2)
    return header, values


def check_sweep(path: Path, x_from: float, x_to: float, samples: int) -> list[str]:
    """A sweep CSV of every quantifier over linspace(x_from, x_to, samples)."""
    try:
        header, values = _read_table(path)
    except (OSError, ValueError) as exc:
        return [f"sweep output unreadable: {exc}"]
    expected_header = ["x", *QUANTIFIER_COLUMNS]
    if header != expected_header:
        return [f"sweep header {header}, expected {expected_header}"]
    if values.shape != (samples, len(expected_header)):
        return [f"sweep output has shape {values.shape}, expected {(samples, len(expected_header))}"]
    x = np.linspace(x_from, x_to, samples)
    problems = _compare("x", values[:, 0], x)
    want = quantifiers_from(x, 0.5 * (1.0 - np.cos(x)))
    for k, name in enumerate(QUANTIFIER_COLUMNS, start=1):
        problems += _compare(name, values[:, k], want[name])
    return problems


def reject_line_numbers(path: Path) -> list[int]:
    """Input line numbers listed in a rejects file.

    Only the first field is read: it is an integer whatever quoting the rest
    of the row uses.
    """
    lines = path.read_text(encoding="utf-8").splitlines()
    return [int(line.split(",", 1)[0]) for line in lines[1:] if line]


def check_ingest(out: Path, rejects: Path, expected: IngestInput) -> list[str]:
    """An ingest output and its rejects file against the generator's tally."""
    header = list(SCALAR_HEADER if expected.mode == "scalar" else VECTOR_HEADER)
    if expected.mode == "vector":
        header.append("x_rad")
    header += INGEST_COLUMNS
    try:
        got_header, values = _read_table(out)
    except (OSError, ValueError) as exc:
        return [f"{expected.mode} ingest output unreadable: {exc}"]
    if got_header != header:
        return [f"{expected.mode} ingest header {got_header}, expected {header}"]
    accepted = expected.accepted
    if values.shape != (len(accepted), len(header)):
        return [f"{expected.mode} ingest output has shape {values.shape}, expected {(len(accepted), len(header))}"]
    try:
        lines = reject_line_numbers(rejects)
    except (OSError, ValueError) as exc:
        return [f"{expected.mode} rejects file unreadable: {exc}"]
    problems = []
    if lines != expected.reject_lines:
        missing = sorted(set(expected.reject_lines) - set(lines))
        extra = sorted(set(lines) - set(expected.reject_lines))
        problems.append(
            f"{expected.mode} rejects: {len(lines)} listed, expected {len(expected.reject_lines)}; "
            f"missing lines {missing[:5]}, unexpected lines {extra[:5]}"
        )
    n_in = accepted.shape[1]
    problems += _compare(f"{expected.mode} echoed input", values[:, :n_in].ravel(), accepted.ravel())
    if expected.mode == "scalar":
        x = accepted[:, 0]
    else:
        q, r1, r2 = accepted[:, 0:3], accepted[:, 3:6], accepted[:, 6:9]
        x = np.sum(q * (r1 - r2), axis=1)
        problems += _compare("vector x_rad", values[:, n_in], x)
        n_in += 1
    want = quantifiers_from(x, accepted[:, -1])
    for k, name in enumerate(INGEST_COLUMNS, start=n_in):
        problems += _compare(f"{expected.mode} {name}", values[:, k], want[name])
    return problems


def check_verify(path: Path, exit_code: int) -> list[str]:
    """The verify JSON: every check passes and the tables have their size."""
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"verify JSON unreadable: {exc}"]
    problems = []
    if exit_code != 0:
        problems.append(f"verify exited {exit_code}")
    if report.get("all_pass") is not True:
        problems.append("verify all_pass is not true")
    checks = report.get("checks", [])
    if len(checks) != VERIFY_CHECKS or not all(c.get("passed") is True for c in checks):
        problems.append(f"verify has {len(checks)} checks, expected {VERIFY_CHECKS} passing")
    if len(report.get("discrepancies", [])) != VERIFY_DISCREPANCIES:
        problems.append(f"verify discrepancy table is not {VERIFY_DISCREPANCIES} entries")
    return problems
