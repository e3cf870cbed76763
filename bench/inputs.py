"""Seeded inputs for the benchmark workloads.

Everything a workload feeds the program is derived from the seed here, so
the same seed gives byte-identical inputs. The generator also keeps the
tally the output checks compare against: which input lines must be
rejected, and the exact values of the rows that must be accepted.

Floats are written with repr(float(v)). A numpy scalar prints as
np.float64(...) under numpy 2, which would turn every row into a reject.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SCALAR_HEADER = ("x_rad", "S")
VECTOR_HEADER = ("qx", "qy", "qz", "r1x", "r1y", "r1z", "r2x", "r2y", "r2z", "S")

# Share of rows that are malformed, split evenly over MALFORMED_KINDS.
MALFORMED_SHARE = 0.05
MALFORMED_KINDS = ("non_numeric", "field_count", "s_out_of_range", "nonfinite_phase", "quoted")
# Share of well-formed rows whose first cell is quoted; csv must unquote it.
VALID_QUOTED_SHARE = 0.01

NON_NUMERIC_TOKENS = ("n/a", "x1", "1.5e", "--", "", "0x1p3")


def num(value: float) -> str:
    return repr(float(value))


@dataclass
class IngestInput:
    """One generated ingest file and what the program must make of it."""

    mode: str
    path: Path
    accepted: np.ndarray  # accepted input values, one row per accepted line, file order
    reject_lines: list[int]  # file line numbers of the rows that must be rejected


def sweep_range(seed: int) -> tuple[float, float]:
    """Phase range of the sweep workload: one full period at a seeded offset."""
    start = float(np.random.default_rng([seed, 1]).uniform(-math.pi, math.pi))
    return start, start + 2.0 * math.pi


def _valid_values(rng: np.random.Generator, mode: str) -> list[float]:
    s = float(rng.uniform(0.0, 1.0))
    edge = rng.uniform()
    if edge < 0.002:
        s = 0.0
    elif edge < 0.004:
        s = 1.0
    if mode == "scalar":
        return [float(rng.uniform(-4.0 * math.pi, 4.0 * math.pi)), s]
    return [float(v) for v in rng.uniform(-3.0, 3.0, 3)] + [float(v) for v in rng.uniform(-2.0, 2.0, 6)] + [s]


def _malformed_cells(rng: np.random.Generator, mode: str, kind: str) -> list[str]:
    values = _valid_values(rng, mode)
    cells = [num(v) for v in values]
    phase_cells = 1 if mode == "scalar" else 9
    if kind == "non_numeric":
        cells[int(rng.integers(len(cells)))] = str(rng.choice(NON_NUMERIC_TOKENS))
        return cells
    if kind == "field_count":
        if rng.uniform() < 0.5:
            return cells[:-1]
        return cells + [num(rng.uniform())]
    if kind == "s_out_of_range":
        above = rng.uniform() < 0.5
        cells[-1] = num(rng.uniform(1.0 + 1e-9, 2.0) if above else -rng.uniform(1e-9, 1.0))
        return cells
    if kind == "nonfinite_phase":
        cells[int(rng.integers(phase_cells))] = str(rng.choice(["inf", "-inf", "nan"]))
        return cells
    if kind == "quoted":
        k = int(rng.integers(len(cells)))
        if rng.uniform() < 0.5:
            cells[k] = '"' + cells[k].replace(".", ",", 1) + ',0"'  # embedded comma
        else:
            cells[k] = '"' + cells[k] + '""5"'  # embedded quote
        return cells
    raise ValueError(f"unknown malformed kind {kind!r}")


def make_ingest_input(path: Path, mode: str, rows: int, seed: int) -> IngestInput:
    """Write a seeded ingest file of `rows` data rows and return its tally."""
    header = SCALAR_HEADER if mode == "scalar" else VECTOR_HEADER
    rng = np.random.default_rng([seed, 2 if mode == "scalar" else 3])
    lines = [",".join(header)]
    accepted: list[list[float]] = []
    reject_lines: list[int] = []
    for index in range(rows):
        line_no = index + 2  # the header is line 1
        u = rng.uniform()
        if u < MALFORMED_SHARE:
            kind = MALFORMED_KINDS[int(u / MALFORMED_SHARE * len(MALFORMED_KINDS))]
            lines.append(",".join(_malformed_cells(rng, mode, kind)))
            reject_lines.append(line_no)
            continue
        values = _valid_values(rng, mode)
        cells = [num(v) for v in values]
        if u < MALFORMED_SHARE + VALID_QUOTED_SHARE:
            cells[0] = f'"{cells[0]}"'
        lines.append(",".join(cells))
        accepted.append(values)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return IngestInput(
        mode=mode,
        path=path,
        accepted=np.array(accepted, dtype=float).reshape(-1, len(header)),
        reject_lines=reject_lines,
    )
