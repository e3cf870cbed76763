"""Command-line surface: quantifier sweeps, single-point reports, measured-data
ingestion, and the verification suite.

Exit codes: 0 success, 1 validation failure, 2 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import verify
from .quantifiers import (
    QUANTIFIER_FUNCTIONS,
    quantifier_table,
    susceptibility,
    witness_from_susceptibility,
)
from .scattering import scattering_phase, scattering_phases
from .spin_core import DimerModel, thermal_state
from .oracle import correlation_oracle

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2

QUANTIFIER_NAMES = tuple(QUANTIFIER_FUNCTIONS)

SCALAR_HEADER = ["x_rad", "S"]
VECTOR_HEADER = ["qx", "qy", "qz", "r1x", "r1y", "r1z", "r2x", "r2y", "r2z", "S"]
# Rows per chunk of the table writer: the unit one worker formats and one
# write() call writes. Chunks are formatted in one forked process per
# available CPU and written in order, so about one chunk per worker is in
# flight; on one CPU, or without fork, they are formatted in-process.
ROWS_PER_CHUNK = 2048


@dataclass(frozen=True)
class SweepConfig:
    x_from: float
    x_to: float
    samples: int
    quantifiers: tuple[str, ...]
    out: Path
    fmt: str

    def __post_init__(self):
        if not self.x_from < self.x_to:
            raise ValueError("--from must be strictly less than --to")
        if self.samples < 2:
            raise ValueError("--samples must be at least 2")
        if not self.quantifiers:
            raise ValueError("at least one quantifier must be requested")
        unknown = [q for q in self.quantifiers if q not in QUANTIFIER_NAMES]
        if unknown:
            raise ValueError(f"unknown quantifiers {unknown}; choose from {', '.join(QUANTIFIER_NAMES)}")
        if self.fmt not in ("csv", "json"):
            raise ValueError("format must be csv or json")


def _fmt(value: float) -> str:
    return f"{value:.17g}"


@contextmanager
def _replaced_on_success(path: Path):
    """Text handle on a sibling temp file that replaces `path` on a clean exit.

    On any exception the temp file is deleted and `path` is left as it was,
    so an interrupted run never leaves a half-written output.
    """
    tmp = path.parent / f".{path.name}.{os.urandom(4).hex()}.tmp"
    try:
        with tmp.open("x", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _csv_row(columns: int) -> str:
    """The row template of a CSV table of `columns` %.17g values."""
    return ",".join(["%.17g"] * columns) + "\n"


def _format_rows(chunk: np.ndarray, row: str, separator: str) -> str:
    """A 2-D float block as text: `row` % each row's values, joined by `separator`."""
    return separator.join([row] * len(chunk)) % tuple(chunk.ravel().tolist())


def _format_worker(chunks: list[np.ndarray], row: str, separator: str, conn) -> None:
    """Send each chunk formatted over `conn`, or the exception that stopped it."""
    try:
        for chunk in chunks:
            conn.send(_format_rows(chunk, row, separator))
    except Exception as exc:
        conn.send(exc)


def _write_rows(fh, table: np.ndarray, row: str, separator: str) -> None:
    """Write a 2-D float table as rows, ROWS_PER_CHUNK rows per write.

    Each row is the template `row` filled with that row's values; rows are
    joined by `separator`, which is also written between chunks.

    With w > 1 usable CPUs and more than one chunk, min(w, chunks) forked
    workers format the chunks, worker k taking chunks k, k + w, ...; they
    read `table` from the memory fork shares, and the parent writes chunk i
    as it arrives from worker i % w. A worker's exception is raised here.
    """
    chunks = [table[start:start + ROWS_PER_CHUNK] for start in range(0, len(table), ROWS_PER_CHUNK)]
    workers = min(len(os.sched_getaffinity(0)), len(chunks)) if hasattr(os, "sched_getaffinity") else 1
    if workers > 1:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers < 2:
        for i, chunk in enumerate(chunks):
            if i:
                fh.write(separator)
            fh.write(_format_rows(chunk, row, separator))
        return

    # A forked child flushes the std streams it inherited when it exits; the
    # fork context flushes them here before each fork, so text buffered
    # before the write is not written again. A child never flushes `fh`:
    # it leaves through os._exit.
    context = multiprocessing.get_context("fork")
    processes, receivers = [], []
    try:
        for k in range(workers):
            receiver, sender = context.Pipe(duplex=False)
            receivers.append(receiver)
            processes.append(context.Process(target=_format_worker, args=(chunks[k::workers], row, separator, sender)))
            processes[-1].start()
            # Only the worker holds the sending end, so its death reads as EOF.
            sender.close()
        for i in range(len(chunks)):
            try:
                text = receivers[i % workers].recv()
            except EOFError:
                raise RuntimeError(f"CSV formatting worker {i % workers} exited before sending chunk {i}") from None
            if isinstance(text, BaseException):
                raise text
            if i:
                fh.write(separator)
            fh.write(text)
    finally:
        for process in processes:
            process.terminate()
        for process in processes:
            process.join()
        for receiver in receivers:
            receiver.close()


def run_sweep(config: SweepConfig) -> None:
    xs = np.linspace(config.x_from, config.x_to, config.samples)
    table = np.column_stack([xs] + [QUANTIFIER_FUNCTIONS[name](xs) for name in config.quantifiers])
    names = ["x", *config.quantifiers]
    if config.fmt == "csv":
        head, row, separator, tail = ",".join(names) + "\n", _csv_row(len(names)), "", ""
    else:
        # The bytes of json.dumps(rows, indent=2) + "\n" for one dict per row:
        # %r is float.__repr__, which is what json's encoder prints, and every
        # value is finite (each column went through scalar_structure_factor's
        # check), so no NaN or Infinity can occur.
        head, separator, tail = "[\n", ",\n", "\n]\n"
        row = "  {\n" + ",\n".join(f"    {json.dumps(name)}: %r" for name in names) + "\n  }"
    with _replaced_on_success(config.out) as fh:
        fh.write(head)
        _write_rows(fh, table, row, separator)
        fh.write(tail)


def _cmd_sweep(args) -> int:
    scale = np.pi / 180.0 if args.degrees else 1.0
    config = SweepConfig(
        x_from=args.x_from * scale,
        x_to=args.x_to * scale,
        samples=args.samples,
        quantifiers=tuple(q.strip() for q in args.quantifiers.split(",") if q.strip()),
        out=Path(args.out),
        fmt=args.format,
    )
    run_sweep(config)
    return EXIT_OK


def build_point_report(x: float, coupling: float, g: float, temperature: float | None) -> dict:
    report = verify.closed_form_vs_oracle(x)
    if temperature is not None:
        model = DimerModel(coupling=coupling, g=g)
        chi = susceptibility(temperature, report["ReC"], model)
        thermal_correlation = correlation_oracle(thermal_state(model, temperature))
        report["thermal"] = {
            "coupling": coupling,
            "temperature": temperature,
            "g": g,
            "susceptibility": chi,
            "witness_from_susceptibility": witness_from_susceptibility(chi, temperature, model),
            "thermal_state_correlation": float(thermal_correlation[2]),
        }
    return report


def _format_report_text(report: dict) -> str:
    lines = [f"{'x':<17}= {_fmt(report['x'])}", f"{'x mod 2pi':<17}= {_fmt(report['x'] % (2.0 * np.pi))}"]
    lines += [f"{key:<17}= {_fmt(report[key])}" for key in QUANTIFIER_NAMES]
    lines.append("oracle (implied-state brute force):")
    for key, value in report["oracle"].items():
        lines.append(f"  {key:<22}= {_fmt(value)}")
    lines.append("closed form minus oracle:")
    for key, value in report["delta"].items():
        lines.append(f"  {key:<22}= {_fmt(value)}")
    lines.append("discord ratio (oracle / closed form):")
    for key, value in report["discord_ratio"].items():
        lines.append(f"  {key:<22}= {'n/a' if value is None else _fmt(value)}")
    if "thermal" in report:
        lines.append("thermal quantities:")
        for key, value in report["thermal"].items():
            lines.append(f"  {key:<26}= {_fmt(value)}")
    return "\n".join(lines)


def _parse_triple(text: str, name: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"{name} must be three comma-separated numbers")
    try:
        return np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ValueError(f"{name} must be numeric: {exc}") from None


def _cmd_report(args) -> int:
    if args.x is not None and args.q is not None:
        raise ValueError("give either --x or --q/--r1/--r2, not both")
    if args.x is not None:
        x = args.x * (np.pi / 180.0 if args.degrees else 1.0)
    elif args.q is not None:
        if args.r1 is None or args.r2 is None:
            raise ValueError("--q requires --r1 and --r2")
        x = scattering_phase(
            _parse_triple(args.q, "--q"),
            _parse_triple(args.r1, "--r1"),
            _parse_triple(args.r2, "--r2"),
        )
    else:
        raise ValueError("one of --x or --q/--r1/--r2 is required")

    report = build_point_report(x, args.coupling, args.g, args.temperature)
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(_format_report_text(report))
    return EXIT_OK


def _csv_line(cells: list[str]) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="").writerow(cells)
    return buffer.getvalue()


def _records(reader):
    """(file line the record starts on, cells) for each record of a csv.reader.

    A quoted cell may span lines, so the line comes from `reader.line_num`,
    not from counting records. A record csv cannot parse is a ValueError.
    """
    start = 1
    try:
        for row in reader:
            yield start, row
            start = reader.line_num + 1
    except csv.Error as exc:
        raise ValueError(f"unreadable CSV record on line {start}: {exc}") from None


def run_ingest(input_path: Path, mode: str, out_path: Path) -> tuple[int, int]:
    """Process a measured-data file; returns (accepted, rejected) counts.

    Accepted rows are echoed with the derived quantifiers appended; rejected
    rows go to `<out>.rejects.csv` with the file line their record starts on,
    the reason and the row's cells as one CSV-encoded field. A run without
    rejects removes any rejects file an earlier run left. A record the CSV
    parser cannot read (an over-long cell, say) fails the whole run before
    anything is written.
    """
    header = SCALAR_HEADER if mode == "scalar" else VECTOR_HEADER
    rejected: list[tuple[int, str, list[str]]] = []
    parsed_lines: list[int] = []
    parsed_cells: list[list[str]] = []
    values: list[float] = []
    with input_path.open(newline="", encoding="utf-8") as fh:
        records = _records(csv.reader(fh))
        _, first = next(records, (1, None))
        if first is None or [c.strip() for c in first] != header:
            raise ValueError(f"expected header {','.join(header)!r} in {mode} mode")
        for line_no, row in records:
            if len(row) != len(header):
                rejected.append((line_no, f"expected {len(header)} fields, got {len(row)}", row))
                continue
            try:
                row_values = [float(cell) for cell in row]
            except ValueError:
                rejected.append((line_no, "non-numeric field", row))
                continue
            values += row_values
            parsed_lines.append(line_no)
            parsed_cells.append(row)

    table = np.array(values, dtype=float).reshape(-1, len(header))
    s = table[:, -1]
    x = table[:, 0] if mode == "scalar" else scattering_phases(table[:, 0:3], table[:, 3:6], table[:, 6:9])
    phase_ok = np.isfinite(x)
    with np.errstate(invalid="ignore"):
        ok = phase_ok & (s >= 0.0) & (s <= 1.0)
    for k in np.flatnonzero(~ok).tolist():
        reason = "phase is not finite" if not phase_ok[k] else f"S = {float(s[k]):g} out of range [0, 1]"
        rejected.append((parsed_lines[k], reason, parsed_cells[k]))
    rejected.sort()  # by line number, which is unique

    derived = quantifier_table(x[ok], s[ok])
    echoed = [table[ok]] + ([x[ok]] if mode == "vector" else [])
    output = np.column_stack(echoed + list(derived.values()))
    out_header = list(header) + (["x_rad"] if mode == "vector" else []) + list(derived)
    rejects_path = out_path.with_name(out_path.name + ".rejects.csv")
    with _replaced_on_success(out_path) as fh:
        fh.write(",".join(out_header) + "\n")
        _write_rows(fh, output, _csv_row(output.shape[1]), "")
        # Inside the output's block: a failure while writing rejects discards the new output too.
        if rejected:
            with _replaced_on_success(rejects_path) as rejects_fh:
                writer = csv.writer(rejects_fh, lineterminator="\n")
                writer.writerow(["line", "reason", "row"])
                writer.writerows((line_no, reason, _csv_line(cells)) for line_no, reason, cells in rejected)
        else:
            rejects_path.unlink(missing_ok=True)
    return len(output), len(rejected)


def _cmd_ingest(args) -> int:
    accepted, rejected = run_ingest(Path(args.input), args.mode, Path(args.out))
    print(f"accepted {accepted} rows, rejected {rejected} rows")
    if rejected:
        print(f"rejects written to {args.out}.rejects.csv")
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = verify.run_all_checks()
    print(report.format_text())
    if args.json is not None:
        with _replaced_on_success(Path(args.json)) as fh:
            json.dump(report.as_dict(), fh, indent=2)
            fh.write("\n")
    return EXIT_OK if report.all_pass else EXIT_VALIDATION


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to the validation exit code, which
    takes every argument that starts like a negative number (-1,0.3,0.25,
    -1e-3 or -inf, not only argparse's own -1 and -.5) as a value, not an
    option, so the value's own check reports it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spindimer", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="tabulate quantifiers over a phase range")
    sweep.add_argument("--from", dest="x_from", type=float, default=0.0)
    sweep.add_argument("--to", dest="x_to", type=float, default=2.0 * np.pi)
    sweep.add_argument("--samples", type=int, default=1001)
    sweep.add_argument("--quantifiers", default=",".join(QUANTIFIER_NAMES), help="comma-separated subset of: " + ", ".join(QUANTIFIER_NAMES))
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--degrees", action="store_true", help="interpret --from/--to in degrees")
    sweep.set_defaults(func=_cmd_sweep)

    report = sub.add_parser("report", help="full quantifier/oracle report at one point")
    report.add_argument("--x", type=float, default=None, help="scattering phase in radians")
    report.add_argument("--q", default=None, help="scattering vector, e.g. 1.0,0.0,0.0")
    report.add_argument("--r1", default=None, help="first site position")
    report.add_argument("--r2", default=None, help="second site position")
    report.add_argument("--coupling", type=float, default=1.0)
    report.add_argument("--temperature", type=float, default=None)
    report.add_argument("--g", type=float, default=2.0)
    report.add_argument("--format", choices=("text", "json"), default="text")
    report.add_argument("--degrees", action="store_true", help="interpret --x in degrees")
    report.set_defaults(func=_cmd_report)

    ingest = sub.add_parser("ingest", help="derive quantifiers from measured structure factors")
    ingest.add_argument("--input", required=True)
    ingest.add_argument("--mode", choices=("scalar", "vector"), required=True)
    ingest.add_argument("--out", required=True)
    ingest.set_defaults(func=_cmd_ingest)

    verify_cmd = sub.add_parser("verify", help="run the oracle cross-validation suite")
    verify_cmd.add_argument("--json", default=None, help="also write a machine-readable summary here")
    verify_cmd.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
