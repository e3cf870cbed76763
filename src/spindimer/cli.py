"""Command-line surface: quantifier sweeps, single-point reports, measured-data
ingestion, and the verification suite.

Exit codes: 0 success, 1 validation failure, 2 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import verify
from .csvfloat import format_csv, line_bounds, parse_csv
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
# The unit of work of `_ordered_map`, which runs jobs in one forked process
# per available CPU and takes their results in order, so about one job per
# worker is in flight; on one CPU, for one job, or without fork, the jobs
# run in-process. A sweep job evaluates and formats ROWS_PER_CHUNK phases;
# an ingest job parses, checks, evaluates and formats a slice of
# ROWS_PER_CHUNK input lines. Each result is written with one write() call.
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
        if not (np.isfinite(self.x_from) and np.isfinite(self.x_to)):
            raise ValueError("--from and --to must be finite")
        if not np.isfinite(self.x_to - self.x_from):
            raise ValueError("--to minus --from must be finite")
        if not self.x_from < self.x_to:
            raise ValueError("--from must be strictly less than --to")
        if self.samples < 2:
            raise ValueError("--samples must be at least 2")
        if not self.quantifiers:
            raise ValueError("at least one quantifier must be requested")
        unknown = [q for q in self.quantifiers if q not in QUANTIFIER_NAMES]
        if unknown:
            raise ValueError(f"unknown quantifiers {unknown}; choose from {', '.join(QUANTIFIER_NAMES)}")
        repeated = list(dict.fromkeys(q for i, q in enumerate(self.quantifiers) if q in self.quantifiers[:i]))
        if repeated:
            raise ValueError(f"repeated quantifiers {repeated}; name each column once")
        if self.fmt not in ("csv", "json"):
            raise ValueError("format must be csv or json")


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _print(text: str) -> None:
    """print(text), flushed. If the reader closed stdout, stdout's descriptor
    goes to os.devnull: the rest of the text, and the flush at exit, go nowhere."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


@contextmanager
def _replaced_on_success(path: Path):
    """Text handle on a temp file that replaces `path` on a clean exit.

    The temp file lies beside the file `path` resolves to, and replaces
    that file, so a symlink stays a link. An existing `path` that is
    neither a regular file nor a directory (a FIFO, a device) is refused
    before anything is written; a directory fails where it is replaced, as
    an I/O error. On any exception the temp file is deleted
    and `path` is left as it was, so an interrupted run never leaves a
    half-written output.
    """
    if path.exists() and not (path.is_file() or path.is_dir()):
        raise ValueError(f"output {path} is not a regular file")
    target = Path(os.path.realpath(path))
    tmp = target.parent / f".{target.name}.{os.urandom(4).hex()}.tmp"
    try:
        with tmp.open("x", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _map_worker(job, indices: range, conn) -> None:
    """Send (True, job(i)) for each i over `conn`, or (False, the exception that stopped it)."""
    try:
        for i in indices:
            conn.send((True, job(i)))
    except Exception as exc:
        conn.send((False, exc))


def _ordered_map(job, count: int, consume) -> None:
    """Call consume(i, job(i)) for i = 0, 1, ..., count - 1, in that order.

    With w > 1 usable CPUs and more than one job, min(w, count) forked
    workers run the jobs, worker k taking jobs k, k + w, ...: a job reads
    its input from the memory fork shares, so nothing is pickled on the way
    in, and its result comes back over a pipe. A job's exception is raised
    here in its place in the order, after consume has taken every earlier
    result; an exception from consume stops the workers. On one CPU, for
    one job, or where the platform has no fork, the jobs run in-process.
    A job must not read state that consume changes: forked, it would see
    that state as it was at the fork.
    """
    workers = min(len(os.sched_getaffinity(0)), count) if hasattr(os, "sched_getaffinity") else 1
    if workers > 1:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers < 2:
        for i in range(count):
            consume(i, job(i))
        return

    # A forked child flushes the std streams it inherited when it exits; the
    # fork context flushes them here before each fork, so text buffered
    # before the map is not written again. A child never flushes an output
    # file the parent has open: it leaves through os._exit.
    context = multiprocessing.get_context("fork")
    processes, receivers = [], []
    try:
        for k in range(workers):
            receiver, sender = context.Pipe(duplex=False)
            receivers.append(receiver)
            processes.append(context.Process(target=_map_worker, args=(job, range(k, count, workers), sender)))
            processes[-1].start()
            # Only the worker holds the sending end, so its death reads as EOF.
            sender.close()
        for i in range(count):
            try:
                done, result = receivers[i % workers].recv()
            except EOFError:
                raise RuntimeError(f"worker {i % workers} exited before sending chunk {i}") from None
            if not done:
                raise result
            consume(i, result)
    finally:
        for process in processes:
            process.terminate()
        for process in processes:
            process.join()
        for receiver in receivers:
            receiver.close()


def run_sweep(config: SweepConfig) -> None:
    xs = np.linspace(config.x_from, config.x_to, config.samples)
    names = ["x", *config.quantifiers]
    if config.fmt == "csv":
        head, separator, tail = ",".join(names) + "\n", "", ""
    else:
        # The bytes of json.dumps(rows, indent=2) + "\n" for one dict per row:
        # %r is float.__repr__, which is what json's encoder prints, and every
        # value is finite (each column went through scalar_structure_factor's
        # check), so no NaN or Infinity can occur.
        head, separator, tail = "[\n", ",\n", "\n]\n"
        row = "  {\n" + ",\n".join(f"    {json.dumps(name)}: %r" for name in names) + "\n  }"

    def job(i: int) -> str:
        chunk = xs[i * ROWS_PER_CHUNK:(i + 1) * ROWS_PER_CHUNK]
        columns = [QUANTIFIER_FUNCTIONS[name](chunk) for name in config.quantifiers]
        table = np.column_stack([chunk, *columns])
        if config.fmt == "csv":
            return format_csv(table)
        return separator.join([row] * len(table)) % tuple(table.ravel().tolist())

    def write(i: int, text: str) -> None:
        if i:
            fh.write(separator)
        fh.write(text)

    with _replaced_on_success(config.out) as fh:
        fh.write(head)
        _ordered_map(job, -(-config.samples // ROWS_PER_CHUNK), write)
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
    model = DimerModel(coupling=coupling, g=g)
    report = verify.closed_form_vs_oracle(x)
    if temperature is not None:
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
        width = max(map(len, report["thermal"]))
        for key, value in report["thermal"].items():
            lines.append(f"  {key:<{width}} = {_fmt(value)}")
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
    if args.x is not None and (args.q, args.r1, args.r2) != (None, None, None):
        raise ValueError("give either --x or --q/--r1/--r2, not both")
    if args.x is not None:
        x = args.x * (np.pi / 180.0 if args.degrees else 1.0)
    elif args.q is not None:
        if args.degrees:
            raise ValueError("--degrees applies to --x only")
        if args.r1 is None or args.r2 is None:
            raise ValueError("--q requires --r1 and --r2")
        x = scattering_phase(
            _parse_triple(args.q, "--q"),
            _parse_triple(args.r1, "--r1"),
            _parse_triple(args.r2, "--r2"),
        )
    elif args.r1 is not None or args.r2 is not None:
        raise ValueError("--r1 and --r2 require --q")
    else:
        raise ValueError("one of --x or --q/--r1/--r2 is required")

    report = build_point_report(x, args.coupling, args.g, args.temperature)
    _print(json.dumps(report, indent=2) if args.format == "json" else _format_report_text(report))
    return EXIT_OK


# csv writers whose "file" hands each row back: writerow returns the row's text.
_ROW_TEXT = csv.writer(SimpleNamespace(write=str), lineterminator="")
_REJECT_LINE = csv.writer(SimpleNamespace(write=str), lineterminator="\n")


def _ingest_slice(data: bytes, bounds: np.ndarray, first: int, last: int, mode: str) -> tuple[str, str, int, int]:
    """Ingest file lines first..last, line k being data[bounds[k - 1]:bounds[k]]
    (`csvfloat.line_bounds`), each line one record.

    `csvfloat.parse_csv` reads the records and their values. Returns the
    output rows as CSV text, the rejects as the CSV text of their
    line,reason,row lines in line order, the number of rejects and the
    number of accepted rows.
    """
    width = len(SCALAR_HEADER if mode == "scalar" else VECTOR_HEADER)
    records = parse_csv(data, bounds, first, last, width)
    numeric = np.flatnonzero(records.numeric)
    table = records.values[numeric]
    s = table[:, -1]
    x = table[:, 0] if mode == "scalar" else scattering_phases(table[:, 0:3], table[:, 3:6], table[:, 6:9])
    phase_ok = np.isfinite(x)
    with np.errstate(invalid="ignore"):
        ok = phase_ok & (s >= 0.0) & (s <= 1.0)
    reasons = {}
    for k in np.flatnonzero(~records.numeric).tolist():
        fields = int(records.fields[k])
        if records.open_quote[k]:
            reasons[k] = "quoted cell runs past the end of its line"
        else:
            reasons[k] = f"expected {width} fields, got {fields}" if fields != width else "non-numeric field"
    for k in np.flatnonzero(~ok).tolist():
        reasons[int(numeric[k])] = "phase is not finite" if not phase_ok[k] else f"S = {float(s[k]):g} out of range [0, 1]"
    rejects = "".join([
        _REJECT_LINE.writerow((first + k, reasons[k], _ROW_TEXT.writerow(records.cells(k))))
        for k in sorted(reasons)
    ])

    derived = quantifier_table(x[ok], s[ok])
    echoed = [table[ok]] + ([x[ok]] if mode == "vector" else [])
    output = np.column_stack(echoed + list(derived.values()))
    return format_csv(output), rejects, len(reasons), len(output)


def _write_ingest(fh, data: bytes, bounds: np.ndarray, mode: str) -> tuple[int, list[str], int]:
    """Ingest the lines after the header, line 1 of `data`, line k being
    data[bounds[k - 1]:bounds[k]], and write their rows to `fh` in order;
    returns (accepted count, the rejects' CSV text in line order, reject count).

    Each slice of ROWS_PER_CHUNK lines is one `_ingest_slice` job.
    """
    lines = len(bounds) - 1
    slices = [(a, min(a + ROWS_PER_CHUNK - 1, lines)) for a in range(2, lines + 1, ROWS_PER_CHUNK)]
    accepted, rejects, rejected = 0, [], 0

    def job(i: int) -> tuple[str, str, int, int]:
        return _ingest_slice(data, bounds, *slices[i], mode)

    def write(i: int, outcome: tuple[str, str, int, int]) -> None:
        nonlocal accepted, rejected
        text, reject_text, reject_count, count = outcome
        fh.write(text)
        accepted += count
        rejects.append(reject_text)
        rejected += reject_count

    _ordered_map(job, len(slices), write)
    return accepted, rejects, rejected


def run_ingest(input_path: Path, mode: str, out_path: Path) -> tuple[int, int]:
    """Process a measured-data file; returns (accepted, rejected) counts.

    Each line is one record. Accepted rows are echoed with the derived
    quantifiers appended; rejected rows go to `<out>.rejects.csv` with their
    file line, the reason and the row's cells as one CSV-encoded field. A
    line whose quoted cell is still open at its end is rejected, its cells
    read from that line alone. A run without rejects removes any rejects
    file an earlier run left. A `row` field can exceed csv's default
    131072-character field limit even when every cell of the input row
    fits, so reading the rejects file back may need `csv.field_size_limit`
    raised. Input that is not UTF-8, that holds a NUL byte, or a line the
    CSV parser cannot read (an over-long cell, say), fails the whole run and
    leaves the outputs as they were; so does an output or rejects path that
    is the input file, before it is read.

    The parent reads the input, indexes where its lines lie
    (`csvfloat.line_bounds`), checks it is UTF-8 without NUL bytes and
    checks the header, line 1. The lines after it are cut into slices of
    ROWS_PER_CHUNK lines, each read (`csvfloat.parse_csv`: lines whose quotes
    sit at cell edges by numpy and a decimal kernel, each other quoted line
    by csv.reader alone, undecided cells by float()), checked, evaluated and
    formatted as one `_ordered_map` job, so on more than one CPU in forked
    workers; a job also encodes its rejects, and the parent only writes the
    slices' text in order.
    """
    header = SCALAR_HEADER if mode == "scalar" else VECTOR_HEADER
    rejects_path = out_path.with_name(out_path.name + ".rejects.csv")
    for path in (out_path, rejects_path):
        if path.exists() and os.path.samefile(path, input_path):
            raise ValueError(f"output {path} is the input file")
    data = input_path.read_bytes()
    bounds = line_bounds(data)
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = np.searchsorted(bounds, exc.start, "right")
            raise ValueError(f"line {line} is not valid UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})") from None
    nul = data.find(b"\0")
    if nul >= 0:  # csv rejects it on some Pythons and reads it as a character on others
        raise ValueError(f"line {np.searchsorted(bounds, nul, 'right')} contains a NUL byte")
    head = parse_csv(data, bounds, 1, 1, len(header))
    if not len(head.fields) or head.open_quote[0] or [c.strip() for c in head.cells(0)] != header:
        bom = " (the file starts with a UTF-8 byte order mark)" if data.startswith(b"\xef\xbb\xbf") else ""
        raise ValueError(f"expected header {','.join(header)!r} in {mode} mode{bom}")

    out_header = ",".join([*header, *(["x_rad"] if mode == "vector" else []), *QUANTIFIER_NAMES[1:]]) + "\n"
    with _replaced_on_success(out_path) as fh:
        fh.write(out_header)
        accepted, rejects, rejected = _write_ingest(fh, data, bounds, mode)
        # Inside the output's block: a failure while writing rejects discards the new output too.
        if rejected:
            with _replaced_on_success(rejects_path) as rejects_fh:
                rejects_fh.write("line,reason,row\n")
                rejects_fh.writelines(rejects)
        else:
            rejects_path.unlink(missing_ok=True)
    return accepted, rejected


def _cmd_ingest(args) -> int:
    accepted, rejected = run_ingest(Path(args.input), args.mode, Path(args.out))
    _print(f"accepted {accepted} rows, rejected {rejected} rows")
    if rejected:
        _print(f"rejects written to {args.out}.rejects.csv")
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = verify.run_all_checks()
    _print(report.format_text())
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
