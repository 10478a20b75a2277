"""Command-line interface.

Subcommands: keygen (write a mock key file), run (single experiment),
sweep (noise-model comparison runs), adev (analyze an external CSV
series), linkbudget (channel feasibility report).

Exit codes: 0 success, 2 configuration error (also arithmetic overflow),
3 key exhaustion, 4 I/O error.
"""
from __future__ import annotations

import argparse
import re
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np

from .config import (
    MAX_STEPS,
    ExperimentConfig,
    build_experiment_config,
    load_config_file,
    parse_overrides,
)
from .experiment import calibration_window, emit_outputs, run_experiment, sweep_noise_models
from .keys import KeyExhaustedError, mock_qkd_source, save_keys
from .linkbudget import ChannelParams, feasibility_report, report_csv, report_text
from .stability import TimeErrorSeries, overlapping_adev, require_adev_interval
from .tables import read_decimal_table, write_text

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_KEY_EXHAUSTED = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timecloak",
        description="Simulate and analyze key-encrypted time dissemination.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    keygen = sub.add_parser("keygen", help="write a deterministic mock key file")
    keygen.set_defaults(handler=_cmd_keygen)
    keygen.add_argument("--seed", type=int, required=True)
    keygen.add_argument("--digits", type=int, required=True, help="number of hex digits")
    keygen.add_argument("--out", required=True, help="output key file path")

    run = sub.add_parser("run", help="run one round-trip experiment")
    run.set_defaults(handler=_cmd_run)
    sweep = sub.add_parser("sweep", help="run the noise-model comparison sweep")
    sweep.set_defaults(handler=_cmd_sweep)
    for command in (run, sweep):
        command.add_argument("--config", help="config file (flat key = value lines)")
        command.add_argument(
            "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )
    run.add_argument("--out", required=True, help="output directory")

    sweep.add_argument(
        "--kinds",
        default="rw,rw_lag,rw_mem",
        help="comma-separated noise kinds (default: rw,rw_lag,rw_mem)",
    )
    sweep.add_argument("--bounded", choices=("yes", "no", "both"), default="both")
    sweep.add_argument("--out", required=True, help="output directory")

    adev = sub.add_parser("adev", help="Allan deviation of an external CSV series")
    adev.set_defaults(handler=_cmd_adev)
    adev.add_argument("--input", required=True, help="CSV file with a header row")
    adev.add_argument(
        "--value-column", default="error_ns", help="column holding the time errors (ns)"
    )
    adev.add_argument(
        "--tau0",
        type=float,
        help="sampling interval in seconds (default: inferred from a time_s column)",
    )
    adev.add_argument("--out", help="write the curve CSV here instead of stdout")

    budget = sub.add_parser("linkbudget", help="channel feasibility report")
    budget.set_defaults(handler=_cmd_linkbudget)
    # each option sets the ChannelParams field its dest names; one left out keeps the default
    field = {"type": float, "default": argparse.SUPPRESS}
    budget.add_argument("--loss-db", dest="loss_db", metavar="LOSS_DB", **field)
    budget.add_argument("--efficiency", dest="det_efficiency", metavar="EFFICIENCY", **field)
    budget.add_argument("--dark-cps", dest="dark_rate_cps", metavar="DARK_CPS", **field)
    budget.add_argument("--background-cps", dest="background_rate_cps", metavar="BACKGROUND_CPS", **field)
    budget.add_argument("--rep-rate-hz", dest="rep_rate_hz", metavar="REP_RATE_HZ", **field)
    budget.add_argument("--mu", dest="mean_photon_mu", metavar="MU", **field)
    budget.add_argument("--dead-time-us", dest="dead_time_s", metavar="DEAD_TIME_US", **field)
    budget.add_argument("--csv", help="also write the report as CSV to this path")

    return parser


def _config_from_args(args) -> ExperimentConfig:
    mapping: dict[str, str] = {}
    if args.config:
        mapping.update(load_config_file(args.config))
    mapping.update(parse_overrides(args.overrides))
    return build_experiment_config(mapping)


def _cmd_keygen(args) -> int:
    if args.digits < 1:
        raise ValueError(f"--digits must be > 0, got {args.digits}")
    if args.digits > 3 * MAX_STEPS:  # 3 digits per walk step: the most one run can take
        raise ValueError(f"--digits must be <= {3 * MAX_STEPS}, got {args.digits}")
    stream = mock_qkd_source(args.seed, args.digits)
    save_keys(stream, args.out)
    print(f"wrote {args.digits} hex digits to {args.out}")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = _config_from_args(args)
    result = run_experiment(config)
    written = emit_outputs(result, args.out)
    if config.calib_window_steps > 0:
        bias = calibration_window(result)
        print(f"calibration bias estimate: {bias:.4f} ns")
    print(f"adev ratio at tau0: {result.summary.adev_ratio_tau0:.3g}")
    print(f"wrote {len(written)} files to {args.out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = _config_from_args(args)
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    if not kinds:
        raise ValueError("--kinds must name at least one noise kind")
    bounded_options = {"yes": (True,), "no": (False,), "both": (False, True)}[args.bounded]
    results = sweep_noise_models(config, kinds, bounded_options)
    out = Path(args.out)
    for (kind, bounded), result in results.items():
        label = "bounded" if bounded else "unbounded"
        emit_outputs(result, out / f"{kind}_{label}")
        print(
            f"{kind} {label}: tic2 slope {result.summary.tic2_slope:.3f}, "
            f"adev ratio {result.summary.adev_ratio_tau0:.3g}"
        )
    print(f"wrote {len(results)} runs to {args.out}")
    return EXIT_OK


def _read_series(path: str, value_column: str, tau0: float | None) -> TimeErrorSeries:
    """The value column of a CSV as a series; tau0 is inferred from time_s if None.
    The interval must be finite, > 0 and fit an Allan deviation; an error
    names --tau0 or the time_s step.

    The header is the first non-blank line, with a leading '#' dropped (the
    commented header np.savetxt writes). Only the needed columns are parsed.
    A named file of plain decimal cells of up to 8 bytes, such as a counter's
    -0.059, is read by tables.read_decimal_table, which gives np.loadtxt's
    table bit for bit. Any other named file goes to np.loadtxt by absolute
    path, one whose first data row is not plain after that row alone; a pipe
    or a name numpy would decompress goes to np.loadtxt as the handle's
    lines, read once. np.loadtxt skips blank lines and '#' comments and
    rejects an empty or non-numeric cell. Its error counts data rows only, so
    the message names the file line instead, found by _first_rejected_line.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for header_lines, line in enumerate(fh, 1):
                header = line.strip().removeprefix("#").strip()
                if header:
                    break
            else:
                raise ValueError(f"{path}: expected a CSV header row")
            names = [name.strip() for name in header.split(",")]
            if value_column not in names:
                raise ValueError(f"{path}: no column {value_column!r} (has {', '.join(names)})")
            columns = [names.index(value_column)]
            if tau0 is None:
                if "time_s" not in names:
                    raise ValueError("--tau0 is required when the CSV has no time_s column")
                columns.append(names.index("time_s"))
            reopen = fh.seekable() and not path.endswith((".gz", ".bz2", ".xz", ".lzma"))
            with warnings.catch_warnings():
                # a table without rows is reported below, not as a warning
                warnings.simplefilter("ignore", UserWarning)
                try:
                    lines = None if reopen else fh.readlines()  # a pipe cannot be read twice
                    table = read_decimal_table(path, header_lines, columns) if reopen else None
                    if table is None:
                        source, skip = (Path(path).absolute(), header_lines) if reopen else (lines, 0)
                        table = np.loadtxt(
                            source, delimiter=",", usecols=columns, ndmin=2, skiprows=skip,
                            encoding="utf-8",
                        )
                except UnicodeDecodeError:
                    raise  # a ValueError too, but not a bad cell
                except ValueError as exc:
                    if reopen:  # reading past the bad cell may meet bytes that are not UTF-8
                        fh.seek(0)
                        lines = fh.readlines()[header_lines:]
                    line_no = header_lines + 1 + _first_rejected_line(lines, columns)
                    reason = re.sub(r" at row \d+", "", str(exc))
                    raise ValueError(f"{path}: line {line_no}: {reason}") from None
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not UTF-8 text") from None
    name = "--tau0"
    if tau0 is None:
        if len(table) < 2:
            raise ValueError("need at least two rows to infer tau0")
        first, second = table[:2, 1].tolist()
        name, tau0 = "the time_s step", second - first
    require_adev_interval(tau0, name, len(table))
    try:
        return TimeErrorSeries(table[:, 0], tau0)
    except ValueError:  # tau0 passed above, so the column holds a nan or inf
        message = f"{path}: column {value_column!r} must be finite (no NaN or inf)"
        raise ValueError(message) from None


def _first_rejected_line(lines: list[str], columns: list[int]) -> int:
    """Index of the first of lines that np.loadtxt rejects, given that it
    rejects one. Whether a line is rejected depends on that line alone, so
    halving the range that holds it takes about one more pass over lines."""
    lo, hi = 0, len(lines)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            np.loadtxt(lines[lo:mid], delimiter=",", usecols=columns, ndmin=2)
        except ValueError:
            hi = mid
        else:
            lo = mid
    return lo


def _cmd_adev(args) -> int:
    series = _read_series(args.input, args.value_column, args.tau0)
    curve = overlapping_adev(series)
    if args.out:
        write_text(args.out, curve.csv_text())
        print(f"wrote {len(curve)} points to {args.out}")
    else:
        print(curve.csv_text(), end="")
    return EXIT_OK


def _cmd_linkbudget(args) -> int:
    if "dead_time_s" in args:  # given in microseconds
        args.dead_time_s /= 1e6
    params = ChannelParams(**{f.name: getattr(args, f.name) for f in fields(ChannelParams) if f.name in args})
    report = feasibility_report(params)
    print(report_text(report))
    if args.csv:
        write_text(args.csv, report_csv(report))
    return EXIT_OK


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # "--set VALUE" as "--set=VALUE": argparse would take a value led by "-" for an option
    while "--set" in argv[:-1]:
        i = argv.index("--set")
        argv[i : i + 2] = [f"--set={argv[i + 1]}"]
    args = _build_parser().parse_args(argv)
    try:
        # numpy overflow raises FloatingPointError, an ArithmeticError, as Python's does
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.handler(args)
    except (KeyExhaustedError, OSError, ValueError, ArithmeticError) as exc:
        # the last two: invalid configuration or input, and finite inputs whose arithmetic overflows
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, KeyExhaustedError):
            return EXIT_KEY_EXHAUSTED
        return EXIT_IO if isinstance(exc, OSError) else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
