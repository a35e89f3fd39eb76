"""Command-line driver: run check suites, compare result tables.

    igeolab run --config suite.ini [--seed N] [--jobs N]
    igeolab table results_a.csv [results_b.csv ...]
    igeolab list-checks

IGEOLAB_OUTPUT_DIR, when set and nonempty, overrides the configured output
directory.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from .config import ConfigError, check_names, describe_check, load_config
from .runner import CSV_COLUMNS, run_suite

__all__ = ["main"]

# the columns up to extra-params name a row; the table matches rows on them
_KEY_COLUMNS = CSV_COLUMNS[:CSV_COLUMNS.index("extra-params") + 1]
_TABLE_COLUMNS = _KEY_COLUMNS + ["ratio", "verdict"]


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return value


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="igeolab",
        description="run and compare integral-geometry check suites")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a configured suite")
    run_p.add_argument("--config", required=True, help="suite config file")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the configured master seed")
    run_p.add_argument("--jobs", type=_positive_int, default=1,
                       help="checks run at once, on threads of this "
                       "process (default 1)")

    table_p = sub.add_parser("table",
                             help="merge results.csv files into one table")
    table_p.add_argument("paths", nargs="+", help="results.csv paths")

    sub.add_parser("list-checks", help="list known check names")
    return parser.parse_args(argv)


def _cmd_run(args) -> int:
    try:
        config = load_config(
            args.config, seed_override=args.seed,
            output_override=os.environ.get("IGEOLAB_OUTPUT_DIR") or None)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        return run_suite(config, jobs=args.jobs)
    except OSError as exc:
        print(f"cannot write results to {config.output_dir}: {exc}",
              file=sys.stderr)
        return 1
    except MemoryError as exc:
        print("out of memory" + (f": {exc}" if str(exc) else ""),
              file=sys.stderr)
        return 1


def _read_rows(path):
    """The rows of a results.csv, none for an empty file; ValueError naming
    the columns that the table reads and the header lacks, or the first
    line short of them."""
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            return []
        missing = [c for c in _TABLE_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise ValueError(f"missing column {', '.join(missing)}")
        rows = []
        for row in reader:
            if any(row[c] is None for c in _TABLE_COLUMNS):
                raise ValueError(f"line {reader.line_num} has fewer fields "
                                 "than the header")
            rows.append(row)
        return rows


def _cmd_table(paths) -> int:
    per_file = []
    for path in paths:
        try:
            per_file.append({tuple(r[c] for c in _KEY_COLUMNS): r
                             for r in _read_rows(path)})
        except (OSError, ValueError, csv.Error) as exc:
            print(f"cannot read {path}: {exc}", file=sys.stderr)
            return 1
    order: list[tuple] = []
    seen = set()
    for rows in per_file:
        for key in rows:
            if key not in seen:
                seen.add(key)
                order.append(key)
    n_files = len(per_file)
    headers = list(_KEY_COLUMNS)
    for i in range(n_files):
        suffix = f"_{i + 1}" if n_files > 1 else ""
        headers += [f"ratio{suffix}", f"verdict{suffix}"]
    if n_files > 1:
        headers.append("ratio_delta")

    table = []
    for key in order:
        row = list(key)
        ratios = []
        for rows in per_file:
            hit = rows.get(key)
            if hit is None:
                row += ["", ""]
            else:
                row += [hit["ratio"], hit["verdict"]]
                try:
                    ratios.append(float(hit["ratio"]))
                except ValueError:
                    pass
        if n_files > 1 and len(ratios) > 1:
            # equal ratios differ by 0, infinite ones too (inf - inf is nan)
            low, high = min(ratios), max(ratios)
            row.append(repr(0.0 if low == high else high - low))
        elif n_files > 1:
            row.append("")
        table.append([str(c) for c in row])

    widths = [len(h) for h in headers]
    for row in table:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    print(fmt.format(*headers))
    for row in table:
        print(fmt.format(*row))
    print()
    print("\t".join(headers))
    for row in table:
        print("\t".join(row))
    return 0


def _cmd_list_checks() -> int:
    for name in check_names():
        print(f"{name}: {describe_check(name)}")
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "table":
        return _cmd_table(args.paths)
    return _cmd_list_checks()


if __name__ == "__main__":
    sys.exit(main())
