"""Batch front end: read an instance config, run the analyses, print a report.

Exit codes: 0 = analyses completed (verdict content does not matter),
1 = usage, config or input error, sigma failing validation with any analysis
besides ``validate`` requested, or standard output closed before the report
was written (one line on stderr), 2 = internal oracle mismatch.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .cocycles import CocycleError
from .config import ConfigError, parse_config
from .groups.base import GroupError
from .oracle import OracleError, OracleMismatchError
from .report import run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kleppner",
        description="Exact decisions on twisted group algebra simplicity and "
                    "irreducibility of subalgebra inclusions.")
    parser.add_argument("--input", required=True, help="instance config file")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config's seed, which is only recorded in the report")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    path = Path(args.input)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 1
    try:
        config = parse_config(text, name=path.stem)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        report = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OracleMismatchError as exc:
        print(f"ORACLE MISMATCH: {exc}", file=sys.stderr)
        return 2
    except (OracleError, GroupError, CocycleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        print(report.to_json() if args.format == "json" else report.to_text())
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (e.g. `| head -1`); what is still buffered goes
        # to the null device, so the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed before the report was written",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
