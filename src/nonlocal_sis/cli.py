"""Command-line entry point: run a config-driven scenario and write reports.

Exit status is 0 only when every scenario assertion passed; module errors
are embedded in report.json and flip the status.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError
from .experiments import _parse_entries, make_config, run_scenario, write_report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nonlocal-sis",
        description="Run a scenario from a key=value config file.")
    parser.add_argument("--config", required=True, help="path to the config file")
    parser.add_argument("--out-dir", default=None,
                        help="output directory (overrides output.dir)")
    parser.add_argument("--scenario", default=None,
                        help="override the scenario named in the config")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the seed named in the config")
    args = parser.parse_args(argv)

    try:
        path = Path(args.config)
        entries = _parse_entries(path.read_text(encoding="utf-8"))
        overrides = {"scenario": args.scenario, "seed": args.seed}
        entries.update((k, v) for k, v in overrides.items() if v is not None)
        config = make_config(entries, path.parent)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"config error: {args.config} is not UTF-8 text: {exc}", file=sys.stderr)
        return 2

    out_dir = args.out_dir or config.get("output.dir") or "."
    report = run_scenario(config)
    try:
        paths = write_report(report, out_dir)
    except OSError as exc:
        print(f"failed to write report under {out_dir}: {exc}", file=sys.stderr)
        return 2

    for path in paths:
        print(path)
    if not report.ok:
        for err in report.errors:
            print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
