"""Command-line front end for Monte-Carlo campaigns and figure-data export.

Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import tempfile
from pathlib import Path

from . import campaign
from .campaign import (CampaignConfig, ConfigError, FIGURE_LAYOUTS, MissingAxisError,
                       RESULT_COLUMNS, TRAFFIC_COLUMNS, emit_figure_data, run_campaign,
                       run_traffic_profile, write_manifest, write_rows_csv,
                       write_rows_json)

DESK_SCALE = (50, 10)     # drops x fading used when nothing else is requested
FULL_SCALE = (500, 50)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="compbss",
        description="Downlink BSS-with-CoMP simulator: sweep campaigns and "
                    "figure-data export.",
    )
    p.add_argument("--config", metavar="PATH", help="campaign config file (YAML/JSON)")
    p.add_argument("--figure", metavar="TAG", choices=sorted(FIGURE_LAYOUTS),
                   help="also emit the data behind one figure tag")
    p.add_argument("--seed", type=int, metavar="N", help="master seed override")
    p.add_argument("--drops", type=int, metavar="N", help="user-location realizations")
    p.add_argument("--fading", type=int, metavar="N",
                   help="fading realizations per drop")
    p.add_argument("--out", metavar="PATH", help="output path for the tidy results")
    p.add_argument("--format", choices=("csv", "json"), help="result format")
    p.add_argument("--patterns", metavar="PATH", help="BSS pattern list file")
    p.add_argument("--comp", metavar="NAME",
                   help="CoMP configuration preset: none, C1, C2 or C3")
    p.add_argument("--full-scale", action="store_true",
                   help=f"use the full campaign scale "
                        f"({FULL_SCALE[0]} drops x {FULL_SCALE[1]} fading)")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="parallel worker processes, at most the usable cores (default 1)")
    return p


def _resolve_config(args) -> CampaignConfig:
    if args.config:
        cfg = CampaignConfig.from_file(args.config)
    else:
        cfg = CampaignConfig(n_drops=DESK_SCALE[0], n_fading=DESK_SCALE[1])
    if args.full_scale:
        cfg.n_drops, cfg.n_fading = FULL_SCALE
    if args.drops is not None:
        cfg.n_drops = args.drops
    if args.fading is not None:
        cfg.n_fading = args.fading
    if args.seed is not None:
        cfg.master_seed = args.seed
    if args.out is not None:
        cfg.output = args.out
    if args.format is not None:
        cfg.format = args.format
    if args.patterns is not None:
        cfg.pattern_file = args.patterns
    if args.comp is not None:
        cfg.comp_configs = [args.comp]
    # a copy re-runs every config check on the overridden values
    return dataclasses.replace(cfg)


def _check_writable(path: Path) -> None:
    """Refuse an output path that is a directory, or whose directory cannot
    be written or made.  Nothing is made here: the writers make the
    directory after the run."""
    try:
        if path.is_dir():
            raise IsADirectoryError("it is a directory")
        parent = path.absolute().parent
        if not parent.is_dir():
            # os.access passes root even where nothing can be made, as in
            # /proc, so a file is tried in the nearest existing ancestor
            while not parent.exists():
                parent = parent.parent
            tempfile.TemporaryFile(dir=parent).close()
        elif not os.access(parent, os.W_OK):
            raise PermissionError("no write permission")
    except OSError as exc:
        raise ConfigError(f"output location {path} is not writable: {exc}") from exc


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.jobs < 1:
            raise ConfigError(f"--jobs {args.jobs} must be >= 1")
        traffic_mode = bool(cfg.traffic_profile)
        if args.figure and (args.figure == "fig11") != traffic_mode:
            raise ConfigError(
                f"figure {args.figure} needs a config "
                f"{'with' if args.figure == 'fig11' else 'without'} traffic_profile")
        if traffic_mode:
            for flag, given in (("--drops", args.drops is not None),
                                ("--fading", args.fading is not None),
                                ("--full-scale", args.full_scale),
                                ("--jobs", args.jobs != 1)):
                if given:
                    raise ConfigError(f"{flag} does not apply to a config with "
                                      f"traffic_profile: its steps run in order in one "
                                      f"process, one drop and one fading draw each")
        # a process pool forks all its workers at once
        cores = campaign._usable_cores()
        if args.jobs > cores:
            raise ConfigError(f"--jobs {args.jobs} exceeds the {cores} usable cores")
        out = Path(cfg.output)
        manifest_path = out.with_name(out.stem + "_manifest.json")
        fig_path = out.with_name(f"{out.stem}_{args.figure}.csv")
        for path in [out, manifest_path] + ([fig_path] if args.figure else []):
            _check_writable(path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        if traffic_mode:
            result = run_traffic_profile(cfg)
            columns = TRAFFIC_COLUMNS
        else:
            result = run_campaign(cfg, jobs=args.jobs)
            columns = RESULT_COLUMNS
        if cfg.format == "json":
            write_rows_json(result.rows, out)
        else:
            write_rows_csv(result.rows, columns, out)
        write_manifest(result.manifest, manifest_path)
        print(f"wrote {len(result.rows)} rows to {out}")
        for note in result.notes:
            print(f"warning: {note}", file=sys.stderr)
        if args.figure:
            fig_cols, fig_rows = emit_figure_data(result.rows, args.figure)
            write_rows_csv(fig_rows, fig_cols, fig_path)
            print(f"wrote {len(fig_rows)} rows to {fig_path}")
        return 0
    except (ConfigError, MissingAxisError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
