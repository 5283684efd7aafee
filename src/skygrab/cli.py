"""Command-line interface: scenario runs, Monte Carlo batches, config
validation, and plot emission.

Exit codes: 0 on success (for `run`, a captured mission), 1 on usage,
configuration, or input errors, 2 when the mission ends in timeout or
an invalid state. Outputs are a pure function of the arguments and
input files; nothing depends on the clock or the environment.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .engine import RUN_FIELDS, monte_carlo, run_scenario
from .logs import SimLog
from .plotting import PLOT_KINDS, render_plot, write_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISSION_FAILED = 2


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_USAGE


def _write_json(path: Path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _export_timeseries(log: SimLog, path: Path):
    """Control-rate CSV: time, truth positions, per-drone pose, command,
    phase, and the latest filtered ball pixel/range."""
    drones = [d["id"] for d in log.header["config"]["drones"]]
    header = ["t", "target_x", "target_y", "target_z", "ball_x", "ball_y", "ball_z"]
    for d in drones:
        header += [
            f"{d}_x", f"{d}_y", f"{d}_z", f"{d}_yaw", f"{d}_phase",
            f"{d}_cmd_vx", f"{d}_cmd_vy", f"{d}_cmd_vz", f"{d}_cmd_yaw_rate",
            f"{d}_ball_px_x", f"{d}_ball_px_y", f"{d}_ball_range",
        ]
    # In log order, every drone's vision record at step 0 and its command
    # record at a control tick come before that tick's state record.
    latest_track: dict = {}
    latest_cmd: dict = {}
    rows = []
    for r in log.records:
        kind = r["kind"]
        if kind == "vision":
            latest_track[r["drone"]] = r["tracks"]["ball"]
        elif kind == "command":
            latest_cmd[r["drone"]] = r
        elif kind == "state":
            row = [r["t"], *r["target"]["p"], *r["ball"]["p"]]
            for d in drones:
                ds, cmd, tb = r["drones"][d], latest_cmd[d], latest_track[d]
                c = cmd["cmd"]
                row += [*ds["p"], ds["yaw"], cmd["phase"], c["vx"], c["vy"], c["vz"], c["yaw_rate"]]
                row += [tb["x"], tb["y"], tb["r"]] if tb["status"] != "uninitialized" else ["", "", ""]
            rows.append(row)
    write_csv(path, header, rows)


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    out = Path(args.out) / f"{Path(args.config).stem}-seed{cfg.seed}"
    out.mkdir(parents=True, exist_ok=True)
    log = run_scenario(cfg)
    verdict = log.verdict_record
    log.write(out / "log.jsonl")
    summary = {k: v for k, v in verdict.items() if k != "kind"}
    _write_json(out / "summary.json", {**summary, "seed": cfg.seed})
    _export_timeseries(log, out / "timeseries.csv")
    print(f"verdict: {verdict['verdict']}  (log in {out})")
    return EXIT_OK if verdict["verdict"] == "captured" else EXIT_MISSION_FAILED


def cmd_montecarlo(args) -> int:
    cfg = load_config(args.config)
    seed_base = args.seed_base if args.seed_base is not None else cfg.seed
    cfg = cfg.with_seed(seed_base)
    if args.runs < 1:
        return _fail("--runs must be >= 1")
    if args.jobs < 1:
        return _fail("--jobs must be >= 1")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary = monte_carlo(cfg, args.runs, seed_base, n_jobs=args.jobs)
    write_csv(out / "verdicts.csv", RUN_FIELDS, [
        ["" if r[f] is None else r[f] for f in RUN_FIELDS] for r in summary["runs"]
    ])
    _write_json(out / "mc_summary.json", summary)
    print(
        f"runs: {summary['n_runs']}  captured: {summary['captured']}  "
        f"success_rate: {summary['success_rate']:.3f}"
    )
    return EXIT_OK


def cmd_plot(args) -> int:
    try:
        log = SimLog.read(args.log)
    except ValueError as e:  # includes json.JSONDecodeError
        return _fail(str(e))
    try:
        svg, sidecar = render_plot(args.kind, log, args.out)
    except ValueError as e:
        return _fail(f"{args.log}: {e}")
    print(f"wrote {svg} and {sidecar}")
    return EXIT_OK


def cmd_check(args) -> int:
    cfg = load_config(args.config)
    roles = ", ".join(f"{d.id}({d.role})" for d in cfg.drones)
    print(f"ok: {args.config}  drones: {roles}  duration: {cfg.duration}s  seed: {cfg.seed}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, with one ``error:`` line; subparsers inherit it."""

    def error(self, message):
        sys.exit(_fail(message))


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="skygrab",
        description="Deterministic multi-UAV aerial ball-capture simulation",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario and write its artifacts")
    run.add_argument("--config", required=True)
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--out", default="runs")
    run.set_defaults(func=cmd_run)

    mc = sub.add_parser("mc", help="run a seeded Monte Carlo batch")
    mc.add_argument("--config", required=True)
    mc.add_argument("--runs", type=int, required=True)
    mc.add_argument("--seed-base", type=int, default=None)
    mc.add_argument("--out", default="runs/mc")
    mc.add_argument("--jobs", type=int, default=1)
    mc.set_defaults(func=cmd_montecarlo)

    plot = sub.add_parser("plot", help="emit a figure (SVG + CSV sidecar) from a run log")
    plot.add_argument("--kind", required=True, choices=sorted(PLOT_KINDS))
    plot.add_argument("--log", required=True)
    plot.add_argument("--out", required=True)
    plot.set_defaults(func=cmd_plot)

    check = sub.add_parser("check", help="validate a scenario config")
    check.add_argument("--config", required=True)
    check.set_defaults(func=cmd_check)
    return p


def main(argv=None) -> int:
    """Run one command. A bad config, and a file or directory that cannot
    be read or written, exit 1 here with one message; an OSError names
    its file only when it carries one."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        return _fail(str(e))
    except OSError as e:
        return _fail(f"{e.filename}: {e.strerror}" if e.filename is not None else str(e))


if __name__ == "__main__":
    sys.exit(main())
