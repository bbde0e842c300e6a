"""Command-line interface.

Subcommands: simulate, check, fit-rate, verify, preset.  Exit codes:
0 success, 1 invariant failure, 2 configuration error, 3 antipodal abort,
4 non-finite state.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import warnings
from dataclasses import asdict, replace

from . import __version__
from .admissibility import check_initial
from .config import load_config, save_config
from .diagnostics import fit_decay_rate
from .errors import AntipodalPair, ConfigError, NonFinite, SphereFlockError
from .integrator import simulate
from .output import (build_summary, json_text, read_frames_csv, write_frames_csv, write_json,
                     write_state_csv)
from .scenarios import PRESETS, build_scenario, preset_config
from .verify import run_all

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2
EXIT_ANTIPODAL = 3
EXIT_NONFINITE = 4


def _resolve_config(args):
    if getattr(args, "config", None):
        if getattr(args, "preset", None):
            raise ConfigError("give either --preset or --config, not both")
        return load_config(args.config)
    return preset_config(args.preset or "paper-sigma1")


def _apply_overrides(cfg, args):
    updates = {name: value for name, value in
               (("t_end", args.t_end), ("dt", args.dt), ("frame_stride", args.stride))
               if value is not None}
    sigma = cfg.sigma if args.sigma is None else args.sigma
    return replace(cfg, sigma=sigma, sim=replace(cfg.sim, **updates))


def _check_writable(paths) -> None:
    """Raise ConfigError unless each path can be written as a file: it is not a
    directory, its folder is a writable one, and no earlier path names the same
    file (compared after ``os.path.realpath``), which would overwrite it."""
    real = [os.path.realpath(path) for path in paths]
    for k, path in enumerate(paths):
        folder = os.path.dirname(path) or "."
        if os.path.isdir(path):
            raise ConfigError(f"cannot write {path}: it is a directory")
        if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
            raise ConfigError(f"cannot write {path}: {folder} is not a writable directory")
        if real[k] in real[:k]:
            raise ConfigError(f"cannot write {path}: {paths[real.index(real[k])]} "
                              "names the same file")


def _cmd_simulate(args) -> int:
    paths = [args.out, args.summary]
    if args.full_state:
        paths.insert(1, str(args.out) + ".state.csv")
    _check_writable(paths)  # before the scenario is built and stepped
    cfg = _apply_overrides(_resolve_config(args), args)
    scenario = build_scenario(cfg)
    args.n = scenario.ensemble.n  # for main's report of a MemoryError
    # the guarantee calculus needs sigma > 0; exploratory runs without
    # bonding still simulate, with the admissibility block omitted
    report = (check_initial(scenario.ensemble, scenario.params)
              if scenario.params.sigma > 0.0 else None)

    start = time.perf_counter()
    try:
        # a blow-up is reported once, as NonFinite, not as numpy's warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            trajectory = simulate(scenario.ensemble, scenario.params, scenario.sim)
    except (AntipodalPair, NonFinite) as exc:
        if exc.partial_trajectory is not None and exc.partial_trajectory.frames:
            write_frames_csv(args.out, exc.partial_trajectory)
            print(f"partial frames up to the abort -> {args.out}", file=sys.stderr)
        raise
    wall = time.perf_counter() - start

    fit = None
    try:
        fit = fit_decay_rate(trajectory.times, trajectory.series("d_x"), args.fit_window)
    except SphereFlockError as exc:
        print(f"rate fit skipped: {exc}", file=sys.stderr)

    write_frames_csv(args.out, trajectory)
    if args.full_state:
        write_state_csv(str(args.out) + ".state.csv", trajectory)

    n_steps = (len(trajectory.frames) - 1) * scenario.sim.frame_stride  # the steps integrated
    summary = build_summary(
        scenario.label, trajectory, fit,
        report.as_dict() if report is not None else None,
        runtime={"wall_time_s": wall, "n_steps": n_steps, "dt": scenario.sim.dt,
                 "n_frames": len(trajectory.frames),
                 "backend": "numpy",
                 "steps_per_s": n_steps / wall},
        adjustments={"position": scenario.position_adjustment,
                     "velocity": scenario.velocity_adjustment},
    )
    write_json(args.summary, summary)
    print(f"{scenario.label}: {len(trajectory.frames)} frames -> {args.out}; "
          f"summary -> {args.summary}")
    if fit is not None and report is not None:
        print(f"fitted rate {fit.rate:.6g} (r^2 {fit.r_squared:.6f}); "
              f"guaranteed delta {report.thresholds.delta:.6g}")
    return EXIT_OK


def _cmd_check(args) -> int:
    if args.out:
        _check_writable([args.out])
    cfg = _resolve_config(args)
    scenario = build_scenario(cfg)
    args.n = scenario.ensemble.n
    report = check_initial(scenario.ensemble, scenario.params)
    payload = {"label": scenario.label, **report.as_dict()}
    if args.out:
        write_json(args.out, payload)
    print(json_text(payload))
    return EXIT_OK


def _cmd_fit_rate(args) -> int:
    columns = read_frames_csv(args.csv)
    for name in ("t", args.column):
        if name not in columns:
            raise ConfigError(f"column {name!r} not in CSV (have {list(columns)})")
    fit = fit_decay_rate(columns["t"], columns[args.column], args.window)
    print(json_text({"column": args.column, **asdict(fit)}))
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = run_all()
    passed = sum(r.passed for r in results)
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
    print(f"{passed}/{len(results)} checks passed")
    return EXIT_OK if passed == len(results) else EXIT_INVARIANT


def _cmd_preset(args) -> int:
    cfg = preset_config(args.name)
    save_config(cfg, args.out)
    print(f"wrote {args.name} config to {args.out}")
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphereflock",
        description="Simulate bonded flocking on the unit sphere and check "
                    "the exponential-rendezvous admissibility condition.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate a scenario, emit frames CSV + summary JSON")
    sim.add_argument("--preset", choices=PRESETS)
    sim.add_argument("--config", help="path to a config file")
    sim.add_argument("--t-end", type=float, dest="t_end")
    sim.add_argument("--dt", type=float)
    sim.add_argument("--stride", type=int, help="steps between recorded frames")
    sim.add_argument("--sigma", type=float, help="override the bonding rate")
    sim.add_argument("--out", default="frames.csv")
    sim.add_argument("--summary", default="summary.json")
    sim.add_argument("--fit-window", type=float, nargs=2, metavar=("T0", "T1"))
    sim.add_argument("--full-state", action="store_true",
                     help="also dump per-agent positions to <out>.state.csv")
    sim.set_defaults(func=_cmd_simulate)

    chk = sub.add_parser("check", help="evaluate the initial-data admissibility condition")
    chk.add_argument("--preset", choices=PRESETS)
    chk.add_argument("--config")
    chk.add_argument("--out")
    chk.set_defaults(func=_cmd_check)

    fit = sub.add_parser("fit-rate", help="fit an exponential rate from an existing frames CSV")
    fit.add_argument("--csv", required=True)
    fit.add_argument("--window", type=float, nargs=2, metavar=("T0", "T1"))
    fit.add_argument("--column", default="D_x")
    fit.set_defaults(func=_cmd_fit_rate)

    ver = sub.add_parser("verify", help="run the built-in invariant suite")
    ver.set_defaults(func=_cmd_verify)

    pre = sub.add_parser("preset", help="write a named preset as a config file")
    pre.add_argument("--name", required=True, choices=PRESETS)
    pre.add_argument("--out", default="sphereflock.ini")
    pre.set_defaults(func=_cmd_preset)

    return parser


def _at(time) -> str:
    return f" at t = {time:g}" if time is not None else ""


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except AntipodalPair as exc:
        print(f"antipodal abort{_at(exc.time)}: {exc}", file=sys.stderr)
        return EXIT_ANTIPODAL
    except NonFinite as exc:
        print(f"non-finite state, last finite frame{_at(exc.time)}: {exc}", file=sys.stderr)
        return EXIT_NONFINITE
    except MemoryError as exc:  # numpy's, from the (n, n) tables of too large an ensemble
        print(f"config error: out of memory at n = {vars(args).get('n')}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SphereFlockError, OSError, ValueError) as exc:
        # anything rejected before stepping begins is a configuration problem
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
