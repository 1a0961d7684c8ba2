"""Command-line front end: beam patterns, radius bounds, codebooks, tracking runs, sweeps."""

from __future__ import annotations

import argparse
import sys
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np

from .beampattern import array_gain, peak_map
from .codebook import build_codebook
from .harness import (
    CONFIG_PARSERS,
    SWEEP_AXES,
    ScenarioConfig,
    _as_bool,
    _as_float,
    draw_frame,
    run_frame,
    scenario_from_file,
    sweep,
    write_table,
)
from .pairing import RadiusBounds, make_pairing, radius_bounds
from .physmodel import PrecoderConfig, SystemConfig, default_config


def _flag_type(parse):
    """argparse type that reads a flag with a harness parser; argparse names the flag when it raises."""
    def read_flag(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return read_flag


_finite_float = _flag_type(_as_float)


def _positive_float(text: str) -> float:
    """argparse type of a finite option that must be positive."""
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _count(text: str) -> int:
    """argparse type of a count: an integer of at least 1."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def _direction(text: str) -> float:
    """argparse type of a direction: a finite value in [-1, 1]."""
    value = _finite_float(text)
    if not -1 <= value <= 1:
        raise argparse.ArgumentTypeError(f"must lie in [-1, 1], got {text!r}")
    return value


# The config keys each command takes as flags: the system keys, every key a
# frame reads (all but the frame counts users and trials), or every key.
_SYSTEM_KEYS = tuple(f.name for f in fields(SystemConfig))
_FRAME_KEYS = tuple(key for key in CONFIG_PARSERS if key not in ("users", "trials"))


def _add_config_args(parser: argparse.ArgumentParser, keys):
    """``--config`` and one flag per config key, ``--`` + the key with ``_`` as ``-``, read by the key's parser."""
    parser.add_argument("--config", type=Path, help="key=value scenario/system file")
    for key in keys:
        flag = "--" + key.replace("_", "-")
        if CONFIG_PARSERS[key] is _as_bool:
            parser.add_argument(flag, dest=key, action="store_true", default=None)
            if key == "compensation":
                parser.add_argument("--no-compensation", dest=key, action="store_false")
        else:
            # every command that takes --seed requires it
            parser.add_argument(flag, dest=key, type=_flag_type(CONFIG_PARSERS[key]), required=key == "seed")


def _scenario(parser: argparse.ArgumentParser, args) -> ScenarioConfig | None:
    """The ``--config`` file with the config flags on top; None for a command without them.

    An unreadable file, a rejected value, a sweep whose axis key is empty, ``track --theta0`` beyond the
    centre cap, ``beam-pattern`` with one of ``--psi``/``--t``, a ``beam-pattern`` pairing interval that
    leaves [-1, 1] and ``track --trace`` without compensation are usage errors.
    """
    opts = vars(args)
    if "config" not in opts:
        return None
    flags = {key: value for key, value in opts.items() if key in CONFIG_PARSERS}
    axis_key = SWEEP_AXES.get(opts.get("axis"))
    center = opts.get("center")
    try:
        scn = scenario_from_file(args.config, flags)
        if axis_key and not getattr(scn, axis_key):
            raise ValueError(f"a {args.axis} sweep needs --{axis_key.replace('_', '-')} or a file's {axis_key}")
        cap = scn.center_cap
        if center is not None and not abs(center) <= cap:
            raise ValueError(f"argument --theta0: must lie in [-{cap:g}, {cap:g}], got {center!r}")
        # beam-pattern pairs [theta0 - alpha, theta0 + alpha] unless both slopes are given: plan_tracking's rule
        if "theta0" in opts and None in (args.psi, args.t):
            lo, hi = args.theta0 - args.alpha, args.theta0 + args.alpha
            if not abs(args.theta0) + args.alpha <= 1 + 1e-12:
                raise ValueError(f"arguments --theta0/--alpha: the searched interval [{lo:g}, {hi:g}] leaves [-1, 1]")
            if (args.psi, args.t) != (None, None):
                raise ValueError("arguments --psi/--t: give both slopes or neither")
        if opts.get("trace") is not None and not scn.compensation:
            raise ValueError("argument --trace: traces the refinement, which needs --compensation")
    except OSError as exc:
        parser.error(f"argument --config: {exc.strerror}: {exc.filename!r}")
    except ValueError as exc:
        parser.error(str(exc))
    return scn


def _save_csv(path: Path, header: list[str], rows) -> None:
    n_rows = write_table(path, header, rows)
    print(f"wrote {path} ({n_rows} rows)")


def _cmd_beam_pattern(args, scn: ScenarioConfig) -> int:
    cfg = scn.system
    if args.psi is not None:  # _scenario requires --t along with --psi
        pc = PrecoderConfig(args.psi, args.t)
        label = f"psi={args.psi} t={args.t}"
    else:
        pc = make_pairing(args.theta0, args.alpha, cfg)
        label = f"{pc.mode} pairing theta0={args.theta0} alpha={args.alpha}"
    if args.peaks_only:
        pm = peak_map(pc, cfg, grid_step=args.grid_step)
        rows = [
            (int(m), float(f), float(th), float(g))
            for m, f, th, g in zip(pm.m_indices, cfg.frequencies, pm.angles, pm.gains)
        ]
    else:
        thetas = np.arange(-1.0, 1.0 + args.grid_step / 2, args.grid_step)
        rows = []
        for m, f in zip(cfg.m_indices, cfg.frequencies):
            gains = array_gain(f, thetas, pc, cfg)
            rows.extend((int(m), float(f), float(th), float(g)) for th, g in zip(thetas, gains))
    print(f"beam pattern for {label}")
    _save_csv(args.out, ["m", "f_m", "theta", "gain"], rows)
    return 0


def _cmd_bounds(args, scn: ScenarioConfig) -> int:
    cfg = scn.system
    thetas = np.linspace(args.theta_min, args.theta_max, args.points)
    rows = [(float(t), *astuple(radius_bounds(float(t), cfg, include_extra=args.include_extra))) for t in thetas]
    _save_csv(args.out, ["theta0"] + [f.name for f in fields(RadiusBounds)], rows)
    return 0


def _cmd_codebook(args, scn: ScenarioConfig) -> int:
    cfg = scn.system
    cb = build_codebook(cfg)
    rows = []
    for i, v in enumerate(cb.psi_grid.values):
        rows.append((i, "psi", float(v), "inner"))
    coarse = 2.0 / cfg.p
    for i, v in enumerate(cb.t_grid.values):
        if v < -1.0:
            seg = "outer-"
        elif v > 1.0:
            seg = "outer+"
        else:
            seg = "inner"
        rows.append((i, "t", float(v), seg))
    _save_csv(args.out, ["index", "psi_or_t", "value", "segment"], rows)
    print(
        f"psi codewords: {len(cb.psi_grid.values)}, t codewords: {len(cb.t_grid.values)}, "
        f"t range [{cb.t_grid.values[0]:.6g}, {cb.t_grid.values[-1]:.6g}], coarse step {coarse:.6g}"
    )
    return 0


def _cmd_track(args, scn: ScenarioConfig) -> int:
    # the frame reads the first entry of each list key; say which entries it leaves out
    for key in SWEEP_AXES.values():
        entries = getattr(scn, key)
        if len(entries) > 1:
            print(f"track: {key} lists {len(entries)} entries; ran only {key} = {entries[0]!r}", file=sys.stderr)
    trace: list = []
    frame = run_frame(scn, draw_frame(scn, 0, 0), center=args.center, trace=trace)
    plan, est, rec, state = frame.obs.plan, frame.estimate, frame.record, frame.state
    print(
        f"tracking theta_r={rec.theta_r:.6f} over [{plan.theta0 - plan.alpha:.4f}, "
        f"{plan.theta0 + plan.alpha:.4f}], L={plan.slots}"
    )
    for i, pc in enumerate(plan.pairings, start=1):
        print(
            f"  slot {i}: center {pc.theta0:+.4f} mode {pc.mode:8s} psi {pc.psi:+.6f} "
            f"t {pc.t_aux:+.6f}{'  [over bound]' if pc.over_bound else ''}"
        )
    print(f"strongest cell: slot {est.l_hat}, subcarrier {est.m_hat:+d}")
    print(f"coarse estimate {est.theta_hat:+.6f} (error {est.theta_hat - rec.theta_r:+.3e})")
    if rec.degenerate:
        print("refinement degenerate (every slot response vanished): kept the coarse estimate")
    elif state is not None:
        print(
            f"refined estimate {state.theta:+.6f} (error {state.theta - rec.theta_r:+.3e}, "
            f"residual {state.residual:.4e}, {state.iterations} iterations)"
        )
        if args.trace:
            _save_csv(args.trace, ["iteration", "theta", "g", "residual"], trace)
    print(f"beamforming gain at estimate: {rec.gain:.4f}")
    if args.dump_y:
        header = ["slot"] + [f"m{int(m):+d}" for m in scn.system.m_indices]
        rows = [[l + 1] + [float(a) for a in np.abs(frame.obs.y[l])] for l in range(plan.slots)]
        _save_csv(args.dump_y, header, rows)
    return 0


def _cmd_sweep(args, scn: ScenarioConfig) -> int:
    report = sweep(scn, args.axis)
    report.write_csv(args.out)
    if args.full:
        report.write_json(args.full)
        print(f"wrote {args.full}")
    for row in report.rows:
        print(
            f"  {args.axis}={row['value']}: nmse {row['nmse_db']:+.2f} dB, "
            f"gain {row['mean_gain']:.3f} ({row['n_records']} records)"
        )
    return 0


def _cmd_validate(args, scn) -> int:
    from . import checks
    from .pairing import fixed_radius, forward_bound, large_angle_bound

    cfg = default_config()
    cfg2 = SystemConfig(n_bs=256, n_ttd=16, p=16, f_c=100e9, bandwidth=12.5e9, m_half=64)
    pairing = make_pairing(0.6, 0.04, cfg)
    on_grid, off_grid = checks.recovery_errors()
    scn = ScenarioConfig(system=cfg, users=1, trials=5, seed=11, snr_db=(0.0, 10.0), slots=(2,))
    runs = [sweep(scn, "snr").rows for _ in range(2)]
    # (label, measured error, bound); a check passes when its error is within the bound
    table = [
        ("closed-form gain matches inner product (200 draws)", checks.gain_oracle_error(200, 20240811), 1e-9),
        ("forward radius at 0.95 equals 0.003125", abs(forward_bound(0.95, cfg2) - 0.003125), 1e-12),
        ("large-angle radius near 0.1502", abs(large_angle_bound(1.0, cfg) - 0.150157), 5e-4),
        ("fixed radius equals 0.0625", abs(fixed_radius(cfg) - 0.0625), 0.0),
        ("peak map matches angle map (backward pairing)", checks.angle_map_deviation(pairing, 2e-4), 2e-4 + 1e-9),
        ("angle gradient matches finite differences", checks.gradient_error(5), 1e-5),
        ("noiseless on-grid recovery is exact", on_grid, 1e-12),
        ("noiseless off-grid refinement below 1e-6", off_grid, 1e-6),
        ("sweeps are bit-reproducible", float(runs[0] != runs[1]), 0.0),
    ]
    ok = True
    for label, err, bound in table:
        passed = err <= bound
        ok &= passed
        print(f"[{'PASS' if passed else 'FAIL'}] {label}" + ("" if passed else f": error {err:.2e} > {bound:.2e}"))
    print("all checks passed" if ok else "validation FAILED")
    return 0 if ok else 1


def _beam_pattern_args(p: argparse.ArgumentParser):
    _add_config_args(p, _SYSTEM_KEYS)
    p.add_argument("--theta0", type=_finite_float, default=0.6)
    p.add_argument("--alpha", type=_positive_float, default=0.05)
    p.add_argument("--psi", type=_finite_float)
    p.add_argument("--t", type=_finite_float)
    p.add_argument("--grid-step", type=_positive_float, default=2e-3)
    p.add_argument("--peaks-only", action="store_true")
    p.add_argument("--out", type=Path, required=True)


def _bounds_args(p: argparse.ArgumentParser):
    _add_config_args(p, _SYSTEM_KEYS)
    p.add_argument("--theta-min", type=_direction, default=-1.0)
    p.add_argument("--theta-max", type=_direction, default=1.0)
    p.add_argument("--points", type=_count, default=81)
    p.add_argument("--include-extra", action="store_true")
    p.add_argument("--out", type=Path, required=True)


def _codebook_args(p: argparse.ArgumentParser):
    _add_config_args(p, _SYSTEM_KEYS)
    p.add_argument("--out", type=Path, required=True)


def _track_args(p: argparse.ArgumentParser):
    _add_config_args(p, _FRAME_KEYS)
    p.add_argument("--theta0", type=_finite_float, dest="center", metavar="THETA0", help="search centre")
    p.add_argument("--trace", type=Path, help="CSV of refinement iterations")
    p.add_argument("--dump-y", type=Path, dest="dump_y", help="CSV heatmap of |Y|")


def _sweep_args(p: argparse.ArgumentParser, axis: str):
    _add_config_args(p, CONFIG_PARSERS)
    p.add_argument("--axis", choices=list(SWEEP_AXES), default=axis)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--full", type=Path, help="also write per-trial records as JSON")


# name: (help, adds the command's arguments, handler)
_COMMANDS = {
    "beam-pattern": ("emit per-subcarrier gain surfaces as CSV", _beam_pattern_args, _cmd_beam_pattern),
    "bounds": ("tabulate all searching-radius bounds over a theta grid", _bounds_args, _cmd_bounds),
    "codebook": ("dump the joint codeword grids as CSV", _codebook_args, _cmd_codebook),
    "track": ("run one tracking frame with a verbose trace", _track_args, _cmd_track),
    "sweep-nmse": ("Monte Carlo sweep (default axis: snr)", lambda p: _sweep_args(p, "snr"), _cmd_sweep),
    "sweep-gain": ("Monte Carlo sweep (default axis: theta)", lambda p: _sweep_args(p, "theta"), _cmd_sweep),
    "validate": ("run the built-in oracle/property checks", lambda p: None, _cmd_validate),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``thztrack`` parser.

    With a known ``command`` only that subcommand is built, which is all a
    call needs; otherwise every subcommand is, so that help and usage errors
    list them all.
    """
    # allow_abbrev=False: a prefix of a flag is not a second spelling of it
    parser = argparse.ArgumentParser(prog="thztrack", description=__doc__, allow_abbrev=False)
    # the usage line names every command whichever subparsers are built
    sub = parser.add_subparsers(dest="command", required=True, metavar="{" + ",".join(_COMMANDS) + "}")
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    for name in names:
        help_text, add_arguments, handler = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        add_arguments(p)
        p.set_defaults(func=handler, subparser=p)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        # the invoked command's usage, where parse_args would print the top-level one
        args.subparser.error(f"unrecognized arguments: {' '.join(unknown)}")
    return args.func(args, _scenario(args.subparser, args))


if __name__ == "__main__":
    sys.exit(main())
