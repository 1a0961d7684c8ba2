"""Command-line front end: beam patterns, radius bounds, codebooks, tracking runs, sweeps."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .beampattern import angle_map, array_gain, peak_map
from .codebook import build_codebook, snap
from .harness import (
    CONFIG_KEYS,
    SCHEMES,
    ScenarioConfig,
    beamforming_gain,
    load_key_values,
    scenario_from_mapping,
    sweep,
    write_table,
)
from .leakage import build_cpr_problem, objective, objective_gradient, refine, CprState
from .pairing import make_pairing, radius_bounds
from .physmodel import (
    PathComponent,
    PrecoderConfig,
    SubcarrierGrid,
    SystemConfig,
    channel_response,
    default_config,
)
from .tracker import coarse_estimate, plan_tracking, run_tracking


def _add_system_args(parser: argparse.ArgumentParser):
    parser.add_argument("--config", type=Path, help="key=value scenario/system file")
    parser.add_argument("--n-bs", type=int, dest="n_bs")
    parser.add_argument("--n-ttd", type=int, dest="n_ttd")
    parser.add_argument("--p", type=int, dest="p")
    parser.add_argument("--f-c", type=float, dest="f_c")
    parser.add_argument("--bandwidth", type=float, dest="bandwidth")
    parser.add_argument("--m-half", type=int, dest="m_half")


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def _add_scenario_args(parser: argparse.ArgumentParser, require_seed: bool):
    _add_system_args(parser)
    parser.add_argument("--users", type=int)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--zeta-max", type=float, dest="zeta_max")
    parser.add_argument("--scheme", choices=SCHEMES)
    parser.add_argument("--compensation", action="store_true", default=None)
    parser.add_argument("--no-compensation", dest="compensation", action="store_false")
    parser.add_argument("--codebook", action="store_true", default=None)
    parser.add_argument("--snr-db", type=_float_list, dest="snr_db", metavar="LIST")
    parser.add_argument("--slots-list", type=_int_list, dest="slots", metavar="LIST")
    parser.add_argument("--theta-grid", type=_float_list, dest="theta_grid", metavar="LIST")
    parser.add_argument("--gain-sigma", type=float, dest="gain_sigma")
    parser.add_argument("--mobility")
    parser.add_argument("--seed", type=int, required=require_seed)


def _scenario_from_args(args) -> ScenarioConfig:
    """Scenario from the ``--config`` file, with every given flag on top."""
    data = load_key_values(args.config) if args.config else {}
    data.update({k: getattr(args, k) for k in CONFIG_KEYS if getattr(args, k, None) is not None})
    return scenario_from_mapping(data)


def _save_csv(path: Path, header: list[str], rows) -> None:
    n_rows = write_table(path, header, rows)
    print(f"wrote {path} ({n_rows} rows)")


def _cmd_beam_pattern(args) -> int:
    cfg = _scenario_from_args(args).system
    if args.psi is not None and args.t is not None:
        pc = PrecoderConfig(args.psi, args.t)
        label = f"psi={args.psi} t={args.t}"
    else:
        pairing = make_pairing(args.theta0, args.alpha, cfg)
        pc = PrecoderConfig(pairing.psi, pairing.t_aux)
        label = f"{pairing.mode} pairing theta0={args.theta0} alpha={args.alpha}"
    grid = SubcarrierGrid.from_config(cfg)
    if args.peaks_only:
        pm = peak_map(pc, cfg, grid_step=args.grid_step)
        rows = [
            (int(m), float(f), float(th), float(g))
            for m, f, th, g in zip(pm.m_indices, grid.frequencies, pm.angles, pm.gains)
        ]
    else:
        thetas = np.arange(-1.0, 1.0 + args.grid_step / 2, args.grid_step)
        rows = []
        for m, f in zip(grid.m_indices, grid.frequencies):
            gains = array_gain(f, thetas, pc, cfg)
            rows.extend((int(m), float(f), float(th), float(g)) for th, g in zip(thetas, gains))
    print(f"beam pattern for {label}")
    _save_csv(args.out, ["m", "f_m", "theta", "gain"], rows)
    return 0


def _cmd_bounds(args) -> int:
    cfg = _scenario_from_args(args).system
    thetas = np.linspace(args.theta_min, args.theta_max, args.points)
    rows = []
    for theta0 in thetas:
        b = radius_bounds(float(theta0), cfg, include_extra=args.include_extra)
        rows.append(
            (
                float(theta0),
                b.forward,
                b.backward,
                b.fb,
                b.forward_single_slot,
                b.large_angle,
                b.fixed,
                b.quasi_fixed,
            )
        )
    _save_csv(
        args.out,
        ["theta0", "forward", "backward", "fb", "forward_single_slot", "large_angle", "fixed", "quasi_fixed"],
        rows,
    )
    return 0


def _cmd_codebook(args) -> int:
    cfg = _scenario_from_args(args).system
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


def _cmd_track(args) -> int:
    scn = _scenario_from_args(args)
    cfg = scn.system
    grid = SubcarrierGrid.from_config(cfg)
    rng = np.random.default_rng(scn.seed)
    theta_r = args.theta_r if args.theta_r is not None else float(rng.uniform(-0.8, 0.8))
    center = args.theta0 if args.theta0 is not None else theta_r
    alpha = args.alpha if args.alpha is not None else scn.zeta_max
    slots = args.frame_slots if args.frame_slots is not None else scn.slots[0]
    snr = args.snr if args.snr is not None else scn.snr_db[0]
    cb = build_codebook(cfg) if scn.codebook else None
    plan = plan_tracking(center, alpha, slots, cfg, codebook=cb, pairing_mode="auto")
    print(f"tracking theta_r={theta_r:.6f} over [{center - alpha:.4f}, {center + alpha:.4f}], L={slots}")
    for i, pc in enumerate(plan.pairings, start=1):
        print(
            f"  slot {i}: center {pc.theta0:+.4f} mode {pc.mode:8s} psi {pc.psi:+.6f} "
            f"t {pc.t_aux:+.6f}{'  [over bound]' if pc.over_bound else ''}"
        )
    channel = channel_response(PathComponent(1.0 + 0j, theta_r, 0.0), grid, cfg)
    noise_std = cfg.n_bs / np.sqrt(10.0 ** (snr / 10.0))
    obs = run_tracking(plan, channel, noise_std, rng)
    est = coarse_estimate(obs)
    print(f"strongest cell: slot {est.l_hat}, subcarrier {est.m_hat:+d}")
    print(f"coarse estimate {est.theta_hat:+.6f} (error {est.theta_hat - theta_r:+.3e})")
    if scn.compensation:
        trace: list = []
        state = refine(build_cpr_problem(obs), est.theta_hat, trace=trace)
        print(
            f"refined estimate {state.theta:+.6f} (error {state.theta - theta_r:+.3e}, "
            f"residual {state.residual:.4e}, {state.iterations} iterations)"
        )
        if args.trace:
            _save_csv(args.trace, ["iteration", "theta", "g", "residual"], trace)
        final = state.theta
    else:
        final = est.theta_hat
    gain = beamforming_gain(channel, snap(final, cb.psi_grid) if cb else final, cfg)
    print(f"beamforming gain at estimate: {gain:.4f}")
    if args.dump_y:
        header = ["slot"] + [f"m{int(m):+d}" for m in grid.m_indices]
        rows = [
            [l + 1] + [float(a) for a in np.abs(obs.y[l])] for l in range(plan.slots)
        ]
        _save_csv(args.dump_y, header, rows)
    return 0


def _run_sweep(args, default_axis: str) -> int:
    scn = _scenario_from_args(args)
    axis = args.axis or default_axis
    values = None
    if args.values:
        values = [float(v) for v in args.values.split(",")]
        if axis == "slots":
            values = [int(v) for v in values]
    report = sweep(scn, axis, values=values, keep_records=args.full is not None)
    report.write_csv(args.out)
    if args.full:
        report.write_json(args.full, full=True)
        print(f"wrote {args.full}")
    for row in report.rows:
        print(
            f"  {axis}={row['value']}: nmse {row['nmse_db']:+.2f} dB, "
            f"gain {row['mean_gain']:.3f} ({row['n_records']} records)"
        )
    return 0


def _check(name: str, ok: bool, detail: str = "") -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail and not ok else ""))
    return ok


def _cmd_validate(args) -> int:
    cfg = default_config()
    grid = SubcarrierGrid.from_config(cfg)
    rng = np.random.default_rng(20240811)
    ok = True

    # closed-form gain vs inner product
    from .physmodel import assemble_precoder, steering_vector

    worst = 0.0
    for _ in range(200):
        psi, t = rng.uniform(-1, 1), rng.uniform(-2, 2)
        theta = rng.uniform(-1, 1)
        m = int(rng.integers(-cfg.m_half, cfg.m_half + 1))
        f_m = cfg.f_c + m * cfg.f_d
        pc = PrecoderConfig(psi, t)
        ref = abs(np.vdot(steering_vector(f_m, theta, cfg.n_bs, cfg.f_c), assemble_precoder(pc, f_m, cfg))) / cfg.n_bs
        worst = max(worst, abs(ref - float(array_gain(f_m, theta, pc, cfg))))
    ok &= _check("closed-form gain matches inner product (200 draws)", worst < 1e-9, f"max err {worst:.2e}")

    # reference bound values
    from .pairing import fixed_radius, forward_bound, large_angle_bound

    cfg2 = SystemConfig(n_bs=256, n_ttd=16, p=16, f_c=100e9, bandwidth=12.5e9, m_half=64)
    ok &= _check("forward radius at 0.95 equals 0.003125", abs(forward_bound(0.95, cfg2) - 0.003125) < 1e-12)
    ok &= _check("large-angle radius near 0.1502", abs(large_angle_bound(1.0, cfg) - 0.150157) < 5e-4)
    ok &= _check("fixed radius equals 0.0625", fixed_radius(cfg) == 0.0625)

    # subcarrier-angle map vs brute force
    pairing = make_pairing(0.6, 0.04, cfg)
    pm = peak_map(PrecoderConfig(pairing.psi, pairing.t_aux), cfg, grid_step=2e-4)
    mapped = angle_map(grid.m_indices, PrecoderConfig(pairing.psi, pairing.t_aux), cfg)
    dev = float(np.max(np.abs(pm.angles - mapped)))
    ok &= _check("peak map matches the angle map (backward pairing)", dev <= 2e-4 + 1e-9, f"max dev {dev:.2e}")

    # gradient vs finite differences
    theta_r = 0.4321
    channel = channel_response(PathComponent(1.0 + 0j, theta_r, 0.0), grid, cfg)
    plan = plan_tracking(0.43, 0.05, 2, cfg)
    obs = run_tracking(plan, channel, noise_std=cfg.n_bs / np.sqrt(10.0), rng=3)
    prob = build_cpr_problem(obs)
    worst_rel = 0.0
    for _ in range(5):
        state = CprState(
            theta=theta_r + rng.uniform(-2e-3, 2e-3),
            g=rng.uniform(0.5, 2.0),
            taus=rng.uniform(-np.pi, np.pi, len(grid)),
            residual=0.0,
        )
        grad = objective_gradient(prob, state)
        h = 1e-6
        fd = (objective(prob, state.theta + h, state.g, state.taus) - objective(prob, state.theta - h, state.g, state.taus)) / (2 * h)
        worst_rel = max(worst_rel, abs(grad - fd) / max(abs(grad), abs(fd), 1e-12))
    ok &= _check("angle gradient matches finite differences", worst_rel < 1e-5, f"max rel {worst_rel:.2e}")

    # noiseless recovery
    plan = plan_tracking(0.37, 0.05, 2, cfg)
    pc0 = plan.pairings[0]
    target = float(angle_map(5, PrecoderConfig(pc0.psi, pc0.t_aux), cfg))
    channel = channel_response(PathComponent(1.0 + 0j, target, 0.0), grid, cfg)
    est = coarse_estimate(run_tracking(plan, channel, 0.0))
    ok &= _check("noiseless on-grid recovery is exact", abs(est.theta_hat - target) < 1e-12)
    off = target + 2.4e-4
    channel = channel_response(PathComponent(1.0 + 0j, off, 0.0), grid, cfg)
    obs = run_tracking(plan, channel, 0.0)
    state = refine(build_cpr_problem(obs), coarse_estimate(obs).theta_hat, max_iter=300, tol=1e-18)
    ok &= _check("noiseless off-grid refinement below 1e-6", abs(state.theta - off) < 1e-6, f"err {abs(state.theta - off):.1e}")

    # determinism
    scn = ScenarioConfig(system=cfg, users=1, trials=5, seed=11, snr_db=(10.0,), slots=(2,))
    a = sweep(scn, "snr", values=[0.0, 10.0])
    b = sweep(scn, "snr", values=[0.0, 10.0])
    ok &= _check("sweeps are bit-reproducible", a.rows == b.rows)

    print("all checks passed" if ok else "validation FAILED")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="thztrack", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("beam-pattern", help="emit per-subcarrier gain surfaces as CSV")
    _add_system_args(p)
    p.add_argument("--theta0", type=float, default=0.6)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--psi", type=float)
    p.add_argument("--t", type=float)
    p.add_argument("--grid-step", type=float, default=2e-3)
    p.add_argument("--peaks-only", action="store_true")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_beam_pattern)

    p = sub.add_parser("bounds", help="tabulate all searching-radius bounds over a theta grid")
    _add_system_args(p)
    p.add_argument("--theta-min", type=float, default=-1.0)
    p.add_argument("--theta-max", type=float, default=1.0)
    p.add_argument("--points", type=int, default=81)
    p.add_argument("--include-extra", action="store_true")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("codebook", help="dump the joint codeword grids as CSV")
    _add_system_args(p)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_codebook)

    p = sub.add_parser("track", help="run one tracking frame with a verbose trace")
    _add_scenario_args(p, require_seed=True)
    p.add_argument("--theta-r", type=float, dest="theta_r")
    p.add_argument("--theta0", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--slots", type=int, dest="frame_slots")
    p.add_argument("--snr", type=float)
    p.add_argument("--trace", type=Path, help="CSV of refinement iterations")
    p.add_argument("--dump-y", type=Path, dest="dump_y", help="CSV heatmap of |Y|")
    p.set_defaults(func=_cmd_track)

    for name, axis in (("sweep-nmse", "snr"), ("sweep-gain", "theta")):
        p = sub.add_parser(name, help=f"Monte Carlo sweep (default axis: {axis})")
        _add_scenario_args(p, require_seed=True)
        p.add_argument("--axis", choices=("snr", "slots", "theta"))
        p.add_argument("--values", help="comma-separated axis values")
        p.add_argument("--out", type=Path, required=True)
        p.add_argument("--full", type=Path, help="also write per-trial records as JSON")
        p.set_defaults(func=lambda a, _axis=axis: _run_sweep(a, _axis))

    p = sub.add_parser("validate", help="run the built-in oracle/property checks")
    p.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
