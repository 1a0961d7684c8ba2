"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The Monte Carlo criteria
use fixed seeds, so every run reproduces the same numbers bit for bit.
"""

import time

import numpy as np
import pytest

from thztrack import checks
from thztrack.beampattern import array_gain, sidelobe_locations
from thztrack.harness import ScenarioConfig, sweep
from thztrack.pairing import backward_bound, fixed_radius, forward_bound, large_angle_bound, make_pairing
from thztrack.physmodel import PrecoderConfig, SystemConfig, default_config

CFG = default_config()  # n_bs=256, n_ttd=p=16, f_c=100 GHz, band 10 GHz, M=64


def report(criterion: str, detail: str):
    print(f"\n[PASS] {criterion}: {detail}")


def test_criterion_01_gain_closed_form_vs_inner_product_oracle():
    start = time.perf_counter()
    worst = checks.gain_oracle_error(1000, 101)
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 5.0
    report(
        "1 closed-form gain vs inner-product oracle",
        f"max abs error {worst:.2e} over 1000 draws in {elapsed:.1f}s",
    )


def test_criterion_02_subcarrier_angle_bijection_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(20250809)
    step = 1e-4
    worst = 0.0
    for _ in range(50):
        theta0 = rng.uniform(0.05, 0.8)
        # radii keep the delay slope below ~0.22 so the window-slope pull on
        # the product peak stays under half a grid step
        alpha = max((theta0 + rng.uniform(-0.22, 0.22)) / 20.0, 0.004)
        assert alpha < backward_bound(theta0, CFG)
        pairing = make_pairing(theta0, alpha, CFG)
        worst = max(worst, checks.angle_map_deviation(pairing, step))
    assert worst <= step + 1e-9

    # ten percent past the forward limit the map must visibly break
    theta0 = 0.8
    alpha = 1.1 * forward_bound(theta0, CFG)
    r = CFG.edge_ratio
    max_dev = checks.angle_map_deviation(PrecoderConfig(theta0 + r * alpha, theta0 + alpha / r), step)
    elapsed = time.perf_counter() - start
    assert max_dev > step
    assert elapsed < 60.0
    report(
        "2 bijection oracle",
        f"50 valid backward pairings within one grid step (worst {worst:.2e}); "
        f"overwide forward pairing deviates {max_dev:.3f} in {elapsed:.0f}s",
    )


def test_criterion_03_forward_bound_reference_number():
    cfg = SystemConfig(n_bs=256, n_ttd=16, p=16, f_c=100e9, bandwidth=12.5e9, m_half=64)
    value = forward_bound(0.95, cfg)
    assert abs(value - 0.003125) < 1e-15
    report("3 forward-pairing radius reference", f"forward_bound(0.95) = {value:.6f}")


def test_criterion_04_large_angle_bound_reference_numbers():
    value = large_angle_bound(1.0, CFG)
    assert value == pytest.approx(0.150157, abs=5e-4)
    assert fixed_radius(CFG) == 0.0625
    report(
        "4 large-angle radius reference",
        f"large_angle_bound(1.0) = {value:.6f}, fixed radius = {fixed_radius(CFG)}",
    )


def test_criterion_05_sidelobe_geometry_identities():
    rng = np.random.default_rng(55)
    f_low = CFG.f_c - CFG.m_half * CFG.f_d
    f_high = CFG.f_c + CFG.m_half * CFG.f_d
    worst_weighted, worst_gain = 0.0, 0.0
    for _ in range(100):
        theta0 = rng.uniform(0.0, 0.9)
        alpha = rng.uniform(0.005, 0.1)
        pairing = make_pairing(theta0, alpha, CFG)
        sm, sp, tc = sidelobe_locations(pairing, CFG)
        weighted = (f_low * sm + f_high * sp) / (f_low + f_high)
        worst_weighted = max(worst_weighted, abs(weighted - tc))
        gain = float(array_gain(CFG.f_c, tc, pairing, CFG))
        worst_gain = max(worst_gain, abs(gain - 1.0))
    assert worst_weighted < 1e-12
    assert worst_gain < 1e-12
    report(
        "5 sidelobe geometry identities",
        f"weighted-frequency identity err {worst_weighted:.1e}, center gain err {worst_gain:.1e}",
    )


def test_criterion_06_gradient_matches_finite_differences():
    worst = checks.gradient_error(20)
    assert worst < 1e-5
    report("6 gradient vs central finite differences", f"max relative error {worst:.2e}")


def test_criterion_07_noiseless_end_to_end_recovery():
    start = time.perf_counter()
    # on-grid target: exact recovery; off-grid target: refinement below 1e-6
    on_grid_err, off_grid_err = checks.recovery_errors()
    assert on_grid_err < 1e-12
    elapsed = time.perf_counter() - start
    assert off_grid_err < 1e-6
    assert elapsed < 10.0
    report(
        "7 noiseless end-to-end recovery",
        f"on-grid error {on_grid_err:.1e}, refined off-grid error {off_grid_err:.1e} in {elapsed:.1f}s",
    )


def test_criterion_08_nmse_trends():
    start = time.perf_counter()
    trials = 500
    base = dict(system=CFG, users=1, trials=trials, seed=20250809, zeta_max=0.2, slots=(4,))

    # (a)+(b): SNR sweep; compensation on, so records expose coarse and refined
    snrs = [-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
    scn = ScenarioConfig(compensation=True, snr_db=tuple(snrs), **base)
    rep = sweep(scn, "snr")
    coarse = {r["value"]: r["nmse_coarse_db"] for r in rep.rows}
    refined = {r["value"]: r["nmse_db"] for r in rep.rows}

    # (a) monotone decrease from -10 to 20 dB, single-point tolerance 0.3 dB
    tracked = [s for s in snrs if s <= 20.0]
    for lo, hi in zip(tracked, tracked[1:]):
        assert coarse[hi] <= coarse[lo] + 0.3, f"coarse NMSE rose from {lo} to {hi} dB"
        assert refined[hi] <= refined[lo] + 0.3, f"refined NMSE rose from {lo} to {hi} dB"

    # (b) the uncompensated curve flattens at a leakage floor at high SNR
    # (loses under 4 dB over the 20->30 dB decade, vs the tens-of-dB drop in
    # the noise-limited region), while compensation sits >= 5 dB below at 20
    tail_decline = coarse[20.0] - coarse[30.0]
    assert 0.0 <= tail_decline <= 4.0
    gap = coarse[20.0] - refined[20.0]
    assert gap >= 5.0
    # refinement already helps at moderate SNR
    assert refined[10.0] < coarse[10.0]

    # (c) forward-backward beats forward-only at a positive direction, L in {2, 3}
    margins = {}
    for n_slots in (2, 3):
        out = {}
        for scheme in ("forward_backward", "forward_only"):
            s = ScenarioConfig(
                scheme=scheme, compensation=False, snr_db=(20.0,), theta_grid=(0.6,),
                **{**base, "slots": (n_slots,)},
            )
            out[scheme] = sweep(s, "theta").rows[0]["nmse_db"]
        assert out["forward_backward"] < out["forward_only"]
        margins[n_slots] = out["forward_only"] - out["forward_backward"]

    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(
        "8 NMSE trends",
        f"monotone in SNR; floor plateau {coarse[20.0]:+.1f}/{coarse[25.0]:+.1f}/{coarse[30.0]:+.1f} dB "
        f"(tail decline {tail_decline:.1f} dB); compensation gap {gap:.1f} dB at SNR 20; "
        f"pairing margins L=2: {margins[2]:.1f} dB, L=3: {margins[3]:.1f} dB; "
        f"{trials} trials in {elapsed:.0f}s",
    )


def test_criterion_09_theta_sweep_symmetry():
    start = time.perf_counter()
    scn = ScenarioConfig(
        system=CFG, users=1, trials=2500, seed=424242, zeta_max=0.2,
        slots=(4,), snr_db=(20.0,), compensation=False, theta_grid=(-0.9, -0.6, -0.3, 0.3, 0.6, 0.9),
    )
    rep = sweep(scn, "theta")
    vals = {r["value"]: r["nmse_linear"] for r in rep.rows}
    rels = {}
    for v in (0.3, 0.6, 0.9):
        a, b = vals[v], vals[-v]
        rels[v] = abs(a - b) / ((a + b) / 2)
        assert rels[v] < 0.15, f"asymmetry {rels[v]:.1%} at theta +-{v}"
    elapsed = time.perf_counter() - start
    report(
        "9 theta-sweep symmetry",
        "paired relative differences "
        + ", ".join(f"+-{v}: {rels[v]:.1%}" for v in (0.3, 0.6, 0.9))
        + f" in {elapsed:.0f}s",
    )


def test_criterion_10_sweep_determinism(tmp_path):
    scn = ScenarioConfig(
        system=CFG, users=2, trials=20, seed=1234, compensation=True, snr_db=(0.0, 10.0)
    )
    p1, p2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    sweep(scn, "snr").write_csv(p1)
    sweep(scn, "snr").write_csv(p2)
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    report("10 sweep determinism", f"two runs produced identical CSV bytes ({len(b1)} bytes)")
