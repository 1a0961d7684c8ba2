import warnings

import numpy as np
import pytest

from thztrack import (
    PathComponent,
    PrecoderConfig,
    SubcarrierGrid,
    SystemConfig,
    TrackingObservation,
    angle_map,
    build_codebook,
    channel_response,
    coarse_estimate,
    default_config,
    estimate_angle,
    plan_tracking,
    precoder_matrix,
    run_tracking,
    select_strongest,
)


@pytest.fixture(scope="module")
def cfg():
    return default_config()


@pytest.fixture(scope="module")
def grid(cfg):
    return SubcarrierGrid.from_config(cfg)


class TestPlanTracking:
    def test_slot_centers_all_backward(self, cfg):
        plan = plan_tracking(0.6, 0.2, 4, cfg)
        np.testing.assert_allclose(plan.slot_centers, [0.45, 0.55, 0.65, 0.75])
        assert all(p.mode == "backward" for p in plan.pairings)
        assert plan.slot_radius == pytest.approx(0.05)

    def test_mixed_modes_follow_slot_sign(self, cfg):
        plan = plan_tracking(0.05, 0.2, 4, cfg)
        np.testing.assert_allclose(plan.slot_centers, [-0.1, 0.0, 0.1, 0.2], atol=1e-15)
        assert [p.mode for p in plan.pairings] == ["forward", "backward", "backward", "backward"]

    def test_single_slot(self, cfg):
        plan = plan_tracking(0.3, 0.08, 1, cfg)
        assert plan.slot_centers[0] == pytest.approx(0.3)
        assert plan.slot_radius == pytest.approx(0.08)

    def test_slots_tile_searched_interval(self, cfg):
        plan = plan_tracking(0.2, 0.15, 5, cfg)
        lows = plan.slot_centers - plan.slot_radius
        highs = plan.slot_centers + plan.slot_radius
        assert lows[0] == pytest.approx(0.05)
        assert highs[-1] == pytest.approx(0.35)
        np.testing.assert_allclose(highs[:-1], lows[1:], atol=1e-12)

    def test_interval_leaving_domain_raises(self, cfg):
        with pytest.raises(ValueError):
            plan_tracking(0.9, 0.2, 4, cfg)

    def test_unknown_pairing_mode_raises(self, cfg):
        with pytest.raises(ValueError, match="pairing mode"):
            plan_tracking(0.4, 0.2, 4, cfg, pairing_mode="sideways")

    def test_over_bound_slot_warns(self, cfg):
        # slot radius 0.15 far exceeds the forward limit at positive centers
        with pytest.warns(RuntimeWarning):
            plan_tracking(0.6, 0.3, 2, cfg, pairing_mode="forward")

    def test_auto_negative_slot_warning_agrees_with_flag(self, cfg):
        # auto picks forward at -0.6, whose limit is the large-angle bound 0.13125
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            plan = plan_tracking(-0.6, 0.1, 1, cfg)
        assert not plan.pairings[0].over_bound

    @pytest.mark.parametrize("theta0, mode", [(0.6, "forward"), (-0.6, "backward")])
    def test_forced_off_sign_slot_warns_and_flags(self, cfg, theta0, mode):
        with pytest.warns(RuntimeWarning, match=f"{mode} bound 0.0325"):
            plan = plan_tracking(theta0, 0.05, 1, cfg, pairing_mode=mode)
        assert plan.pairings[0].over_bound

    def test_codebook_snapping_applied(self, cfg):
        cb = build_codebook(cfg)
        plan = plan_tracking(0.31, 0.2, 4, cfg, codebook=cb)
        for p in plan.pairings:
            assert p.psi in cb.psi_grid.values
            assert p.t_aux in cb.t_grid.values

    def test_sweep_mode_points_both_slopes_at_center(self, cfg):
        plan = plan_tracking(0.4, 0.2, 4, cfg, pairing_mode="sweep")
        for p, c in zip(plan.pairings, plan.slot_centers):
            assert p.psi == pytest.approx(c)
            assert p.t_aux == pytest.approx(c)


class TestRunTracking:
    def test_on_grid_target_peaks_its_cell(self, cfg):
        plan = plan_tracking(0.42, 0.1, 2, cfg)
        pc = plan.pairings[1]
        target = float(angle_map(9, PrecoderConfig(pc.psi, pc.t_aux), cfg))
        ch = channel_response(PathComponent(1.0 + 0j, target), cfg)
        obs = run_tracking(plan, ch, 0.0)
        row = np.abs(obs.y[1])
        assert np.argmax(row) == 9 + cfg.m_half

    def test_zero_gain_gives_pure_noise(self, cfg):
        plan = plan_tracking(0.0, 0.1, 2, cfg)
        ch = channel_response(PathComponent(0.0 + 0j, 0.1), cfg)
        obs = run_tracking(plan, ch, noise_std=1.0, rng=1)
        assert np.all(np.abs(obs.y) > 0)
        assert np.mean(np.abs(obs.y) ** 2) == pytest.approx(1.0, rel=0.15)

    def test_seed_reproducible(self, cfg):
        plan = plan_tracking(0.2, 0.1, 3, cfg)
        ch = channel_response(PathComponent(1.0 + 0j, 0.21), cfg)
        y1 = run_tracking(plan, ch, 5.0, rng=99).y
        y2 = run_tracking(plan, ch, 5.0, rng=99).y
        np.testing.assert_array_equal(y1, y2)

    def test_noise_scales_with_std_for_same_seed(self, cfg):
        plan = plan_tracking(0.2, 0.1, 2, cfg)
        ch = channel_response(PathComponent(1.0 + 0j, 0.21), cfg)
        clean = run_tracking(plan, ch, 0.0).y
        n1 = run_tracking(plan, ch, 1.0, rng=5).y - clean
        n2 = run_tracking(plan, ch, 2.0, rng=5).y - clean
        np.testing.assert_allclose(n2, 2.0 * n1, rtol=1e-10)

    def test_matches_per_cell_simulation(self, cfg, grid):
        # the vectorized pilot matrix equals cell-by-cell simulation, h^H f
        # plus circular noise, with a shared generator consuming two draws
        # (real, imaginary) per cell in row-major order
        plan = plan_tracking(0.3, 0.08, 2, cfg)
        ch = channel_response(PathComponent(1.0 + 0j, 0.31), cfg)
        obs = run_tracking(plan, ch, noise_std=2.5, rng=314)
        gen = np.random.default_rng(314)
        for l, pc in enumerate(plan.pairings):
            f_rows = precoder_matrix(PrecoderConfig(pc.psi, pc.t_aux), cfg)
            for j in range(len(grid)):
                re, im = gen.standard_normal(2)
                expected = np.vdot(ch.h[j], f_rows[j]) + 2.5 / np.sqrt(2.0) * (re + 1j * im)
                assert obs.y[l, j] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("noise_std", [-1.0, float("nan"), float("inf")])
    def test_noise_std_must_be_finite_and_nonnegative(self, cfg, noise_std):
        plan = plan_tracking(0.2, 0.1, 2, cfg)
        ch = channel_response(PathComponent(1.0 + 0j, 0.21), cfg)
        with pytest.raises(ValueError, match="noise_std"):
            run_tracking(plan, ch, noise_std, rng=1)

    def test_config_mismatch_raises(self, cfg):
        plan = plan_tracking(0.2, 0.1, 2, cfg)
        other = SystemConfig(n_bs=128, n_ttd=8, p=16, f_c=cfg.f_c, bandwidth=cfg.bandwidth, m_half=cfg.m_half)
        bad = channel_response(PathComponent(1.0 + 0j, 0.2), other)
        with pytest.raises(ValueError):
            run_tracking(plan, bad, 0.0)


class TestSelectStrongest:
    def _obs(self, cfg, y):
        plan = plan_tracking(0.0, 0.1, y.shape[0], cfg)
        return TrackingObservation(y=y, plan=plan)

    def test_single_spike(self, cfg):
        y = np.zeros((3, cfg.n_subcarriers), dtype=complex)
        y[1, 5 + cfg.m_half] = 2.0
        assert select_strongest(self._obs(cfg, y)) == (2, 5)

    def test_all_equal_tie_breaks_low(self, cfg):
        y = np.ones((3, cfg.n_subcarriers), dtype=complex)
        assert select_strongest(self._obs(cfg, y)) == (1, -cfg.m_half)

    def test_tie_within_row_prefers_smaller_subcarrier(self, cfg):
        y = np.zeros((2, cfg.n_subcarriers), dtype=complex)
        y[0, 10 + cfg.m_half] = 1.0
        y[0, 20 + cfg.m_half] = 1.0
        assert select_strongest(self._obs(cfg, y)) == (1, 10)


class TestEstimateAngle:
    def test_center_subcarrier_returns_psi(self, cfg):
        plan = plan_tracking(0.42, 0.1, 2, cfg)
        ch = channel_response(PathComponent(1.0 + 0j, 0.42), cfg)
        obs = run_tracking(plan, ch, 0.0)
        for l_hat, pc in enumerate(plan.pairings, start=1):
            assert estimate_angle(obs, l_hat, 0) == pytest.approx(pc.psi)

    def test_noiseless_on_grid_recovery_exact(self, cfg):
        plan = plan_tracking(0.42, 0.1, 2, cfg)
        for l_star, m_star in ((1, 0), (2, -30), (2, 41)):
            pc = plan.pairings[l_star - 1]
            target = float(angle_map(m_star, PrecoderConfig(pc.psi, pc.t_aux), cfg))
            ch = channel_response(PathComponent(1.0 + 0j, target), cfg)
            est = coarse_estimate(run_tracking(plan, ch, 0.0))
            assert est.theta_hat == pytest.approx(target, abs=1e-13)

    def test_noiseless_off_grid_error_within_spacing(self, cfg):
        plan = plan_tracking(0.42, 0.1, 2, cfg)
        spacings = []
        for pc in plan.pairings:
            mapped = np.sort(angle_map(cfg.m_indices, PrecoderConfig(pc.psi, pc.t_aux), cfg))
            spacings.append(np.max(np.diff(mapped)))
        max_spacing = max(spacings)
        rng = np.random.default_rng(17)
        for _ in range(20):
            target = rng.uniform(0.33, 0.51)
            ch = channel_response(PathComponent(1.0 + 0j, target), cfg)
            est = coarse_estimate(run_tracking(plan, ch, 0.0))
            assert abs(est.theta_hat - target) <= max_spacing

    def test_angle_grids_cover_interval_without_gaps(self, cfg):
        plan = plan_tracking(0.1, 0.2, 4, cfg)
        mapped = np.sort(
            np.concatenate(
                [angle_map(cfg.m_indices, PrecoderConfig(p.psi, p.t_aux), cfg) for p in plan.pairings]
            )
        )
        assert mapped[0] == pytest.approx(-0.1, abs=1e-12)
        assert mapped[-1] == pytest.approx(0.3, abs=1e-12)
        assert np.max(np.diff(mapped)) <= 2 * 0.2 / (4 * (cfg.n_subcarriers - 1)) * 1.5

    def test_snapped_edge_subcarrier_stays_in_range(self, cfg):
        # the snapped slopes of the second slot map subcarrier -M just past 1
        plan = plan_tracking(0.8, 0.2, 2, cfg, codebook=build_codebook(cfg))
        pc = plan.pairings[1]
        assert angle_map(-cfg.m_half, PrecoderConfig(pc.psi, pc.t_aux), cfg) > 1.0
        obs = run_tracking(plan, channel_response(PathComponent(1.0 + 0j, 0.9), cfg), 0.0)
        assert estimate_angle(obs, 2, -cfg.m_half) == 1.0

    def test_index_validation(self, cfg):
        plan = plan_tracking(0.42, 0.1, 2, cfg)
        ch = channel_response(PathComponent(1.0 + 0j, 0.42), cfg)
        obs = run_tracking(plan, ch, 0.0)
        with pytest.raises(ValueError):
            estimate_angle(obs, 3, 0)
        with pytest.raises(ValueError):
            estimate_angle(obs, 1, cfg.m_half + 1)
