from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thztrack.beampattern import angle_map
from thztrack.codebook import build_codebook
from thztrack.pairing import mode_bound
from thztrack.physmodel import PathComponent, SystemConfig, channel_response, default_config, precoder_matrix
from thztrack.tracker import (
    TrackingObservation, coarse_estimate, observe, pilot_normals, plan_tracking, run_tracking,
)


@pytest.fixture(scope="module")
def cfg():
    return default_config()


def centers(plan):
    return np.array([pc.theta0 for pc in plan.pairings])


def normals(seed, plan):
    return pilot_normals(seed, plan.slots, plan.cfg.n_subcarriers)


def spike(plan, l_hat, m_hat):
    """An observation of ``plan`` whose only nonzero cell is slot ``l_hat``, subcarrier ``m_hat``."""
    y = np.zeros((plan.slots, plan.cfg.n_subcarriers), dtype=complex)
    y[l_hat - 1, m_hat + plan.cfg.m_half] = 1.0
    return TrackingObservation(y=y, plan=plan)


class TestPlanTracking:
    def test_slot_centers_all_backward(self, cfg):
        plan = plan_tracking(0.6, 0.2, 4, cfg)
        np.testing.assert_allclose(centers(plan), [0.45, 0.55, 0.65, 0.75])
        assert all(p.mode == "backward" for p in plan.pairings)
        assert all(p.alpha == pytest.approx(0.05) for p in plan.pairings)

    def test_mixed_modes_follow_slot_sign(self, cfg):
        plan = plan_tracking(0.05, 0.2, 4, cfg)
        np.testing.assert_allclose(centers(plan), [-0.1, 0.0, 0.1, 0.2], atol=1e-15)
        assert [p.mode for p in plan.pairings] == ["forward", "backward", "backward", "backward"]

    def test_single_slot(self, cfg):
        plan = plan_tracking(0.3, 0.08, 1, cfg)
        assert plan.pairings[0].theta0 == pytest.approx(0.3)
        assert plan.pairings[0].alpha == pytest.approx(0.08)

    def test_slots_count_the_pairings(self, cfg):
        plan = plan_tracking(0.3, 0.2, 4, cfg)
        cut = replace(plan, centers=plan.centers[:2], psi=plan.psi[:2], t_aux=plan.t_aux[:2])
        assert (plan.slots, cut.slots) == (4, 2)
        ch = channel_response(PathComponent(1.0, 0.31), cfg)
        assert run_tracking(cut, ch, 1.0, pilot_normals(5, 2, cfg.n_subcarriers)).y.shape == (2, cfg.n_subcarriers)

    def test_slots_tile_searched_interval(self, cfg):
        plan = plan_tracking(0.2, 0.15, 5, cfg)
        radii = np.array([pc.alpha for pc in plan.pairings])
        lows = centers(plan) - radii
        highs = centers(plan) + radii
        assert lows[0] == pytest.approx(0.05)
        assert highs[-1] == pytest.approx(0.35)
        np.testing.assert_allclose(highs[:-1], lows[1:], atol=1e-12)

    def test_interval_leaving_domain_raises(self, cfg):
        with pytest.raises(ValueError):
            plan_tracking(0.9, 0.2, 4, cfg)

    @pytest.mark.parametrize("theta0", [1.0, -1.0])
    def test_slot_center_rounding_past_the_domain_raises(self, cfg, theta0):
        # the interval passes the 1e-12 tolerance, but an end slot's centre rounds past +-1
        with pytest.raises(ValueError, match=r"slot centers must lie in \[-1, 1\]"):
            plan_tracking(theta0, 5e-13, 2, cfg)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_inputs_raise(self, cfg, value):
        with pytest.raises(ValueError, match="leaves"):
            plan_tracking(value, 0.05, 2, cfg)
        with pytest.raises(ValueError, match="alpha must be positive|leaves"):
            plan_tracking(0.5, value, 2, cfg)

    def test_unknown_pairing_mode_raises(self, cfg):
        with pytest.raises(ValueError, match="pairing mode"):
            plan_tracking(0.4, 0.2, 4, cfg, pairing_mode="sideways")

    @pytest.mark.parametrize("slots", [2.5, 3.0, True, 0, -1])
    def test_slot_count_that_is_not_a_positive_integer_raises(self, cfg, slots):
        # 2.5 would tile the interval with 3 slots, the last centred on its edge
        with pytest.raises(ValueError, match="slots must be a positive integer"):
            plan_tracking(0.3, 0.2, slots, cfg)
        assert plan_tracking(0.3, 0.2, np.int64(3), cfg).centers.tolist() == plan_tracking(0.3, 0.2, 3, cfg).centers.tolist()

    # an over-bound slot is reported by its pairing's over_bound flag alone:
    # plan_tracking does not warn, and the suite turns any RuntimeWarning into an error

    def test_over_bound_slot_warns(self, cfg):
        # slot radius 0.15 far exceeds the forward limit at positive centers
        plan = plan_tracking(0.6, 0.3, 2, cfg, pairing_mode="forward")
        assert all(p.over_bound for p in plan.pairings)

    def test_auto_negative_slot_warning_agrees_with_flag(self, cfg):
        # auto picks forward at -0.6, whose limit is the large-angle bound 0.13125
        plan = plan_tracking(-0.6, 0.1, 1, cfg)
        assert not plan.pairings[0].over_bound

    @pytest.mark.parametrize("theta0, mode", [(0.6, "forward"), (-0.6, "backward")])
    def test_forced_off_sign_slot_warns_and_flags(self, cfg, theta0, mode):
        assert mode_bound(theta0, mode, cfg) == pytest.approx(0.0325)
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
        for p, c in zip(plan.pairings, [0.25, 0.35, 0.45, 0.55]):
            assert p.psi == pytest.approx(c)
            assert p.t_aux == pytest.approx(c)


# Fixed before any run, on the scale of test_physmodel's TestRayResponse: the
# dense oracle vdot(h_m, f_{l,m}) of a unit-gain ray is off by up to
# ~n_bs^2*eps, and adding the noise rounds to eps of |Y|; C = 8 as there.
_PILOT_TOL_C = 8.0
_EPS = np.finfo(float).eps


@st.composite
def _pilot_cases(draw):
    """A random array (n_bs <= 128) and band, a tracking plan on it, a ray, a noise level (0 included)
    and the seed of the pilot normals, drawn for ``extra`` more slots than the plan has."""
    p = draw(st.integers(1, 16))
    n_ttd = draw(st.integers(1, 128 // p))
    f_c = draw(st.floats(1e9, 1e12))
    system = SystemConfig(
        n_bs=p * n_ttd, n_ttd=n_ttd, p=p, f_c=f_c, bandwidth=2 * draw(st.floats(0.01, 0.45)) * f_c,
        m_half=draw(st.integers(1, 32)),
    )
    alpha = draw(st.floats(1e-3, 0.3))
    theta0 = draw(st.floats(-1.0, 1.0)) * (1.0 - alpha)
    slots = draw(st.integers(1, 4))
    theta = draw(st.floats(-1.0, 1.0))
    noise_std = draw(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)))
    return system, theta0, alpha, slots, theta, noise_std, draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 2))


class TestRunTracking:
    def test_on_grid_target_peaks_its_cell(self, cfg):
        plan = plan_tracking(0.42, 0.1, 2, cfg)
        target = float(angle_map(9, plan.pairings[1], cfg))
        ch = channel_response(PathComponent(1.0 + 0j, target), cfg)
        obs = run_tracking(plan, ch, 0.0)
        row = np.abs(obs.y[1])
        assert np.argmax(row) == 9 + cfg.m_half

    def test_zero_gain_gives_pure_noise(self, cfg):
        plan = plan_tracking(0.0, 0.1, 2, cfg)
        ch = channel_response(PathComponent(0.0 + 0j, 0.1), cfg)
        obs = run_tracking(plan, ch, noise_std=1.0, normals=normals(1, plan))
        assert np.all(np.abs(obs.y) > 0)
        assert np.mean(np.abs(obs.y) ** 2) == pytest.approx(1.0, rel=0.15)

    def test_seed_reproducible(self, cfg):
        plan = plan_tracking(0.2, 0.1, 3, cfg)
        ch = channel_response(PathComponent(1.0 + 0j, 0.21), cfg)
        y1 = run_tracking(plan, ch, 5.0, normals(99, plan)).y
        y2 = run_tracking(plan, ch, 5.0, normals(99, plan)).y
        np.testing.assert_array_equal(y1, y2)

    def test_noise_scales_with_std_for_same_seed(self, cfg):
        plan = plan_tracking(0.2, 0.1, 2, cfg)
        ch = channel_response(PathComponent(1.0 + 0j, 0.21), cfg)
        clean = run_tracking(plan, ch, 0.0).y
        n1 = run_tracking(plan, ch, 1.0, normals(5, plan)).y - clean
        n2 = run_tracking(plan, ch, 2.0, normals(5, plan)).y - clean
        np.testing.assert_allclose(n2, 2.0 * n1, rtol=1e-10)

    @settings(max_examples=150, deadline=None)
    @given(case=_pilot_cases())
    @example(case=(default_config(), 0.3, 0.08, 2, 0.31, 2.5, 314, 0))
    def test_matches_per_cell_simulation(self, case):
        # the vectorized pilot matrix equals cell-by-cell simulation: h_m^H f_{l,m}
        # plus circular noise from the (re, im) normals of slab l, row m, of
        # which run_tracking reads the first L slabs and changes none
        system, theta0, alpha, slots, theta, noise_std, seed, extra = case
        plan = plan_tracking(theta0, alpha, slots, system)  # over-bound slots are fine here
        ch = channel_response(PathComponent(1.0 + 0j, theta), system)
        drawn = pilot_normals(seed, slots + extra, system.n_subcarriers)
        passed = drawn.copy()
        obs = run_tracking(plan, ch, noise_std, passed)
        np.testing.assert_array_equal(passed, drawn)
        assert obs.y.shape == (slots, system.n_subcarriers)
        for l, pc in enumerate(plan.pairings):
            f_rows = precoder_matrix(pc, system)
            for j in range(system.n_subcarriers):
                re, im = drawn[l, j]
                expected = np.vdot(ch.h[j], f_rows[j]) + noise_std / np.sqrt(2.0) * (re + 1j * im)
                tol = _PILOT_TOL_C * _EPS * (system.n_bs**2 + abs(expected))
                assert abs(obs.y[l, j] - expected) <= tol, (l, j)

    def test_noisy_pilots_need_normals(self, cfg):
        plan = plan_tracking(0.2, 0.1, 2, cfg)
        ch = channel_response(PathComponent(1.0 + 0j, 0.21), cfg)
        with pytest.raises(ValueError, match="normals"):
            run_tracking(plan, ch, 1.0)
        # a noiseless frame draws nothing and needs none
        np.testing.assert_array_equal(run_tracking(plan, ch, 0.0).y, run_tracking(plan, ch).y)

    @pytest.mark.parametrize("shape", [(1, 129, 2), (2, 128, 2), (2, 129), (2, 129, 1), ()])
    def test_normals_must_cover_the_plan(self, cfg, shape):
        plan = plan_tracking(0.2, 0.1, 2, cfg)
        ch = channel_response(PathComponent(1.0 + 0j, 0.21), cfg)
        with pytest.raises(ValueError, match="normals"):
            run_tracking(plan, ch, 1.0, np.zeros(shape))

    @pytest.mark.parametrize("slots, m_half", [(1, 64), (2, 32)])
    def test_noiseless_pilots_check_the_normals_they_are_given(self, cfg, slots, m_half):
        # normals for fewer slots or another m_half fit no frame of this plan, noisy or not
        plan = plan_tracking(0.2, 0.1, 2, cfg)
        ch = channel_response(PathComponent(1.0 + 0j, 0.21), cfg)
        with pytest.raises(ValueError, match=r"do not cover slots = 2 of 2\*m_half\+1 = 129 subcarriers"):
            run_tracking(plan, ch, 0.0, pilot_normals(3, slots, 2 * m_half + 1))

    def test_pilot_normals_need_a_generator_or_a_seed(self):
        # None would draw unseeded noise, outside the (seed, trial, user) keying
        with pytest.raises(ValueError, match="None"):
            pilot_normals(None, 2, 5)

    @pytest.mark.parametrize("noise_std", [-1.0, float("nan"), float("inf")])
    def test_noise_std_must_be_finite_and_nonnegative(self, cfg, noise_std):
        plan = plan_tracking(0.2, 0.1, 2, cfg)
        ch = channel_response(PathComponent(1.0 + 0j, 0.21), cfg)
        with pytest.raises(ValueError, match="noise_std"):
            run_tracking(plan, ch, noise_std, normals(1, plan))

    def test_config_mismatch_raises(self, cfg):
        plan = plan_tracking(0.2, 0.1, 2, cfg)
        other = SystemConfig(n_bs=128, n_ttd=8, p=16, f_c=cfg.f_c, bandwidth=cfg.bandwidth, m_half=cfg.m_half)
        bad = channel_response(PathComponent(1.0 + 0j, 0.2), other)
        with pytest.raises(ValueError):
            run_tracking(plan, bad, 0.0)

    def test_observe_takes_one_frames_response(self, cfg):
        plan = plan_tracking(0.2, 0.1, 2, cfg)
        ch = channel_response(PathComponent(0.5 - 1j, 0.21), cfg)
        response = ch.received(plan.kernel(0.21))
        assert np.array_equal(observe(plan, response, 1.0, normals(3, plan)).y,
                              run_tracking(plan, ch, 1.0, normals(3, plan)).y)
        # a batch's responses, or a response with its axes swapped, are not one frame's
        for bad in (response[None], response.T):
            with pytest.raises(ValueError, match=r"2\*m_half\+1.*slots"):
                observe(plan, bad)


class TestSelectStrongest:
    """The cell coarse_estimate selects: the largest |Y|^2, ties to the smaller slot, then subcarrier."""

    def _cell(self, cfg, y):
        est = coarse_estimate(TrackingObservation(y=y, plan=plan_tracking(0.0, 0.1, y.shape[0], cfg)))
        return est.l_hat, est.m_hat

    def test_single_spike(self, cfg):
        y = np.zeros((3, cfg.n_subcarriers), dtype=complex)
        y[1, 5 + cfg.m_half] = 2.0
        assert self._cell(cfg, y) == (2, 5)

    def test_all_equal_tie_breaks_low(self, cfg):
        y = np.ones((3, cfg.n_subcarriers), dtype=complex)
        assert self._cell(cfg, y) == (1, -cfg.m_half)

    def test_empty_observation_raises(self, cfg):
        with pytest.raises(ValueError, match="empty observation"):
            coarse_estimate(TrackingObservation(y=np.zeros((0, cfg.n_subcarriers), dtype=complex),
                                                plan=plan_tracking(0.0, 0.1, 1, cfg)))

    def test_tie_within_row_prefers_smaller_subcarrier(self, cfg):
        y = np.zeros((2, cfg.n_subcarriers), dtype=complex)
        y[0, 10 + cfg.m_half] = 1.0
        y[0, 20 + cfg.m_half] = 1.0
        assert self._cell(cfg, y) == (1, 10)


class TestEstimateAngle:
    """The angle coarse_estimate gives its selected cell: the slot pairing's angle map, clipped to [-1, 1]."""

    def test_center_subcarrier_returns_psi(self, cfg):
        plan = plan_tracking(0.42, 0.1, 2, cfg)
        for l_hat, pc in enumerate(plan.pairings, start=1):
            assert coarse_estimate(spike(plan, l_hat, 0)).theta_hat == pytest.approx(pc.psi)

    def test_noiseless_on_grid_recovery_exact(self, cfg):
        plan = plan_tracking(0.42, 0.1, 2, cfg)
        for l_star, m_star in ((1, 0), (2, -30), (2, 41)):
            target = float(angle_map(m_star, plan.pairings[l_star - 1], cfg))
            ch = channel_response(PathComponent(1.0 + 0j, target), cfg)
            est = coarse_estimate(run_tracking(plan, ch, 0.0))
            assert est.theta_hat == pytest.approx(target, abs=1e-13)

    def test_noiseless_off_grid_error_within_spacing(self, cfg):
        plan = plan_tracking(0.42, 0.1, 2, cfg)
        spacings = []
        for pc in plan.pairings:
            mapped = np.sort(angle_map(cfg.m_indices, pc, cfg))
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
        mapped = np.sort(np.concatenate([angle_map(cfg.m_indices, p, cfg) for p in plan.pairings]))
        assert mapped[0] == pytest.approx(-0.1, abs=1e-12)
        assert mapped[-1] == pytest.approx(0.3, abs=1e-12)
        assert np.max(np.diff(mapped)) <= 2 * 0.2 / (4 * (cfg.n_subcarriers - 1)) * 1.5

    def test_snapped_edge_subcarrier_stays_in_range(self, cfg):
        # the snapped slopes of the second slot map subcarrier -M just past 1
        plan = plan_tracking(0.8, 0.2, 2, cfg, codebook=build_codebook(cfg))
        assert angle_map(-cfg.m_half, plan.pairings[1], cfg) > 1.0
        assert coarse_estimate(spike(plan, 2, -cfg.m_half)).theta_hat == 1.0


_SMALL = SystemConfig(n_bs=64, n_ttd=8, p=8, f_c=100e9, bandwidth=10e9, m_half=16)


@st.composite
def _selection_cases(draw):
    """A plan on one of the benchmark's two arrays, with or without a codebook, and pilots with planted ties.

    The pilots take few distinct values, so |Y|^2 ties arise by themselves,
    and copies of the strongest value, negated or conjugated (the same
    modulus), are planted at drawn cells.
    """
    system = draw(st.sampled_from([default_config(), _SMALL]))
    alpha = draw(st.floats(0.01, 0.3))
    # intervals reaching +-1 give snapped edge subcarriers that map past it
    theta0 = draw(st.one_of(st.floats(-1.0 + alpha, 1.0 - alpha), st.sampled_from([1.0 - alpha, alpha - 1.0])))
    slots = draw(st.integers(1, 8))
    mode = draw(st.sampled_from(["auto", "forward", "backward", "sweep"]))
    cb = build_codebook(system) if draw(st.booleans()) else None
    plan = plan_tracking(theta0, alpha, slots, system, codebook=cb, pairing_mode=mode)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (slots, system.n_subcarriers)
    y = rng.integers(-3, 4, shape) + 1j * rng.integers(-3, 4, shape) * draw(st.sampled_from([1.0, 0.1, 1e-3]))
    top = y.flat[np.argmax(np.abs(y))]
    for cell, form in draw(st.lists(st.tuples(st.integers(0, y.size - 1), st.sampled_from([1, -1, 0])), max_size=4)):
        y.flat[cell] = np.conj(top) if form == 0 else form * top
    return TrackingObservation(y=y, plan=plan)


def _first_principles_selection(obs):
    """(l_hat, m_hat, theta_hat) by a loop over the cells in row-major order; a later cell wins only when stronger."""
    plan, power = obs.plan, np.abs(obs.y) ** 2
    best = (0, 0)
    for l in range(power.shape[0]):
        for j in range(power.shape[1]):
            if power[l, j] > power[best]:
                best = (l, j)
    l, j = best
    m = j - plan.cfg.m_half
    theta = angle_map(np.array([m]), plan.pairings[l], plan.cfg)[0]
    return l + 1, m, float(np.clip(theta, -1.0, 1.0))


class TestCoarseEstimateProperties:
    # 300 examples, fixed before the first run
    @settings(max_examples=300, deadline=None)
    @given(obs=_selection_cases())
    # the snapped slopes of the second slot map subcarrier -M past 1 (test_snapped_edge_subcarrier_stays_in_range)
    @example(obs=spike(plan_tracking(0.8, 0.2, 2, default_config(), codebook=build_codebook(default_config())),
                       2, -default_config().m_half))
    def test_equals_first_principles_selection(self, obs):
        est = coarse_estimate(obs)
        assert (est.l_hat, est.m_hat, est.theta_hat) == _first_principles_selection(obs)
        assert type(est.theta_hat) is float
