import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thztrack import checks
from thztrack.beampattern import angle_map, array_gain, dirichlet, lobe_geometry, peak_map, sidelobe_locations
from thztrack.pairing import BACKWARD, FORWARD, forward_bound, make_pairing, mode_bound
from thztrack.physmodel import PrecoderConfig, SystemConfig, default_config


@pytest.fixture(scope="module")
def cfg():
    return default_config()


class TestDirichlet:
    def test_peak(self):
        assert dirichlet(16, 0.0) == 1.0

    def test_first_null(self):
        assert dirichlet(16, 2.0 / 16) == pytest.approx(0.0, abs=1e-15)

    def test_period_two(self):
        assert dirichlet(16, 2.0) == 1.0

    def test_even_and_periodic(self):
        a = np.linspace(0.01, 0.99, 57)
        np.testing.assert_allclose(dirichlet(8, a), dirichlet(8, -a), rtol=1e-12)
        np.testing.assert_allclose(dirichlet(8, a), dirichlet(8, a + 2.0), rtol=1e-9, atol=1e-12)

    def test_bounded(self):
        a = np.linspace(-3, 3, 10001)
        v = dirichlet(32, a)
        assert np.all(v >= 0.0) and np.all(v <= 1.0)

    def test_continuous_at_removable_singularity(self):
        near = dirichlet(16, 2.0 + 1e-9)
        assert near == pytest.approx(1.0, abs=1e-6)


class TestArrayGain:
    def test_perfect_alignment_center_subcarrier(self, cfg):
        pc = PrecoderConfig(0.4, 0.4)
        assert array_gain(cfg.f_c, 0.4, pc, cfg) == pytest.approx(1.0, abs=1e-12)

    def test_matched_slopes_leave_window_factor(self, cfg):
        # psi = t = theta0 cancels the beam factor; the window factor remains
        theta0 = 0.52
        pc = PrecoderConfig(theta0, theta0)
        for m in (-64, -10, 7, 64):
            f_m = cfg.f_c + m * cfg.f_d
            expected = dirichlet(cfg.p, (m * cfg.f_d / cfg.f_c) * theta0)
            assert array_gain(f_m, theta0, pc, cfg) == pytest.approx(expected, abs=1e-12)

    def test_matches_inner_product(self):
        assert checks.gain_oracle_error(200, 7) < 1e-10


class TestLobeGeometry:
    def test_center_subcarrier_values(self, cfg):
        geo = lobe_geometry(cfg.f_c, PrecoderConfig(0.3, -0.2), cfg)
        assert geo.t1 == pytest.approx(2.0)
        assert geo.w1 == pytest.approx(2.0 / cfg.p)
        assert geo.theta_c1 == pytest.approx(0.3)
        assert geo.w2 == pytest.approx(2.0 / cfg.n_bs)

    def test_window_semiwidth_equals_beam_period(self, cfg):
        for m in (-64, -3, 0, 11, 64):
            geo = lobe_geometry(cfg.f_c + m * cfg.f_d, PrecoderConfig(0.1, 0.9), cfg)
            assert geo.w1 == pytest.approx(geo.t2, rel=1e-15)

    def test_matched_slopes_fix_beam_peak(self, cfg):
        geo = lobe_geometry(cfg.f_c + 31 * cfg.f_d, PrecoderConfig(0.45, 0.45), cfg)
        assert geo.theta_c2 == pytest.approx(0.45, rel=1e-14)

    @pytest.mark.parametrize("f_m", [0.0, -1e9])
    def test_non_positive_frequency_raises(self, cfg, f_m):
        with pytest.raises(ValueError, match="subcarrier frequency must be positive"):
            lobe_geometry(f_m, PrecoderConfig(0.3, -0.2), cfg)


class TestAngleMap:
    def test_center_subcarrier_gives_psi(self, cfg):
        assert angle_map(0, PrecoderConfig(0.27, -1.3), cfg) == pytest.approx(0.27)

    def test_matched_slopes_collapse_map(self, cfg):
        vals = angle_map(cfg.m_indices, PrecoderConfig(0.4, 0.4), cfg)
        np.testing.assert_allclose(vals, 0.4, rtol=1e-14)

    def test_forward_pairing_endpoints(self, cfg):
        pc = make_pairing(-0.6, 0.05, cfg)  # forward mode
        assert angle_map(-cfg.m_half, pc, cfg) == pytest.approx(-0.65, abs=1e-12)
        assert angle_map(cfg.m_half, pc, cfg) == pytest.approx(-0.55, abs=1e-12)

    def test_forward_endpoints_positive_center(self, cfg):
        # forced forward slopes at a positive center reproduce the interval edges
        r = cfg.edge_ratio
        pc = PrecoderConfig(0.6 + r * 0.05, 0.6 + 0.05 / r)
        assert angle_map(-cfg.m_half, pc, cfg) == pytest.approx(0.55, abs=1e-12)
        assert angle_map(cfg.m_half, pc, cfg) == pytest.approx(0.65, abs=1e-12)

    def test_monotone_increasing_forward(self, cfg):
        pairing = make_pairing(-0.3, 0.04, cfg)
        vals = angle_map(cfg.m_indices, pairing, cfg)
        assert np.all(np.diff(vals) > 0)

    def test_monotone_decreasing_backward(self, cfg):
        pairing = make_pairing(0.3, 0.04, cfg)
        vals = angle_map(cfg.m_indices, pairing, cfg)
        assert np.all(np.diff(vals) < 0)


class TestPeakMap:
    def test_matched_slopes_peak_everywhere(self, cfg):
        pm = peak_map(PrecoderConfig(0.3, 0.3), cfg, grid_step=1e-3)
        assert np.all(np.abs(pm.angles - 0.3) <= 1e-3)
        assert np.all(pm.gains <= 1.0) and np.all(pm.gains >= 0.0)

    def test_valid_backward_pairing_matches_angle_map(self, cfg):
        # moderate radius: the window slope pull stays below one grid step
        pc = make_pairing(0.6, 0.04, cfg)
        pm = peak_map(pc, cfg, grid_step=2e-4)
        mapped = angle_map(pm.m_indices, pc, cfg)
        assert np.max(np.abs(pm.angles - mapped)) <= 2e-4 + 1e-12

    def test_overwide_forward_pairing_diffuses(self, cfg):
        theta0 = 0.8
        alpha = 1.1 * forward_bound(theta0, cfg)
        r = cfg.edge_ratio
        pc = PrecoderConfig(theta0 + r * alpha, theta0 + alpha / r)
        pm = peak_map(pc, cfg, grid_step=2e-4)
        mapped = angle_map(pm.m_indices, pc, cfg)
        w2_worst = 2.0 / cfg.n_bs * cfg.f_c / (cfg.f_c - cfg.m_half * cfg.f_d)
        assert np.max(np.abs(pm.angles - mapped)) > w2_worst

    def test_rejects_bad_step(self, cfg):
        with pytest.raises(ValueError):
            peak_map(PrecoderConfig(0.0, 0.0), cfg, grid_step=0.0)


def _pairing_case(draw):
    """A random array and band, and a pairing whose radius lies within its ``mode_bound``."""
    p = draw(st.integers(2, 16))
    n_ttd = draw(st.integers(2, 16))
    f_c = 100e9
    cfg = SystemConfig(
        n_bs=p * n_ttd, n_ttd=n_ttd, p=p, f_c=f_c,
        bandwidth=2 * draw(st.floats(0.01, 0.15)) * f_c, m_half=draw(st.integers(4, 32)),
    )
    theta0 = draw(st.floats(-0.8, 0.8))
    mode = draw(st.sampled_from(("auto", FORWARD, BACKWARD)))
    if mode == "auto":
        resolved = BACKWARD if theta0 >= 0 else FORWARD
    else:
        resolved = mode
    limit = mode_bound(theta0, resolved, cfg)
    assume(limit > 0)
    alpha = draw(st.floats(0.05, 1.0)) * limit
    assume(abs(theta0) + alpha <= 1.0)
    return cfg, make_pairing(theta0, alpha, cfg, mode)


def _map_deviation(cfg, pc):
    """Per subcarrier: |brute-force gain peak - angle_map| over the beam semi-width, and the grid step over it.

    For f_m > f_c the gain repeats with period 2*f_c/f_m inside [-1, 1] (the
    grating replica that the ``peak_map`` docstring warns about), so the
    deviation is taken modulo that period.
    """
    f_m = cfg.frequencies
    w2 = 2.0 * cfg.f_c / (cfg.n_bs * f_m)  # beam mainlobe semi-width
    pm = peak_map(pc, cfg, grid_step=float(w2.min()) / 8)
    period = 2.0 * cfg.f_c / f_m
    dev = pm.angles - angle_map(pm.m_indices, pc, cfg)
    dev = np.abs((dev + period / 2) % period - period / 2)
    return dev / w2, pm.grid_step / w2


class TestAngleMapAgainstPeakMap:
    @settings(max_examples=150, deadline=None)
    @given(case=st.data())
    def test_peak_stays_in_mapped_beam_while_beam_is_nearest_window_center(self, case):
        # At subcarrier m the mapped beam sits (f_b/f_c)*t_aux from the window
        # center in x; its replicas repeat every 2/p.  While r*|t_aux| < 1/p
        # (r = edge_ratio) the mapped beam is the one nearest the center at
        # every subcarrier, so the window only pulls the gain peak within the
        # mapped beam's mainlobe.  At 1/p the two tie and the grid argmax
        # breaks near-ties, hence the 0.9.
        cfg, pc = _pairing_case(case.draw)
        assume(cfg.edge_ratio * abs(pc.t_aux) <= 0.9 / cfg.p)
        dev, step = _map_deviation(cfg, pc)
        assert np.all(dev <= 1.0 + step)

    @pytest.mark.xfail(
        strict=True,
        reason="mode_bound admits pairings with r*|t_aux| > 1/p, whose edge subcarriers peak on a "
        "replica beam about one beam period from angle_map (see CHANGES.md)",
    )
    @settings(max_examples=150, deadline=None)
    @given(case=st.data())
    def test_peak_stays_in_mapped_beam_within_mode_bound(self, case):
        dev, step = _map_deviation(*_pairing_case(case.draw))
        assert np.all(dev <= 1.0 + step)


class TestSidelobeLocations:
    def test_frozen_reference_triple(self, cfg):
        pairing = make_pairing(0.8, 0.08, cfg)
        side_minus, side_plus, theta_c = sidelobe_locations(pairing, cfg)
        assert side_minus == pytest.approx(0.7484210526315789, abs=1e-12)
        assert side_plus == pytest.approx(0.8390476190476190, abs=1e-12)
        assert theta_c == pytest.approx(0.796, abs=1e-12)

    def test_weighted_frequency_identity(self, cfg):
        rng = np.random.default_rng(3)
        f_low = cfg.f_c - cfg.m_half * cfg.f_d
        f_high = cfg.f_c + cfg.m_half * cfg.f_d
        for _ in range(50):
            theta0 = rng.uniform(0.0, 0.9)
            alpha = rng.uniform(0.01, 0.1)
            sm, sp, tc = sidelobe_locations(make_pairing(theta0, alpha, cfg), cfg)
            weighted = (f_low * sm + f_high * sp) / (f_low + f_high)
            assert weighted == pytest.approx(tc, abs=1e-12)

    def test_replicas_straddle_center(self, cfg):
        rng = np.random.default_rng(4)
        for _ in range(50):
            pairing = make_pairing(rng.uniform(0.0, 0.9), rng.uniform(0.01, 0.1), cfg)
            sm, sp, tc = sidelobe_locations(pairing, cfg)
            assert (sm - tc) * (sp - tc) <= 0.0

    def test_center_gain_is_unity(self, cfg):
        rng = np.random.default_rng(5)
        for _ in range(50):
            pairing = make_pairing(rng.uniform(0.0, 0.9), rng.uniform(0.01, 0.1), cfg)
            _, _, tc = sidelobe_locations(pairing, cfg)
            g = array_gain(cfg.f_c, tc, pairing, cfg)
            assert g == pytest.approx(1.0, abs=1e-12)

    def test_requires_backward_mode(self, cfg):
        with pytest.raises(ValueError):
            sidelobe_locations(make_pairing(-0.5, 0.05, cfg), cfg)
