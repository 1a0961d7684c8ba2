import numpy as np
import pytest

from thztrack import (
    PathComponent,
    PrecoderConfig,
    SubcarrierGrid,
    SystemConfig,
    assemble_precoder,
    channel_response,
    default_config,
    from_physical,
    peak_map,
    simulate_rx,
    steering_vector,
    to_physical,
)


@pytest.fixture(scope="module")
def cfg():
    return default_config()


@pytest.fixture(scope="module")
def grid(cfg):
    return SubcarrierGrid.from_config(cfg)


class TestSystemConfig:
    def test_derived_spacing(self, cfg):
        assert cfg.f_d == cfg.bandwidth / (2 * cfg.m_half)
        assert cfg.n_subcarriers == 129

    def test_group_product_enforced(self):
        with pytest.raises(ValueError):
            SystemConfig(n_bs=256, n_ttd=16, p=15, f_c=100e9, bandwidth=10e9, m_half=64)

    def test_half_band_below_carrier(self):
        with pytest.raises(ValueError):
            SystemConfig(n_bs=16, n_ttd=4, p=4, f_c=1e9, bandwidth=4e9, m_half=2)

    def test_inconsistent_spacing_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(n_bs=16, n_ttd=4, p=4, f_c=100e9, bandwidth=10e9, m_half=4, f_d=1e9)


class TestSubcarrierGrid:
    def test_symmetric_and_increasing(self, cfg, grid):
        assert np.all(np.diff(grid.frequencies) > 0)
        np.testing.assert_allclose(
            grid.frequencies + grid.frequencies[::-1], 2 * cfg.f_c, rtol=1e-15
        )
        assert grid.baseband[cfg.m_half] == 0.0


class TestSteeringVector:
    def test_pi_phase(self, cfg):
        np.testing.assert_allclose(
            steering_vector(cfg.f_c, 1.0, 2, cfg.f_c), [1.0, -1.0], atol=1e-15
        )

    def test_zero_direction(self, cfg):
        np.testing.assert_allclose(
            steering_vector(cfg.f_c, 0.0, 4, cfg.f_c), np.ones(4), atol=1e-15
        )

    def test_edge_subcarrier_phases(self, cfg):
        f_m = cfg.f_c + cfg.m_half * cfg.f_d
        vec = steering_vector(f_m, 0.5, 3, cfg.f_c)
        expected_phases = -np.pi * (f_m / cfg.f_c) * 0.5 * np.arange(3)
        np.testing.assert_allclose(np.angle(vec[1:]), np.angle(np.exp(1j * expected_phases[1:])))
        np.testing.assert_allclose(np.abs(vec), 1.0, rtol=1e-15)

    def test_rejects_nonpositive_frequency(self, cfg):
        with pytest.raises(ValueError):
            steering_vector(0.0, 0.3, 4, cfg.f_c)


class TestChannelResponse:
    def test_center_subcarrier_is_pure_steering(self, cfg, grid):
        ch = channel_response(PathComponent(1.0 + 0j, 0.3, 0.0), grid, cfg)
        np.testing.assert_allclose(
            ch.h[cfg.m_half], steering_vector(cfg.f_c, 0.3, cfg.n_bs, cfg.f_c), atol=1e-14
        )

    def test_complex_gain_scales_all_entries(self, cfg, grid):
        ch = channel_response(PathComponent(2j, 0.0, 0.0), grid, cfg)
        np.testing.assert_allclose(ch.h, 2j * np.ones_like(ch.h), atol=1e-14)

    def test_delay_phase_factor(self, cfg, grid):
        tau = 1e-9
        ch = channel_response(PathComponent(1.0 + 0j, 0.3, tau), grid, cfg)
        base = steering_vector(cfg.f_c + cfg.m_half * cfg.f_d, 0.3, cfg.n_bs, cfg.f_c)
        factor = np.exp(-2j * np.pi * cfg.m_half * cfg.f_d * tau)
        np.testing.assert_allclose(ch.h[2 * cfg.m_half], factor * base, atol=1e-13)

    def test_unit_modulus_for_unit_gain_zero_delay(self, cfg, grid):
        ch = channel_response(PathComponent(1.0 + 0j, -0.7, 0.0), grid, cfg)
        np.testing.assert_allclose(np.abs(ch.h), 1.0, rtol=1e-14)

    def test_multipath_sums(self, cfg, grid):
        p1 = PathComponent(1.0 + 0j, 0.2, 0.0)
        p2 = PathComponent(0.5j, -0.4, 1e-10)
        both = channel_response([p1, p2], grid, cfg)
        np.testing.assert_allclose(
            both.h, channel_response(p1, grid, cfg).h + channel_response(p2, grid, cfg).h
        )

    def test_direction_out_of_range(self):
        with pytest.raises(ValueError):
            PathComponent(1.0 + 0j, 1.2, 0.0)


class TestAssemblePrecoder:
    def test_center_subcarrier_is_dft_ramp(self, cfg):
        pc = PrecoderConfig(psi=0.4, t_aux=1.6)
        vec = assemble_precoder(pc, cfg.f_c, cfg)
        expected = np.exp(-1j * np.pi * 0.4 * np.arange(cfg.n_bs))
        np.testing.assert_allclose(vec, expected, atol=1e-13)

    def test_zero_slopes_all_ones(self, cfg):
        vec = assemble_precoder(PrecoderConfig(0.0, 0.0), cfg.f_c + 3 * cfg.f_d, cfg)
        np.testing.assert_allclose(vec, np.ones(cfg.n_bs), atol=1e-15)

    def test_unit_modulus(self, cfg):
        vec = assemble_precoder(PrecoderConfig(0.6025, 1.6), cfg.f_c + cfg.m_half * cfg.f_d, cfg)
        np.testing.assert_allclose(np.abs(vec), 1.0, rtol=1e-14)

    def test_group_structure(self, cfg):
        pc = PrecoderConfig(psi=0.11, t_aux=-0.7)
        f_m = cfg.f_c - 17 * cfg.f_d
        vec = assemble_precoder(pc, f_m, cfg)
        fb_ratio = -17 * cfg.f_d / cfg.f_c
        for k in (0, 1, cfg.p - 1, cfg.p, 5 * cfg.p + 3, cfg.n_bs - 1):
            q = k // cfg.p
            expected = np.exp(-1j * np.pi * (k * 0.11 + fb_ratio * cfg.p * q * (-0.7)))
            assert vec[k] == pytest.approx(expected, abs=1e-13)


class TestEquivalentModelBijection:
    def test_round_trip_recovers_ramps(self, cfg):
        pc = PrecoderConfig(psi=0.317, t_aux=-1.234)
        phi, t_hat = to_physical(pc, cfg)
        psi_vec, t_vec = from_physical(phi, t_hat, cfg)
        np.testing.assert_allclose(psi_vec, np.arange(cfg.n_bs) * pc.psi, rtol=1e-13, atol=1e-10)
        np.testing.assert_allclose(
            t_vec, cfg.p * np.arange(cfg.n_ttd) * pc.t_aux, rtol=1e-13, atol=1e-10
        )

    def test_physical_delay_scale(self, cfg):
        _, t_hat = to_physical(PrecoderConfig(0.0, 1.0), cfg)
        np.testing.assert_allclose(t_hat, cfg.p * np.arange(cfg.n_ttd) / (2 * cfg.f_c))


class TestSimulateRx:
    def test_aligned_inner_product(self, cfg):
        f = assemble_precoder(PrecoderConfig(0.3, 0.3), cfg.f_c, cfg)
        assert simulate_rx(f, f) == pytest.approx(cfg.n_bs)

    def test_orthogonal_beams(self, cfg):
        a = steering_vector(cfg.f_c, 0.5, cfg.n_bs, cfg.f_c)
        b = steering_vector(cfg.f_c, 0.5 + 2.0 / cfg.n_bs, cfg.n_bs, cfg.f_c)
        assert abs(simulate_rx(a, b)) == pytest.approx(0.0, abs=1e-9)

    def test_noise_reproducible(self, cfg):
        h = steering_vector(cfg.f_c, 0.2, cfg.n_bs, cfg.f_c)
        y1 = simulate_rx(h, h, noise_std=0.1, rng=42)
        y2 = simulate_rx(h, h, noise_std=0.1, rng=42)
        y3 = simulate_rx(h, h, noise_std=0.1, rng=43)
        assert y1 == y2
        assert y1 != y3

    def test_noise_statistics(self, cfg):
        rng = np.random.default_rng(0)
        h = np.ones(4)
        samples = np.array([simulate_rx(h, h, noise_std=2.0, rng=rng) - 4.0 for _ in range(4000)])
        assert np.mean(np.abs(samples) ** 2) == pytest.approx(4.0, rel=0.1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            simulate_rx(np.ones(4), np.ones(5))


class TestWidebandBeamforming:
    def test_matched_slopes_peak_at_target_everywhere(self, cfg):
        # with both slopes on the target the gain peaks there at every subcarrier
        theta0 = 0.35
        pm = peak_map(PrecoderConfig(theta0, theta0), cfg, grid_step=1e-3)
        assert np.all(np.abs(pm.angles - theta0) <= 5e-4 + 1e-12)
        assert np.all(pm.gains > 0.9)
