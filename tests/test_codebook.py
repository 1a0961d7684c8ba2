from dataclasses import replace

import numpy as np
import pytest

from thztrack import (
    PrecoderConfig,
    SystemConfig,
    angle_map,
    array_gain,
    build_codebook,
    default_config,
    dirichlet,
    make_pairing,
    peak_map,
    quantized_pairing,
    snap,
)


@pytest.fixture(scope="module")
def cfg():
    return default_config()


@pytest.fixture(scope="module")
def cb(cfg):
    return build_codebook(cfg)


class TestBuildCodebook:
    def test_psi_grid_size_and_step(self, cfg, cb):
        values = cb.psi_grid.values
        assert len(values) == cfg.n_bs + 1
        assert values[0] == -1.0 and values[-1] == 1.0
        np.testing.assert_allclose(np.diff(values), 2.0 / cfg.n_bs)

    def test_t_grid_extremes(self, cfg, cb):
        t_max = cfg.f_c / (cfg.m_half * cfg.f_d * cfg.p)
        assert t_max == pytest.approx(1.25)
        assert cb.t_grid.values[0] == pytest.approx(-t_max)
        assert cb.t_grid.values[-1] == pytest.approx(t_max)

    def test_t_grid_segment_resolutions(self, cfg, cb):
        v = cb.t_grid.values
        inner = v[(v >= -1.0) & (v <= 1.0)]
        outer = v[v > 1.0]
        assert np.max(np.diff(inner)) <= 2.0 / cfg.n_bs + 1e-12
        assert np.max(np.diff(outer)) <= 2.0 / cfg.p + 1e-12

    def test_grids_symmetric_about_zero(self, cb):
        for grid in (cb.psi_grid, cb.t_grid):
            np.testing.assert_allclose(grid.values, -grid.values[::-1], atol=1e-15)

    def test_degenerate_band_collapses_outer_segments(self):
        # edge offset ratio 0.2 >= 1/p, so the delay extreme is below 1
        cfg = SystemConfig(n_bs=64, n_ttd=8, p=8, f_c=10e9, bandwidth=4e9, m_half=16)
        cb = build_codebook(cfg)
        assert cb.t_grid.values[0] == -1.0
        assert cb.t_grid.values[-1] == 1.0
        assert len(cb.t_grid.segments) == 1


    def test_one_read_only_codebook_per_config(self, cfg, cb):
        assert build_codebook(cfg) is cb
        assert build_codebook(replace(cfg, m_half=32, f_d=None)) is not cb
        for grid in (cb.psi_grid, cb.t_grid):
            with pytest.raises(ValueError, match="read-only"):
                grid.values[0] = 0.0


class TestSnap:
    def test_rounds_to_nearest(self, cb):
        assert snap(0.003, cb.psi_grid) == 0.0

    def test_exact_point_unchanged(self, cb):
        v = float(cb.psi_grid.values[100])
        assert snap(v, cb.psi_grid) == v

    def test_clamps_outside_range(self, cb):
        assert snap(1.5, cb.t_grid) == pytest.approx(1.25)
        assert snap(-7.0, cb.t_grid) == pytest.approx(-1.25)

    def test_tie_breaks_to_smaller(self, cb):
        step = 2.0 / 256
        midpoint = 0.0 + step / 2
        assert snap(midpoint, cb.psi_grid) == 0.0

    def test_nan_rejected(self, cb):
        with pytest.raises(ValueError, match="nan"):
            snap(float("nan"), cb.psi_grid)

    def test_matches_nearest_codeword_search(self, cb):
        rng = np.random.default_rng(5)
        values = cb.t_grid.values
        for v in np.concatenate([rng.uniform(-2.0, 2.0, 500), values, values[:-1] + np.diff(values) / 2]):
            i = int(np.searchsorted(values, v))
            lo, hi = values[max(i - 1, 0)], values[min(i, len(values) - 1)]
            want = lo if v - lo <= hi - v else hi
            got = snap(float(v), cb.t_grid)
            assert type(got) is float and got == want


class TestQuantizedPairing:
    def test_on_grid_pairing_unchanged(self, cfg, cb):
        # slopes chosen exactly on codewords survive snapping untouched
        psi = float(cb.psi_grid.values[200])
        t = float(cb.t_grid.values[10])
        pairing = make_pairing(0.5, 0.05, cfg)
        pairing = type(pairing)(
            mode=pairing.mode, theta0=0.5, alpha=0.05, psi=psi, t_aux=t
        )
        snapped = quantized_pairing(pairing, cb)
        assert snapped.psi == psi and snapped.t_aux == t

    def test_beamforming_only_regime_radius(self, cfg):
        # with the delay slope confined to [-1, 1] the largest angle-independent
        # radius drops to the edge offset ratio
        r = cfg.edge_ratio
        for theta0 in (0.0, 0.4, 1.0):
            t = theta0 - (r * (1 + theta0)) / r
            assert -1.0 <= t <= 1.0
        t_over = 0.0 - (r * 1.01) / r
        assert t_over < -1.0

    def test_snapped_pairing_keeps_bijection(self, cfg, cb):
        pairing = make_pairing(0.3, 0.04, cfg)
        snapped = quantized_pairing(pairing, cb)
        assert abs(snapped.psi - pairing.psi) <= 1.0 / cfg.n_bs + 1e-12
        assert abs(snapped.t_aux - pairing.t_aux) <= 1.0 / cfg.n_bs + 1e-12
        pc = PrecoderConfig(snapped.psi, snapped.t_aux)
        pm = peak_map(pc, cfg, grid_step=2e-4)
        mapped = angle_map(pm.m_indices, pc, cfg)
        assert np.max(np.abs(pm.angles - mapped)) <= 2e-4 + 1e-12


class TestQuantizedBeamformingLoss:
    def test_center_subcarrier_gain_floor(self, cfg, cb):
        # worst case is a half-step offset: the gain can reach but not undercut
        # the kernel value at half the codeword spacing
        floor = dirichlet(cfg.n_bs, 1.0 / cfg.n_bs)
        rng = np.random.default_rng(9)
        for _ in range(100):
            theta0 = rng.uniform(-1, 1)
            q = snap(theta0, cb.psi_grid)
            gain = array_gain(cfg.f_c, theta0, PrecoderConfig(q, q), cfg)
            assert gain >= floor - 1e-12
