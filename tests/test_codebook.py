import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import thztrack
from thztrack.beampattern import angle_map, array_gain, dirichlet, peak_map
from thztrack.codebook import QuantGrid, _uniform_closed, build_codebook, quantized_pairing, snap
from thztrack.pairing import make_pairing
from thztrack.physmodel import PrecoderConfig, SystemConfig, default_config


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
        np.testing.assert_array_equal(cb.t_grid.values, cb.psi_grid.values)


    @settings(max_examples=200, deadline=None)
    @given(p=st.integers(1, 16), n_ttd=st.integers(1, 16), m_half=st.integers(1, 32),
           extreme=st.floats(0.5, 20.0))
    # a delay extreme of 1 + 1e-10 lies within 1e-9 steps of 1, so the outer segment is [t_max] alone
    @example(p=8, n_ttd=4, m_half=16, extreme=1.0000000001)
    def test_delay_grid_is_the_sorted_union_of_its_segments(self, p, n_ttd, m_half, extreme):
        # the band that gives this delay extreme: t_max = f_c/(m_half*f_d*p) = 2*f_c/(bandwidth*p)
        assume(p * extreme > 1.0)
        cfg = SystemConfig(n_bs=p * n_ttd, n_ttd=n_ttd, p=p, f_c=100e9, bandwidth=200e9 / (p * extreme), m_half=m_half)
        inner = _uniform_closed(-1.0, 1.0, 2.0 / cfg.n_bs)
        want = inner
        t_max = cfg.f_c / (cfg.m_half * cfg.f_d * cfg.p)
        if t_max > 1.0:
            pos = _uniform_closed(1.0, t_max, 2.0 / cfg.p)
            want = np.unique(np.concatenate([-pos[::-1], inner, pos]))
        # the uncached builder: 200 configs would evict the shared codebooks other tests hold
        got = build_codebook.__wrapped__(cfg).t_grid.values
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_building_a_codebook_loads_no_masked_arrays(self):
        # np.unique imports numpy.ma on first use, which costs ~10 ms in a fresh interpreter
        code = (
            "import sys\n"
            "from thztrack.codebook import build_codebook\n"
            "from thztrack.physmodel import SystemConfig\n"
            "build_codebook(SystemConfig(n_bs=64, n_ttd=8, p=8, f_c=100e9, bandwidth=10e9, m_half=16))\n"
            "print('numpy.ma' in sys.modules)"
        )
        src = str(Path(thztrack.__file__).resolve().parents[1])
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert (run.returncode, run.stdout.strip()) == (0, "False"), run.stderr

    def test_one_read_only_codebook_per_config(self, cfg, cb):
        assert build_codebook(cfg) is cb
        assert build_codebook(replace(cfg, m_half=32)) is not cb
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

    def test_one_codeword_and_empty_grids(self):
        assert [snap(v, QuantGrid(np.array([0.5]))) for v in (-np.inf, -2.0, 0.5, 3.0, np.inf)] == [0.5] * 5
        with pytest.raises(ValueError, match="empty"):
            snap(0.1, QuantGrid(np.array([])))

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
        for v in np.concatenate([rng.uniform(-2.0, 2.0, 500), values, values[:-1] + np.diff(values) / 2, [-np.inf, np.inf]]):
            i = int(np.searchsorted(values, v))
            lo, hi = values[max(i - 1, 0)], values[min(i, len(values) - 1)]
            want = lo if v - lo <= hi - v else hi
            got = snap(float(v), cb.t_grid)
            assert type(got) is float and got == want


class TestNearest:
    """:func:`snap` gives the nearest codeword, clamping to the end codewords."""

    def test_values_beyond_both_ends_clamp(self, cb):
        for grid in (cb.psi_grid, cb.t_grid):
            v = grid.points
            beyond = [-np.inf, v[0] - 5.0, v[-1] + 5.0, np.inf]
            assert [snap(x, grid) for x in beyond] == [v[0], v[0], v[-1], v[-1]]


class TestQuantizedPairing:
    @pytest.mark.parametrize("theta0, alpha, mode", [(0.5, 0.05, "auto"), (-0.3, 0.2, "backward"), (0.6, 0.14, "auto")])
    def test_equals_the_replace_form_field_for_field(self, cfg, cb, theta0, alpha, mode):
        pairing = make_pairing(theta0, alpha, cfg, mode)
        want = replace(pairing, psi=snap(pairing.psi, cb.psi_grid), t_aux=snap(pairing.t_aux, cb.t_grid))
        got = quantized_pairing(pairing, cb)
        assert type(got) is type(want)
        for f in fields(want):
            assert type(getattr(got, f.name)) is type(getattr(want, f.name))
            assert getattr(got, f.name) == getattr(want, f.name), f.name

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
        pm = peak_map(snapped, cfg, grid_step=2e-4)
        mapped = angle_map(pm.m_indices, snapped, cfg)
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
