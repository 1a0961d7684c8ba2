from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thztrack.beampattern import peak_map
from thztrack.physmodel import (
    PathComponent,
    PrecoderConfig,
    RayKernel,
    SubcarrierGrid,
    SystemConfig,
    channel_response,
    default_config,
    from_physical,
    precoder_matrix,
    steering_vector,
    to_physical,
)
from thztrack.tracker import pilot_normals, plan_tracking, run_tracking


@pytest.fixture(scope="module")
def cfg():
    return default_config()


class TestSystemConfig:
    def test_derived_spacing(self, cfg):
        assert cfg.f_d == cfg.bandwidth / (2 * cfg.m_half)
        assert cfg.n_subcarriers == 129

    def test_spacing_follows_replace(self):
        assert replace(default_config(), m_half=32).f_d == 10e9 / 64

    def test_group_product_enforced(self):
        with pytest.raises(ValueError):
            SystemConfig(n_bs=256, n_ttd=16, p=15, f_c=100e9, bandwidth=10e9, m_half=64)

    def test_half_band_below_carrier(self):
        with pytest.raises(ValueError):
            SystemConfig(n_bs=16, n_ttd=4, p=4, f_c=1e9, bandwidth=4e9, m_half=2)


class TestSubcarrierGrid:
    def test_symmetric_and_increasing(self, cfg):
        freqs = cfg.frequencies
        assert np.all(np.diff(freqs) > 0)
        np.testing.assert_allclose(freqs + freqs[::-1], 2 * cfg.f_c, rtol=1e-15)
        assert freqs[cfg.m_half] == cfg.f_c
        assert (freqs[0], freqs[-1]) == (cfg.f_low, cfg.f_high)

    def test_probe_grid_has_the_config_frequencies(self, cfg):
        # the benchmark's set-up probe still builds SubcarrierGrid
        assert SubcarrierGrid.from_config(cfg).frequencies.tobytes() == cfg.frequencies.tobytes()


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

    def test_array_of_frequencies_stacks_rows(self, cfg):
        rows = steering_vector(cfg.frequencies, 0.3, 8, cfg.f_c)
        assert rows.shape == (cfg.n_subcarriers, 8)
        for f_m, row in zip(cfg.frequencies, rows):
            np.testing.assert_array_equal(row, steering_vector(f_m, 0.3, 8, cfg.f_c))

    def test_rejects_nonpositive_frequency(self, cfg):
        with pytest.raises(ValueError):
            steering_vector(0.0, 0.3, 4, cfg.f_c)


class TestChannelResponse:
    def test_center_subcarrier_is_pure_steering(self, cfg):
        ch = channel_response(PathComponent(1.0 + 0j, 0.3), cfg)
        np.testing.assert_allclose(
            ch.h[cfg.m_half], steering_vector(cfg.f_c, 0.3, cfg.n_bs, cfg.f_c), atol=1e-14
        )

    def test_complex_gain_scales_all_entries(self, cfg):
        ch = channel_response(PathComponent(2j, 0.0), cfg)
        np.testing.assert_allclose(ch.h, 2j * np.ones_like(ch.h), atol=1e-14)

    def test_unit_modulus_for_unit_gain_zero_delay(self, cfg):
        ch = channel_response(PathComponent(1.0 + 0j, -0.7), cfg)
        np.testing.assert_allclose(np.abs(ch.h), 1.0, rtol=1e-14)

    def test_direction_out_of_range(self):
        with pytest.raises(ValueError):
            PathComponent(1.0 + 0j, 1.2)


class TestAssemblePrecoder:
    """The per-subcarrier precoders: rows of ``precoder_matrix``."""

    def test_center_subcarrier_is_dft_ramp(self, cfg):
        pc = PrecoderConfig(psi=0.4, t_aux=1.6)
        vec = precoder_matrix(pc, cfg)[cfg.m_half]
        expected = np.exp(-1j * np.pi * 0.4 * np.arange(cfg.n_bs))
        np.testing.assert_allclose(vec, expected, atol=1e-13)

    def test_zero_slopes_all_ones(self, cfg):
        vec = precoder_matrix(PrecoderConfig(0.0, 0.0), cfg)[cfg.m_half + 3]
        np.testing.assert_allclose(vec, np.ones(cfg.n_bs), atol=1e-15)

    def test_unit_modulus(self, cfg):
        vec = precoder_matrix(PrecoderConfig(0.6025, 1.6), cfg)[2 * cfg.m_half]
        np.testing.assert_allclose(np.abs(vec), 1.0, rtol=1e-14)

    def test_group_structure(self, cfg):
        pc = PrecoderConfig(psi=0.11, t_aux=-0.7)
        vec = precoder_matrix(pc, cfg)[cfg.m_half - 17]
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
    """Received pilot samples: h^H f from ChannelResponse.precoded, noise from run_tracking."""

    def test_aligned_inner_product(self, cfg):
        ch = channel_response(PathComponent(1.0 + 0j, 0.3), cfg)
        assert ch.precoded(RayKernel([0.3], [0.3], cfg))[cfg.m_half, 0] == pytest.approx(cfg.n_bs)

    def test_orthogonal_beams(self, cfg):
        ch = channel_response(PathComponent(1.0 + 0j, 0.5), cfg)
        psi = 0.5 + 2.0 / cfg.n_bs
        assert abs(ch.precoded(RayKernel([psi], [psi], cfg))[cfg.m_half, 0]) == pytest.approx(0.0, abs=1e-9)

    def test_noise_reproducible(self, cfg):
        plan = plan_tracking(0.2, 0.05, 2, cfg)
        ch = channel_response(PathComponent(1.0 + 0j, 0.2), cfg)
        y1 = run_tracking(plan, ch, noise_std=0.1, normals=pilot_normals(42, 2, cfg.n_subcarriers)).y
        y2 = run_tracking(plan, ch, noise_std=0.1, normals=pilot_normals(42, 2, cfg.n_subcarriers)).y
        y3 = run_tracking(plan, ch, noise_std=0.1, normals=pilot_normals(43, 2, cfg.n_subcarriers)).y
        np.testing.assert_array_equal(y1, y2)
        assert np.all(y1 != y3)

    def test_noise_statistics(self, cfg):
        rng = np.random.default_rng(0)
        plan = plan_tracking(0.2, 0.05, 4, cfg)
        ch = channel_response(PathComponent(1.0 + 0j, 0.2), cfg)
        clean = run_tracking(plan, ch, 0.0).y
        samples = np.concatenate(
            [(run_tracking(plan, ch, 2.0, pilot_normals(rng, 4, cfg.n_subcarriers)).y - clean).ravel()
             for _ in range(8)]
        )
        assert samples.size >= 4000
        assert np.mean(np.abs(samples) ** 2) == pytest.approx(4.0, rel=0.1)

    def test_length_mismatch(self, cfg):
        with pytest.raises(ValueError):
            RayKernel(np.zeros(4), np.zeros(5), cfg)


class TestWidebandBeamforming:
    def test_matched_slopes_peak_at_target_everywhere(self, cfg):
        # with both slopes on the target the gain peaks there at every subcarrier
        theta0 = 0.35
        pm = peak_map(PrecoderConfig(theta0, theta0), cfg, grid_step=1e-3)
        assert np.all(np.abs(pm.angles - theta0) <= 5e-4 + 1e-12)
        assert np.all(pm.gains > 0.9)


# Tolerances fixed from the dtype before any measurement.  The dense oracle
# sums n_bs terms whose phases reach ~pi*n_bs*(|theta| + |psi| + |t|), each
# rounded to eps relative, so its own error scale is n_bs^2*eps for c and
# pi*n_bs^3*eps for dc/dtheta (term k carries the extra factor pi*(f_m/f_c)*k).
# With C = 8 the largest ratio seen over 1500 random configs was 3.2 (c) and
# 2.8 (dc/dtheta); the quotient-rule derivative without the near-singular
# branch is off by ~1e-8 relative at 1e-9 from a singularity and fails.
_RAY_TOL_C = 8.0
_EPS = np.finfo(float).eps


@st.composite
def _ray_cases(draw):
    """Random array/band and slot slopes, a third of them exactly on and a third within 1e-9 of
    the removable singularities theta = psi = t."""
    p = draw(st.integers(1, 16))
    n_ttd = draw(st.integers(1, 16))
    f_c = draw(st.floats(1e9, 1e12))
    edge_ratio = draw(st.floats(0.01, 0.45))
    system = SystemConfig(
        n_bs=p * n_ttd, n_ttd=n_ttd, p=p, f_c=f_c, bandwidth=2 * edge_ratio * f_c,
        m_half=draw(st.integers(1, 32)),
    )
    theta = draw(st.floats(-1.0, 1.0))
    kind = draw(st.sampled_from(("random", "singular", "near")))
    slots = 3
    if kind == "random":
        psi = draw(st.lists(st.floats(-1.0, 1.0), min_size=slots, max_size=slots))
        t_aux = draw(st.lists(st.floats(-4.0, 4.0), min_size=slots, max_size=slots))
    elif kind == "singular":
        psi = t_aux = [theta] * slots
    else:
        offsets = st.lists(st.floats(-1e-9, 1e-9), min_size=slots, max_size=slots)
        psi = [theta + d for d in draw(offsets)]
        t_aux = [theta + d for d in draw(offsets)]
    return system, theta, np.array(psi), np.array(t_aux)


def _dense_ray_response(system, theta, psi, t_aux):
    """c and dc/dtheta from explicit steering/precoder inner products."""
    k = np.arange(system.n_bs)
    a = steering_vector(system.frequencies, theta, system.n_bs, system.f_c)
    da = 1j * np.pi * (system.frequencies / system.f_c)[:, None] * k * a.conj()
    c = np.empty((system.n_subcarriers, len(psi)), dtype=complex)
    dc = np.empty_like(c)
    for l, (ps, t) in enumerate(zip(psi, t_aux)):
        f = precoder_matrix(PrecoderConfig(ps, t), system)
        c[:, l] = np.einsum("mn,mn->m", a.conj(), f)
        dc[:, l] = np.einsum("mn,mn->m", da, f)
    return c, dc


class TestRayResponse:
    @settings(max_examples=400, deadline=None)
    @given(case=_ray_cases())
    def test_matches_dense_inner_products(self, case):
        system, theta, psi, t_aux = case
        kernel = RayKernel(psi, t_aux, system)
        ev = kernel.evaluate(theta)
        c, dc = ev.c, kernel.slope(ev)
        want_c, want_dc = _dense_ray_response(system, theta, psi, t_aux)
        n = system.n_bs
        assert np.max(np.abs(c - want_c)) <= _RAY_TOL_C * n**2 * _EPS
        assert np.max(np.abs(dc - want_dc)) <= _RAY_TOL_C * np.pi * n**3 * _EPS
        np.testing.assert_array_equal(kernel(theta), c)

    def test_amplitude_is_the_evaluated_amplitude(self, cfg):
        kernel = RayKernel([0.21, -0.35, 0.3], [0.6, -1.1, 0.3], cfg)
        for theta in (0.3, -0.4, 0.2999999):
            ev = kernel.evaluate(theta)
            np.testing.assert_array_equal(kernel.amplitude(theta), ev.amp)
            np.testing.assert_allclose(np.abs(ev.c), np.abs(ev.amp), rtol=4 * _EPS, atol=0)

    def test_full_array_gain_at_exact_singularity(self, cfg):
        c = RayKernel([0.3, 0.3], [0.3, 0.3], cfg)(0.3)
        assert c.shape == (cfg.n_subcarriers, 2)
        assert c[cfg.m_half, 0] == cfg.n_bs

    def test_channel_pilots_match_dense_channel(self, cfg):
        ch = channel_response(PathComponent(0.8 - 0.3j, 0.2), cfg)
        psi, t_aux = [0.21, -0.35], [0.6, -1.1]
        dense = np.stack(
            [np.einsum("mn,mn->m", ch.h.conj(), precoder_matrix(PrecoderConfig(ps, t), cfg))
             for ps, t in zip(psi, t_aux)],
            axis=1,
        )
        atol = 2 * _RAY_TOL_C * cfg.n_bs**2 * _EPS
        np.testing.assert_allclose(ch.precoded(RayKernel(psi, t_aux, cfg)), dense, rtol=0, atol=atol)


# Fixed before any run, on the same scale as the tolerances above: the term
# sum carries n*eps of rounding for c and pi*n^2*eps for dc/dtheta, and the
# kernel's two branches stay within a few times that, so C*n^2*eps and
# C*pi*n^3*eps with C = 8 leave room while the quotient rule alone (off by
# ~eps/|u| at the tiny arguments drawn here) fails.
_BRANCH_TOL_C = 8.0


@st.composite
def _branch_edge_cases(draw):
    """A one-group array (the p-element window or the n_ttd-element beam, n = 2..32) whose
    centre-subcarrier argument z = theta - psi sits at the near-singular edge |n*u| = 0.5
    (u = pi*z/2), on either side of it, far inside it, or exactly at 0."""
    n = draw(st.integers(2, 32))
    window = draw(st.booleans())
    system = SystemConfig(
        n_bs=n, n_ttd=1 if window else n, p=n if window else 1, f_c=100e9,
        bandwidth=draw(st.floats(1e6, 1e9)), m_half=draw(st.integers(1, 8)),
    )
    edge = 1.0 / (np.pi * n)
    z = draw(st.one_of(
        st.just(0.0),
        st.floats(-1e-3, 1e-3).map(lambda d: edge * (1.0 + d)),
        st.floats(0.5, 2.0).map(lambda s: edge * s),
        st.floats(1e-12, 1e-6),
    ))
    theta = draw(st.floats(-0.5, 0.5))
    psi = theta - draw(st.sampled_from((1.0, -1.0))) * z
    return system, theta, psi


class TestSlopeBranches:
    @settings(max_examples=300, deadline=None)
    @given(case=_branch_edge_cases())
    def test_slope_matches_term_sum_across_branch_edge(self, case):
        system, theta, psi = case
        n = system.n_bs
        kernel = RayKernel([psi], [0.0], system)
        ev = kernel.evaluate(theta)
        c, dc = ev.c, kernel.slope(ev)
        # G_n(x) = sum_{i<n} exp(j*pi*x*i) term by term, x = (f_m/f_c)*theta - psi
        rho = system.frequencies / system.f_c
        i = np.arange(n)
        terms = np.exp(1j * np.pi * np.outer(rho * theta - psi, i))
        want_c = terms.sum(axis=1)
        want_dc = 1j * np.pi * rho * (terms @ i)
        assert np.max(np.abs(c[:, 0] - want_c)) <= _BRANCH_TOL_C * n**2 * _EPS
        assert np.max(np.abs(dc[:, 0] - want_dc)) <= _BRANCH_TOL_C * np.pi * n**3 * _EPS


@st.composite
def _vector_cases(draw):
    """A random array/band, 1-4 slots, and 2-5 angles in random order: one exactly on a cell
    (the centre subcarrier, rho = 1, at theta = psi_l, so x = 0), one inside the slope's
    near-singular band |p*u| < 0.5 of the window around it, and up to three random ones."""
    p = draw(st.integers(1, 16))
    n_ttd = draw(st.integers(1, 16))
    f_c = 100e9
    system = SystemConfig(
        n_bs=p * n_ttd, n_ttd=n_ttd, p=p, f_c=f_c, bandwidth=2 * draw(st.floats(0.01, 0.45)) * f_c,
        m_half=draw(st.integers(1, 32)),
    )
    slots = draw(st.integers(1, 4))
    psi = draw(st.lists(st.floats(-0.9, 0.9), min_size=slots, max_size=slots))
    t_aux = draw(st.lists(st.floats(-4.0, 4.0), min_size=slots, max_size=slots))
    on_cell = psi[draw(st.integers(0, slots - 1))]
    near = on_cell + draw(st.floats(-0.9, 0.9)) / (np.pi * p)
    others = draw(st.lists(st.floats(-1.0, 1.0), max_size=3))
    thetas = draw(st.permutations([on_cell, near, *others]))
    return system, np.array(psi), np.array(t_aux), np.array(thetas)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _evals_equal(got, want):
    """Every array of two RayEvals, the Dirichlet factors included, bit for bit."""
    return all(_same_bits(a, b) for a, b in zip(
        (got.c, got.amp, got.rot, *got.window, *got.beam),
        (want.c, want.amp, want.rot, *want.window, *want.beam),
    ))


class TestVectorAngles:
    @settings(max_examples=300, deadline=None)
    @given(case=_vector_cases())
    def test_each_slice_is_the_single_angle_call(self, case):
        system, psi, t_aux, thetas = case
        kernel = RayKernel(psi, t_aux, system)
        for angles in (thetas, thetas[:1]):
            evs = kernel.evaluate(angles)
            assert evs.c.shape == (len(angles), system.n_subcarriers, len(psi))
            amps, cs = kernel.amplitude(angles), kernel(angles)
            for k, theta in enumerate(angles.tolist()):
                one = kernel.evaluate(theta)
                assert _evals_equal(evs.at(k), one)
                assert _same_bits(kernel.slope(evs.at(k)), kernel.slope(one))
                assert _same_bits(amps[k], kernel.amplitude(theta))
                assert _same_bits(cs[k], kernel(theta))

    @pytest.mark.parametrize("method", ["evaluate", "amplitude", "__call__"])
    def test_angle_array_of_two_dimensions_is_rejected(self, cfg, method):
        kernel = RayKernel([0.3], [0.3], cfg)
        with pytest.raises(ValueError, match=r"\(2, 3\)"):
            getattr(kernel, method)(np.zeros((2, 3)))


@st.composite
def _batch_cases(draw):
    """A random array/band of at most 128 antennas, U = 1-6 kernels of 1-8 slots each, and one angle per
    kernel: on one of its cells (the centre subcarrier at theta = psi_l, so x = 0), inside the slope's
    near-singular band around it, or anywhere."""
    p = draw(st.integers(1, 16))
    n_ttd = draw(st.integers(1, 128 // p))
    f_c = 100e9
    system = SystemConfig(
        n_bs=p * n_ttd, n_ttd=n_ttd, p=p, f_c=f_c, bandwidth=2 * draw(st.floats(0.01, 0.45)) * f_c,
        m_half=draw(st.integers(1, 32)),
    )
    users = draw(st.integers(1, 6))
    slots = draw(st.integers(1, 8))
    slopes = st.lists(st.lists(st.floats(-0.9, 0.9), min_size=slots, max_size=slots), min_size=users, max_size=users)
    psi = np.array(draw(slopes))
    t_aux = 4.0 * np.array(draw(slopes))
    thetas = []
    for row in psi:
        on_cell = row[draw(st.integers(0, slots - 1))]
        thetas.append(draw(st.sampled_from([
            on_cell, on_cell + draw(st.floats(-0.9, 0.9)) / (np.pi * p), draw(st.floats(-1.0, 1.0)),
        ])))
    return system, psi, t_aux, np.array(thetas)


class TestBatchedSlopes:
    # The example count was fixed before any run.
    @settings(max_examples=200, deadline=None)
    @given(case=_batch_cases())
    def test_each_row_is_its_own_kernel_at_its_own_angle(self, case):
        system, psi, t_aux, thetas = case
        users, slots = psi.shape
        kernel = RayKernel(psi, t_aux, system)
        evs = kernel.evaluate(thetas)
        assert evs.c.shape == (users, system.n_subcarriers, slots)
        amps = kernel.amplitude(thetas)
        # a scalar angle broadcasts against every kernel
        at_first = kernel(thetas[0])
        for u, theta in enumerate(thetas.tolist()):
            own = RayKernel(psi[u], t_aux[u], system)
            one = own.evaluate(theta)
            assert _same_bits(evs.c[u], one.c)
            assert _same_bits(amps[u], own.amplitude(theta))
            assert _same_bits(kernel.slope(evs.at(u)), own.slope(one))
            assert _same_bits(at_first[u], own(thetas[0]))
        # 1-D slopes keep the K-angle rule: row k is the one kernel at angle k
        first = RayKernel(psi[0], t_aux[0], system)
        many = first(thetas)
        assert many.shape == (users, system.n_subcarriers, slots)
        assert all(_same_bits(many[k], first(theta)) for k, theta in enumerate(thetas.tolist()))

    @pytest.mark.parametrize("method", ["evaluate", "amplitude", "__call__"])
    def test_angles_that_do_not_broadcast_against_the_slopes_are_rejected(self, cfg, method):
        kernel = RayKernel(np.zeros((3, 2)), np.zeros((3, 2)), cfg)
        with pytest.raises(ValueError, match=r"\(4,\).*\(3,\)"):
            getattr(kernel, method)(np.zeros(4))
