from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thztrack.beampattern import angle_map, array_gain, sidelobe_locations
from thztrack.codebook import build_codebook, quantized_pairing
from thztrack.pairing import (
    BACKWARD,
    PairingConfig,
    backward_bound,
    fixed_radius,
    forward_backward_bound,
    forward_bound,
    forward_single_slot_bound,
    inter_fraction_ok,
    large_angle_bound,
    make_pairing,
    mode_bound,
    pairing_slopes,
    quasi_fixed_radius,
    radius_bounds,
    sidelobe_mainlobe_frequency,
    window_mainlobe_inverse,
    window_sidelobe_level,
)
from thztrack.physmodel import PrecoderConfig, SystemConfig, default_config, precoder_matrix
from thztrack.tracker import plan_tracking


@pytest.fixture(scope="module")
def cfg():
    return default_config()  # edge offset ratio m_half*f_d/f_c = 0.05


class TestMakePairing:
    def test_positive_center_goes_backward(self, cfg):
        pairing = make_pairing(0.6, 0.05, cfg)
        assert pairing.mode == "backward"
        assert pairing.psi == pytest.approx(0.5975, abs=1e-12)
        assert pairing.t_aux == pytest.approx(-0.4, abs=1e-12)

    def test_negative_center_goes_forward(self, cfg):
        pairing = make_pairing(-0.6, 0.05, cfg)
        assert pairing.mode == "forward"
        assert pairing.psi == pytest.approx(-0.5975, abs=1e-12)
        assert pairing.t_aux == pytest.approx(0.4, abs=1e-12)

    def test_zero_center_boundary_is_backward(self, cfg):
        assert make_pairing(0.0, 0.02, cfg).mode == "backward"

    def test_over_bound_flag(self, cfg):
        assert not make_pairing(0.6, 0.05, cfg).over_bound
        assert make_pairing(0.6, 0.14, cfg).over_bound

    def test_auto_negative_center_uses_large_angle_bound(self, cfg):
        # forward is auto's mode at theta0 < 0: 0.1 is within the large-angle
        # limit 0.13125 though beyond the plain forward limit 0.0925
        assert not make_pairing(-0.6, 0.1, cfg).over_bound
        assert mode_bound(-0.6, "forward", cfg) == large_angle_bound(-0.6, cfg)

    def test_forced_off_sign_modes_use_plain_bounds(self, cfg):
        # forced forward at theta0 > 0 and forced backward at theta0 < 0 get
        # the plain per-mode limit 1/p - 0.05*0.6 = 0.0325
        assert mode_bound(0.6, "forward", cfg) == forward_bound(0.6, cfg)
        assert mode_bound(-0.6, "backward", cfg) == backward_bound(-0.6, cfg)
        assert make_pairing(0.6, 0.05, cfg, "forward").over_bound
        assert make_pairing(-0.6, 0.05, cfg, "backward").over_bound
        assert not make_pairing(0.6, 0.03, cfg, "forward").over_bound

    def test_rejects_bad_inputs(self, cfg):
        with pytest.raises(ValueError):
            make_pairing(1.2, 0.05, cfg)
        with pytest.raises(ValueError):
            make_pairing(0.5, 0.0, cfg)
        with pytest.raises(ValueError, match="pairing mode"):
            make_pairing(0.5, 0.05, cfg, "sideways")

    @pytest.mark.parametrize("mode", ["auto", "sideways"])
    def test_slopes_and_bound_reject_unresolved_modes(self, cfg, mode):
        with pytest.raises(ValueError, match=f"unknown pairing mode '{mode}'"):
            pairing_slopes(0.5, 0.05, mode, cfg)
        with pytest.raises(ValueError, match=f"unknown pairing mode '{mode}'"):
            mode_bound(0.5, mode, cfg)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_inputs(self, cfg, value):
        with pytest.raises(ValueError, match="theta0 must lie in"):
            make_pairing(value, 0.05, cfg)
        with pytest.raises(ValueError, match="alpha must be positive"):
            make_pairing(0.5, value, cfg)

    @pytest.mark.parametrize("quantize", [False, True])
    def test_pairing_is_its_precoder(self, cfg, quantize):
        # forced forward at 0.6 is over its bound: the flag must survive quantization
        pairing = make_pairing(0.6, 0.05, cfg, "forward")
        p = quantized_pairing(pairing, build_codebook(cfg)) if quantize else pairing
        assert (p.mode, p.theta0, p.alpha, p.over_bound) == ("forward", 0.6, 0.05, True)
        plain = PrecoderConfig(p.psi, p.t_aux)
        np.testing.assert_array_equal(precoder_matrix(p, cfg), precoder_matrix(plain, cfg))
        np.testing.assert_array_equal(angle_map(cfg.m_indices, p, cfg), angle_map(cfg.m_indices, plain, cfg))
        thetas = np.linspace(-1.0, 1.0, 201)
        for f_m in (cfg.f_c - cfg.m_half * cfg.f_d, cfg.f_c, cfg.f_c + 7 * cfg.f_d):
            np.testing.assert_array_equal(array_gain(f_m, thetas, p, cfg), array_gain(f_m, thetas, plain, cfg))


_MODES = ("auto", "forward", "backward")


@st.composite
def _systems(draw, edge_ratios=st.floats(0.01, 0.45)):
    """Random array and band: any (p, n_ttd, m_half), edge ratio m_half*f_d/f_c in [0.01, 0.45]."""
    p = draw(st.integers(1, 32))
    n_ttd = draw(st.integers(1, 32))
    edge_ratio = draw(edge_ratios)
    return SystemConfig(
        n_bs=p * n_ttd, n_ttd=n_ttd, p=p, f_c=100e9, bandwidth=2 * edge_ratio * 100e9,
        m_half=draw(st.integers(1, 128)),
    )


def _slot_loop(theta0, alpha, slots, cfg, codebook, mode):
    """The slots as paired one at a time: make_pairing per center (a fixed beam in "sweep" mode), then quantized."""
    l = np.arange(1, slots + 1)
    out = []
    for c in theta0 - alpha + (2 * l - 1) * alpha / slots:
        if mode == "sweep":
            pc = PairingConfig(psi=float(c), t_aux=float(c), mode=BACKWARD, theta0=float(c), alpha=0.0)
        else:
            pc = make_pairing(float(c), alpha / slots, cfg, mode)
        out.append(pc if codebook is None else quantized_pairing(pc, codebook))
    return tuple(out)


# dyadic centers and radii put slopes exactly halfway between two codewords
# of a power-of-two array, where the snap rule's tie-break decides
_DYADIC = st.integers(-120, 120).map(lambda k: k / 128)


class TestMakePairingProperties:
    @settings(max_examples=300, deadline=None)
    @given(
        system=_systems(),
        theta0=st.floats(-0.95, 0.95),
        alpha=st.floats(1e-3, 0.5),
        mode=st.sampled_from(_MODES),
    )
    def test_band_edges_map_to_interval_edges(self, system, theta0, alpha, mode):
        pairing = make_pairing(theta0, alpha, system, mode)
        if mode == "auto":
            assert pairing.mode == ("backward" if theta0 >= 0 else "forward")
        else:
            assert pairing.mode == mode
        # forward pairing sends the lowest subcarrier to the lowest angle, backward reverses it
        low, high = theta0 - alpha, theta0 + alpha
        first, last = (low, high) if pairing.mode == "forward" else (high, low)
        assert angle_map(-system.m_half, pairing, system) == pytest.approx(first, abs=1e-12)
        assert angle_map(system.m_half, pairing, system) == pytest.approx(last, abs=1e-12)
        assert pairing.over_bound == (alpha > mode_bound(theta0, pairing.mode, system))
        if mode == "auto":
            # the mode auto picks always gets the enhanced large-angle limit
            assert mode_bound(theta0, pairing.mode, system) == large_angle_bound(theta0, system)

    @settings(max_examples=400, deadline=None)
    @given(
        system=_systems(st.one_of(st.floats(0.01, 0.45), st.sampled_from([0.0625, 0.125, 0.25]))),
        theta0=st.one_of(st.floats(-0.95, 0.95), _DYADIC),
        alpha=st.one_of(st.floats(1e-4, 1.0), _DYADIC.map(abs).filter(bool)),
        slots=st.integers(1, 16),
        mode=st.sampled_from(_MODES + ("sweep",)),
        quantize=st.booleans(),
    )
    # each slot center lies exactly halfway between two codewords of the 256-antenna psi grid
    @example(system=default_config(), theta0=1 / 256, alpha=0.125, slots=1, mode="sweep", quantize=True)
    @example(system=default_config(), theta0=-1 / 256, alpha=0.25, slots=2, mode="sweep", quantize=True)
    def test_plan_slots_are_make_pairing(self, system, theta0, alpha, slots, mode, quantize):
        # the plan's slope arrays and pairings view against the slots paired one at a time
        alpha = min(alpha, 1.0 - abs(theta0))
        cb = build_codebook(system) if quantize else None
        plan = plan_tracking(theta0, alpha, slots, system, codebook=cb, pairing_mode=mode)
        want = _slot_loop(theta0, alpha, slots, system, cb, mode)
        assert plan.slots == slots
        assert plan.centers.tolist() == [pc.theta0 for pc in want]
        assert plan.psi.tolist() == [pc.psi for pc in want]
        assert plan.t_aux.tolist() == [pc.t_aux for pc in want]
        assert plan.pairings == want
        for pc in plan.pairings:
            assert {type(pc.psi), type(pc.t_aux), type(pc.theta0), type(pc.alpha)} == {float}
        for row in (plan.centers, plan.psi, plan.t_aux):
            assert row.shape == (slots,) and not row.flags.writeable


class TestScalarEntryPointsReturnFloats:
    # write_table writes floats with repr, and numpy 2 writes a numpy scalar as np.float64(...)
    @pytest.mark.parametrize("mode", _MODES)
    def test_make_pairing(self, cfg, mode):
        pairing = make_pairing(0.4, 0.05, cfg, mode)
        assert (type(pairing.psi), type(pairing.t_aux), type(pairing.over_bound)) == (float, float, bool)

    @pytest.mark.parametrize("theta0", [-0.7, 0.0, 0.6])
    def test_bounds(self, cfg, theta0):
        bounds = radius_bounds(theta0, cfg, include_extra=True)
        assert all(type(getattr(bounds, f)) is float for f in vars(bounds))
        assert type(mode_bound(theta0, "forward", cfg)) is float


class TestSimpleBounds:
    def test_forward_reference_value(self):
        cfg = SystemConfig(n_bs=256, n_ttd=16, p=16, f_c=100e9, bandwidth=12.5e9, m_half=64)
        assert abs(forward_bound(0.95, cfg) - 0.003125) < 1e-15

    def test_forward_at_zero_is_inverse_group_size(self, cfg):
        assert forward_bound(0.0, cfg) == pytest.approx(1.0 / cfg.p)

    def test_forward_negative_center(self, cfg):
        assert forward_bound(-0.5, cfg) == pytest.approx(0.0875)

    def test_backward_at_zero(self, cfg):
        assert backward_bound(0.0, cfg) == pytest.approx(1.0 / cfg.p)

    def test_backward_reference_value(self, cfg):
        assert backward_bound(0.8, cfg) == pytest.approx(0.1025)

    def test_forward_backward_mirror(self, cfg):
        for theta0 in (-0.9, -0.3, 0.0, 0.4, 1.0):
            assert backward_bound(theta0, cfg) == pytest.approx(forward_bound(-theta0, cfg))

    def test_combined_bound_closed_form(self, cfg):
        for theta0 in np.linspace(-1, 1, 41):
            fb = forward_backward_bound(theta0, cfg)
            assert fb == pytest.approx(max(forward_bound(theta0, cfg), backward_bound(theta0, cfg)))
            assert fb == pytest.approx(1.0 / cfg.p + cfg.edge_ratio * abs(theta0))


class TestSingleSlotBound:
    def test_reference_value(self, cfg):
        assert forward_single_slot_bound(cfg) == pytest.approx((1.0 / 16) / 1.05)

    def test_narrowband_limit(self):
        cfg = SystemConfig(n_bs=256, n_ttd=16, p=16, f_c=100e9, bandwidth=1e6, m_half=64)
        assert forward_single_slot_bound(cfg) == pytest.approx(1.0 / 16, rel=1e-4)

    def test_below_backward_bound_for_positive_centers(self, cfg):
        for theta0 in np.linspace(0.01, 1.0, 25):
            assert forward_single_slot_bound(cfg) < backward_bound(theta0, cfg)


class TestLargeAngleBound:
    def test_reference_settings(self, cfg):
        assert large_angle_bound(1.0, cfg) == pytest.approx(0.150157, abs=5e-4)

    def test_first_term_value(self, cfg):
        # at theta0 = 1 the sidelobe-crossing term is 1.620/16 + 0.05
        edge = cfg.m_half * cfg.f_d
        intra = 2 / cfg.p + edge**2 / (cfg.p * (cfg.f_c**2 - edge**2)) + 0.025
        assert large_angle_bound(1.0, cfg) == pytest.approx(min(0.15125, intra), rel=1e-12)

    def test_uses_magnitude_of_center(self, cfg):
        assert large_angle_bound(-0.7, cfg) == large_angle_bound(0.7, cfg)

    def test_dominates_combined_bound_at_large_angles(self, cfg):
        for theta0 in np.linspace(0.5, 1.0, 26):
            assert large_angle_bound(theta0, cfg) >= forward_backward_bound(theta0, cfg)

    def test_crossing_constant_matches_window_inversion(self):
        # inverting the window kernel at its own sidelobe level lands near 1.620/p
        for p in (8, 16, 32):
            level = window_sidelobe_level(p)
            x = window_mainlobe_inverse(p, level)
            assert x * p == pytest.approx(1.620, rel=0.01)

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.5, 1.5])
    def test_window_inversion_rejects_levels_outside_the_open_unit_interval(self, level):
        with pytest.raises(ValueError, match="level must lie strictly between 0 and 1"):
            window_mainlobe_inverse(16, level)

    def test_sidelobe_level_converges_to_sinc_value(self):
        assert window_sidelobe_level(256) == pytest.approx(0.2172, abs=5e-4)


class TestFixedRadii:
    def test_fixed(self, cfg):
        assert fixed_radius(cfg) == 0.0625

    def test_quasi_fixed_branches(self, cfg):
        assert quasi_fixed_radius(0.3, cfg) == pytest.approx(0.0625)
        assert quasi_fixed_radius(0.7, cfg) == pytest.approx(0.10125)
        assert quasi_fixed_radius(0.9, cfg) == pytest.approx(0.125)

    def test_quasi_fixed_optional_term(self, cfg):
        edge = cfg.m_half * cfg.f_d
        extra = edge**2 / (cfg.p * (cfg.f_c - edge) * (cfg.f_c + edge))
        assert quasi_fixed_radius(0.9, cfg, include_extra=True) == pytest.approx(0.125 + extra)

    def test_negative_axis_symmetric(self, cfg):
        for theta0 in (0.2, 0.6, 0.95):
            assert quasi_fixed_radius(-theta0, cfg) == quasi_fixed_radius(theta0, cfg)

    def test_bundle(self, cfg):
        b = radius_bounds(0.4, cfg)
        assert b.fb == pytest.approx(forward_backward_bound(0.4, cfg))
        assert b.fixed == fixed_radius(cfg)


class TestSidelobeMainlobeFrequency:
    def test_large_radius_limit(self, cfg):
        pairing = make_pairing(0.5, 0.09, cfg)
        f_high = cfg.f_c + cfg.m_half * cfg.f_d
        big = sidelobe_mainlobe_frequency(
            type(pairing)(mode="backward", theta0=0.5, alpha=1e6, psi=0.0, t_aux=0.0), cfg
        )
        assert big == pytest.approx(f_high, rel=1e-4)

    def test_direct_substitution(self, cfg):
        pairing = make_pairing(0.8, 0.1, cfg)
        edge = cfg.m_half * cfg.f_d
        f_low, f_high = cfg.f_c - edge, cfg.f_c + edge
        expected = (cfg.p * f_low * f_high**2) / (cfg.p * f_low * f_high + 2 * edge * cfg.f_c / 0.1)
        assert sidelobe_mainlobe_frequency(pairing, cfg) == pytest.approx(expected, rel=1e-14)

    def test_round_trip_through_angle_map(self, cfg):
        # evaluating the angle map at the returned frequency must reproduce the
        # high-band replica location
        pairing = make_pairing(0.8, 0.1, cfg)
        f_prime = sidelobe_mainlobe_frequency(pairing, cfg)
        _, side_plus, _ = sidelobe_locations(pairing, cfg)
        mapped = (cfg.f_c * pairing.psi + (f_prime - cfg.f_c) * pairing.t_aux) / f_prime
        assert mapped == pytest.approx(side_plus, abs=1e-12)

    def test_rejects_forward_or_zero_radius(self, cfg):
        with pytest.raises(ValueError, match="defined for backward pairings"):
            sidelobe_mainlobe_frequency(make_pairing(-0.5, 0.05, cfg), cfg)
        pairing = make_pairing(0.5, 0.05, cfg)
        for alpha in (0.0, -0.05):
            with pytest.raises(ValueError, match="alpha must be positive"):
                sidelobe_mainlobe_frequency(replace(pairing, alpha=alpha), cfg)


class TestInterFractionCheck:
    def test_zero_radius_inside_mainlobe(self, cfg):
        pairing = make_pairing(0.5, 1e-6, cfg)
        assert inter_fraction_ok(pairing, cfg)

    def test_transition_at_crossing_term(self, cfg):
        theta0 = 0.5
        boundary = 1.620 / cfg.p + cfg.edge_ratio * theta0
        below = make_pairing(theta0, boundary - 2e-3, cfg)
        above = make_pairing(theta0, boundary + 2e-3, cfg)
        assert inter_fraction_ok(below, cfg)
        assert not inter_fraction_ok(above, cfg)

    def test_near_combined_bound_small_center(self, cfg):
        theta0 = 0.1
        pairing = make_pairing(theta0, forward_backward_bound(theta0, cfg) - 1e-4, cfg)
        assert inter_fraction_ok(pairing, cfg)


def _selection_errors(theta0, alpha, cfg, step=2e-3):
    """Noiseless one-slot selection: worst |angle_map(argmax_m gain) - theta|."""
    pc = make_pairing(theta0, alpha, cfg)
    mapped = np.asarray(angle_map(cfg.m_indices, pc, cfg))
    spacing = float(np.max(np.abs(np.diff(np.sort(mapped)))))
    thetas = np.arange(theta0 - alpha, theta0 + alpha + 1e-12, step)
    freqs = cfg.f_c + cfg.m_indices * cfg.f_d
    gains = np.stack([array_gain(f, thetas, pc, cfg) for f in freqs], axis=1)
    chosen = np.argmax(gains, axis=1)
    return float(np.max(np.abs(mapped[chosen] - thetas))), spacing


class TestLargeAngleSelectionValidity:
    def test_selection_succeeds_below_bound(self, cfg):
        # noiseless strongest-subcarrier selection stays on the correct cell
        # for radii just under the large-angle limit
        rng = np.random.default_rng(11)
        for _ in range(12):
            theta0 = rng.uniform(0.5, 0.84)
            alpha = rng.uniform(0.5, 0.95) * large_angle_bound(theta0, cfg)
            if theta0 + alpha > 1:
                alpha = 1 - theta0
            err, spacing = _selection_errors(theta0, alpha, cfg)
            assert err <= spacing * 1.05 + 1e-9

    def test_selection_fails_above_bound(self, cfg):
        theta0 = 0.8
        alpha = 1.1 * large_angle_bound(theta0, cfg)
        err, spacing = _selection_errors(theta0, alpha, cfg)
        assert err > 10 * spacing
