import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thztrack import harness
from thztrack import (
    PathComponent,
    PrecoderConfig,
    SubcarrierGrid,
    SystemConfig,
    channel_response,
    default_config,
    dirichlet,
    precoder_matrix,
)
from thztrack.harness import (
    ScenarioConfig,
    beamforming_gain,
    load_key_values,
    nmse,
    nmse_db,
    run_trial,
    scenario_from_file,
    scenario_from_mapping,
    sweep,
)


@pytest.fixture(scope="module")
def cfg():
    return default_config()


@pytest.fixture(scope="module")
def grid(cfg):
    return SubcarrierGrid.from_config(cfg)


class TestNmse:
    def test_single_record_arithmetic(self):
        lin, excluded = nmse([0.55], [0.5])
        assert lin == pytest.approx(0.01)
        assert excluded == 0
        assert nmse_db(lin) == pytest.approx(-20.0)

    def test_perfect_estimates_floor(self):
        lin, _ = nmse([0.3, -0.4], [0.3, -0.4])
        assert lin == 0.0
        assert nmse_db(lin) == -120.0

    def test_zero_truth_excluded_with_warning(self):
        with pytest.warns(RuntimeWarning):
            lin, excluded = nmse([0.1, 0.55], [0.0, 0.5])
        assert excluded == 1
        assert lin == pytest.approx(0.01)

    def test_mean_is_linear_over_concatenation(self):
        a_hat, a_r = [0.52, 0.61], [0.5, 0.6]
        b_hat, b_r = [0.22], [0.2]
        la, _ = nmse(a_hat, a_r)
        lb, _ = nmse(b_hat, b_r)
        lab, _ = nmse(a_hat + b_hat, a_r + b_r)
        assert lab == pytest.approx((2 * la + lb) / 3)


class TestBeamformingGain:
    def test_aligned_gain_matches_window_average(self, cfg, grid):
        theta_r = 0.37
        ch = channel_response(PathComponent(1.0 + 0j, theta_r), cfg)
        expected = cfg.n_bs * np.mean(
            [dirichlet(cfg.p, (m * cfg.f_d / cfg.f_c) * theta_r) ** 2 for m in grid.m_indices]
        )
        assert beamforming_gain(ch, theta_r, cfg) == pytest.approx(expected, rel=1e-10)

    def test_misaligned_beam_is_weak(self, cfg):
        ch = channel_response(PathComponent(1.0 + 0j, 0.3), cfg)
        assert beamforming_gain(ch, -0.5, cfg) < 1.0

    def test_alignment_is_local_peak(self, cfg):
        theta_r = 0.37
        ch = channel_response(PathComponent(1.0 + 0j, theta_r), cfg)
        at_truth = beamforming_gain(ch, theta_r, cfg)
        assert at_truth > beamforming_gain(ch, theta_r + 0.01, cfg)
        assert at_truth > beamforming_gain(ch, theta_r - 0.01, cfg)


# Fixed before any run.  The ray's closed-form response is within
# C*n_bs^2*eps of its dense inner product (C = 8, as in test_physmodel.py), and
# |response| <= n_bs * G with G the modulus of the ray gain, so the mean of
# |response|^2 / n_bs moves by at most 2*C*n_bs^2*eps*G^2.
_GAIN_TOL_C = 8.0


@st.composite
def _gain_cases(draw):
    """A random array and band, one ray and an aim theta_hat."""
    p = draw(st.integers(1, 16))
    n_ttd = draw(st.integers(1, 16))
    f_c = draw(st.floats(1e9, 1e12))
    system = SystemConfig(
        n_bs=p * n_ttd, n_ttd=n_ttd, p=p, f_c=f_c,
        bandwidth=2 * draw(st.floats(0.01, 0.45)) * f_c, m_half=draw(st.integers(1, 32)),
    )
    path = PathComponent(
        draw(st.floats(0.1, 3.0)) * np.exp(1j * draw(st.floats(0.0, 2 * np.pi))),
        draw(st.floats(-1.0, 1.0)),
    )
    theta = path.direction
    theta_hat = draw(st.one_of(
        st.floats(-1.0, 1.0), st.just(theta), st.floats(-1e-9, 1e-9).map(lambda d: theta + d)
    ))
    return system, path, theta_hat


class TestBeamformingGainOracle:
    @settings(max_examples=300, deadline=None)
    @given(case=_gain_cases())
    def test_matches_dense_inner_products(self, case):
        system, path, theta_hat = case
        ch = channel_response(path, system)
        f = precoder_matrix(PrecoderConfig(theta_hat, theta_hat), system)
        want = np.mean(np.abs(np.einsum("mn,mn->m", ch.h.conj(), f)) ** 2) / system.n_bs
        total = abs(path.gain)
        tol = 2 * _GAIN_TOL_C * system.n_bs**2 * np.finfo(float).eps * total**2
        assert abs(beamforming_gain(ch, theta_hat, system) - want) <= tol


class TestRunTrial:
    def test_deterministic_per_seed(self, cfg):
        scn = ScenarioConfig(system=cfg, users=2, trials=3, seed=5)
        a = run_trial(scn, 1, 10.0, 4)
        b = run_trial(scn, 1, 10.0, 4)
        assert a == b

    def test_different_trials_differ(self, cfg):
        scn = ScenarioConfig(system=cfg, users=1, trials=3, seed=5)
        a = run_trial(scn, 0, 10.0, 4)
        b = run_trial(scn, 1, 10.0, 4)
        assert a[0].theta_r != b[0].theta_r

    def test_noiseless_compensated_trial_is_sharp(self, cfg):
        scn = ScenarioConfig(system=cfg, users=1, trials=1, seed=3, compensation=True)
        rec = run_trial(scn, 0, None, 4)[0]
        assert abs(rec.theta_refined - rec.theta_r) < 1e-6

    def test_record_count_users(self, cfg):
        scn = ScenarioConfig(system=cfg, users=3, trials=1, seed=3)
        assert len(run_trial(scn, 0, 10.0, 2)) == 3

    def test_true_direction_inside_searched_interval(self, cfg):
        scn = ScenarioConfig(system=cfg, users=1, trials=40, seed=11)
        for t in range(40):
            rec = run_trial(scn, t, None, 4)[0]
            assert abs(rec.theta_hat - rec.theta_r) < 2 * scn.zeta_max

    def test_forward_only_matches_auto_on_negative_axis(self, cfg):
        # when every slot center is negative both schemes pick the same pairing
        base = dict(system=cfg, users=1, trials=20, seed=21, zeta_max=0.2)
        fb = ScenarioConfig(scheme="forward_backward", **base)
        fo = ScenarioConfig(scheme="forward_only", **base)
        for t in range(20):
            ra = run_trial(fb, t, 10.0, 4, theta_target=-0.55)[0]
            rb = run_trial(fo, t, 10.0, 4, theta_target=-0.55)[0]
            assert ra.theta_hat == rb.theta_hat

    def test_exhaustive_sweep_estimates_slot_centers(self, cfg):
        # one beam per slot: the estimate is always a slot center, and stays
        # inside the searched interval (grating replicas can pick a far slot,
        # which is what makes this baseline weak)
        scn = ScenarioConfig(system=cfg, users=1, trials=20, seed=31, scheme="exhaustive_sweep")
        for t in range(20):
            rec = run_trial(scn, t, None, 4)[0]
            assert abs(rec.theta_hat - rec.theta_r) <= 2 * scn.zeta_max


class TestScenarioConfig:
    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scheme="sideways")

    def test_rejects_negative_gain_sigma(self):
        with pytest.raises(ValueError, match="gain_sigma"):
            ScenarioConfig(gain_sigma=-0.5)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            ScenarioConfig(seed=-1)

    @pytest.mark.parametrize("theta_grid", [(0.3, 1.5), (-0.995,), (float("nan"),)])
    def test_rejects_theta_grid_beyond_direction_cap(self, theta_grid):
        with pytest.raises(ValueError, match="theta_grid entries must lie in"):
            ScenarioConfig(theta_grid=theta_grid)
        assert ScenarioConfig(theta_grid=(-0.99, 0.99)).theta_grid == (-0.99, 0.99)

    def test_center_cap(self):
        scn = ScenarioConfig(zeta_max=0.2)
        assert scn.center_cap == pytest.approx(0.8)


def test_pilot_noise_std_is_n_bs_over_root_snr(cfg):
    assert harness.pilot_noise_std(10.0, cfg) == cfg.n_bs / np.sqrt(10.0)
    assert harness.pilot_noise_std(-10.0, cfg) == cfg.n_bs / np.sqrt(0.1)


class TestSweep:
    def test_reproducible_rows(self, cfg):
        scn = ScenarioConfig(system=cfg, users=1, trials=4, seed=9, snr_db=(0.0, 10.0))
        assert sweep(scn, "snr").rows == sweep(scn, "snr").rows

    def test_rows_schema(self, cfg):
        scn = ScenarioConfig(system=cfg, users=2, trials=3, seed=9, snr_db=(10.0,))
        rows = sweep(scn, "snr").rows
        assert len(rows) == 1
        assert rows[0]["n_records"] == 6
        assert rows[0]["scheme"] == "forward_backward"

    def test_csv_round_trip_identical(self, cfg, tmp_path):
        scn = ScenarioConfig(system=cfg, users=1, trials=4, seed=9, snr_db=(0.0, 10.0))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        sweep(scn, "snr").write_csv(p1)
        sweep(scn, "snr").write_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_json_full_records(self, cfg, tmp_path):
        scn = ScenarioConfig(system=cfg, users=1, trials=2, seed=9, snr_db=(10.0,))
        rep = sweep(scn, "snr", keep_records=True)
        out = tmp_path / "full.json"
        rep.write_json(out, full=True)
        payload = json.loads(out.read_text())
        assert len(payload["records"]["10.0"]) == 2

    def test_theta_axis_pins_direction(self, cfg):
        scn = ScenarioConfig(system=cfg, users=1, trials=3, seed=9, snr_db=(10.0,))
        rep = sweep(scn, "theta", values=[0.5], keep_records=True)
        assert all(r.theta_r == 0.5 for r in rep.records[0.5])

    @pytest.mark.parametrize("target", [1.5, -0.995, float("nan")])
    def test_theta_target_beyond_direction_cap_rejected(self, cfg, target):
        scn = ScenarioConfig(system=cfg, users=1, trials=1, seed=9, snr_db=(10.0,))
        with pytest.raises(ValueError, match="theta_target"):
            run_trial(scn, 0, 10.0, 4, theta_target=target)
        with pytest.raises(ValueError, match=repr(target)):
            sweep(scn, "theta", values=[0.5, target])

    def test_theta_values_checked_before_any_frame(self, cfg, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run_trial", lambda *args, **kwargs: calls.append(args) or [])
        scn = ScenarioConfig(system=cfg, users=1, trials=2, seed=9, snr_db=(10.0,))
        with pytest.raises(ValueError, match="theta_grid"):
            sweep(scn, "theta", values=[0.3, 1.5])
        assert calls == []

    def test_unknown_axis(self, cfg):
        scn = ScenarioConfig(system=cfg)
        with pytest.raises(ValueError):
            sweep(scn, "users")

    def test_refine_outcome_columns(self, cfg):
        scn = ScenarioConfig(system=cfg, users=1, trials=3, seed=9, snr_db=(10.0,), compensation=True)
        rep = sweep(scn, "snr", keep_records=True)
        row, records = rep.rows[0], rep.records[10.0]
        assert row["mean_iterations"] == np.mean([r.iterations for r in records]) > 0
        assert row["n_unconverged"] + row["n_diverged"] + row["n_degenerate"] == sum(
            not r.converged for r in records
        )
        coarse = sweep(replace(scn, compensation=False), "snr").rows[0]
        assert (coarse["mean_iterations"], coarse["n_unconverged"], coarse["n_diverged"],
                coarse["n_degenerate"]) == (0.0, 0, 0, 0)

    def test_degenerate_trial_is_counted_not_fatal(self, cfg, monkeypatch):
        real_refine = harness.refine
        calls = []

        def refine_second_on_dead_geometry(prob, theta_init, **kwargs):
            calls.append(theta_init)
            if len(calls) == 2:
                # every slot steers its beam null onto the start angle, so all
                # slot responses vanish there
                slopes = np.full(prob.n_slots, theta_init)
                prob = replace(prob, psi=slopes - 2.0 / cfg.n_bs, t_aux=slopes)
            return real_refine(prob, theta_init, **kwargs)

        monkeypatch.setattr(harness, "refine", refine_second_on_dead_geometry)
        scn = ScenarioConfig(system=cfg, users=1, trials=3, seed=9, snr_db=(10.0,), compensation=True)
        rep = sweep(scn, "snr", keep_records=True)
        row = rep.rows[0]
        assert row["n_records"] == 3
        assert row["n_degenerate"] == 1
        dead = rep.records[10.0][1]
        assert dead.degenerate and dead.theta_refined is None and dead.iterations == 0
        assert dead.theta_final == dead.theta_hat
        assert not any(r.degenerate for i, r in enumerate(rep.records[10.0]) if i != 1)

    def test_other_refine_errors_propagate(self, cfg, monkeypatch):
        def broken_refine(prob, theta_init, **kwargs):
            raise ValueError("broken refinement")

        monkeypatch.setattr(harness, "refine", broken_refine)
        scn = ScenarioConfig(system=cfg, users=1, trials=1, seed=9, snr_db=(10.0,), compensation=True)
        with pytest.raises(ValueError, match="broken refinement"):
            sweep(scn, "snr")


# (iterations, converged, diverged) of every refinement in the compensated SNR
# sweep of seed 1 (256 antennas, 4 slots, 2 trials per SNR).  A change that
# keeps refine's iterates keeps this table; a solver change that moves it on
# purpose updates the table and logs the move in CHANGES.md.
_REFINE_OUTCOMES_SEED_1 = {
    -10.0: [(32, True, False), (18, False, True)],
    0.0: [(37, False, True), (24, True, False)],
    10.0: [(8, True, False), (29, False, True)],
    20.0: [(8, True, False), (12, True, False)],
    30.0: [(7, True, False), (12, True, False)],
}


def test_refine_outcomes_of_one_compensated_sweep(cfg):
    scn = ScenarioConfig(system=cfg, users=1, snr_db=(-10.0, 0.0, 10.0, 20.0, 30.0), slots=(4,),
                         trials=2, compensation=True, seed=1)
    report = sweep(scn, "snr", keep_records=True)
    got = {
        snr: [(r.iterations, r.converged, r.diverged) for r in records]
        for snr, records in report.records.items()
    }
    assert got == _REFINE_OUTCOMES_SEED_1


class TestSchemeOrdering:
    """Error ordering of the schemes at a fixed pilot budget (SNR 10, L=4).

    The mean-of-ratios NMSE has a heavy 1/theta^2 tail, so each link is
    measured where it is statistically meaningful: compensation against its
    own coarse estimates on full-range directions (paired; the small-angle
    trials dominate and are exactly what refinement fixes), and the scheme
    comparison on a common positive-direction grid with bounded denominators.
    """

    GRID_PTS = [0.1, 0.3, 0.5, 0.7, 0.9]

    def test_compensation_beats_coarse(self, cfg):
        scn = ScenarioConfig(
            system=cfg, users=1, trials=500, seed=13, zeta_max=0.2, slots=(4,),
            snr_db=(10.0,), compensation=True,
        )
        row = sweep(scn, "snr").rows[0]
        assert row["nmse_linear"] < row["nmse_coarse_linear"]

    def test_pairing_beats_forward_only_beats_one_beam_sweep(self, cfg):
        results = {}
        for scheme in ("forward_backward", "forward_only", "exhaustive_sweep"):
            scn = ScenarioConfig(
                system=cfg, users=1, trials=400, seed=13, zeta_max=0.2, slots=(4,),
                snr_db=(10.0,), scheme=scheme,
            )
            rows = sweep(scn, "theta", values=self.GRID_PTS).rows
            results[scheme] = float(np.mean([r["nmse_linear"] for r in rows]))
        assert results["forward_backward"] < results["forward_only"]
        assert results["forward_only"] < results["exhaustive_sweep"]


class TestConfigFiles:
    def test_load_key_values(self, tmp_path):
        p = tmp_path / "scenario.cfg"
        p.write_text(
            """
# comment line
n_bs = 64
n_ttd = 8
p = 8
f_c = 10e9
bandwidth = 1e9
m_half = 16
trials = 7
scheme = forward_only
snr_db = [0, 10]
compensation = true
seed = 3
"""
        )
        data = load_key_values(p)
        assert data["n_bs"] == 64
        assert data["scheme"] == "forward_only"
        assert data["compensation"] is True

    def test_scenario_from_file_with_overrides(self, tmp_path):
        p = tmp_path / "scenario.cfg"
        p.write_text("trials = 7\nseed = 3\nscheme = forward_only\n")
        scn = scenario_from_file(p, overrides={"trials": 9, "seed": None})
        assert scn.trials == 9
        assert scn.seed == 3
        assert scn.scheme == "forward_only"
        assert scn.system == default_config()

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            scenario_from_mapping({"warp_factor": 9})

    @pytest.mark.parametrize(
        "text, expected",
        [("true", True), ("false", False), ('"false"', False), ("no", False), ("yes", True),
         ("0", False), ("1", True)],
    )
    def test_boolean_spellings(self, tmp_path, text, expected):
        p = tmp_path / "flags.cfg"
        p.write_text(f"compensation = {text}\ncodebook = {text}\n")
        scn = scenario_from_file(p)
        assert scn.compensation is expected
        assert scn.codebook is expected

    @pytest.mark.parametrize("value", ["maybe", '"on"', "2", "0.0", "[]"])
    def test_other_boolean_values_rejected_by_key(self, tmp_path, value):
        p = tmp_path / "flags.cfg"
        p.write_text(f"codebook = {value}\n")
        with pytest.raises(ValueError, match="codebook"):
            scenario_from_file(p)

    def test_partial_system_keys_overlay_reference_setup(self, tmp_path):
        p = tmp_path / "partial.cfg"
        p.write_text("m_half = 32\n")
        system = scenario_from_file(p).system
        ref = default_config()
        assert system.m_half == 32
        assert (system.n_bs, system.n_ttd, system.p, system.f_c, system.bandwidth) == (
            ref.n_bs, ref.n_ttd, ref.p, ref.f_c, ref.bandwidth,
        )
        assert system.f_d == pytest.approx(ref.bandwidth / 64)

    def test_inconsistent_f_d_rejected(self):
        with pytest.raises(ValueError, match="f_d"):
            scenario_from_mapping({"m_half": 32, "f_d": default_config().f_d})

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("this is not a key value pair\n")
        with pytest.raises(ValueError):
            load_key_values(p)

    @pytest.mark.parametrize(
        "key, value",
        [("users", 1.7), ("n_bs", "abc"), ("m_half", 64.5), ("trials", True), ("seed", "1.5"),
         ("slots", [2, 2.5])],
    )
    def test_integer_keys_reject_non_integral_values(self, key, value):
        with pytest.raises(ValueError, match=key):
            scenario_from_mapping({key: value})

    def test_integer_keys_from_file_named_in_error(self, tmp_path):
        p = tmp_path / "users.cfg"
        p.write_text("users = 1.7\n")
        with pytest.raises(ValueError, match="users"):
            scenario_from_file(p)

    def test_integral_values_accepted(self):
        scn = scenario_from_mapping({"users": 2.0, "trials": "3", "slots": [2, 4.0], "n_bs": 256.0})
        assert (scn.users, scn.trials, scn.slots, scn.system.n_bs) == (2, 3, (2, 4), 256)

    @pytest.mark.parametrize(
        "key, value",
        [("zeta_max", "abc"), ("f_c", "abc"), ("gain_sigma", "abc"), ("snr_db", "abc"),
         ("snr_db", [10, "abc"]), ("theta_grid", [0.3, None]), ("bandwidth", True),
         ("f_c", float("inf")), ("f_d", float("nan")), ("zeta_max", [0.1]), ("gain_sigma", -1)],
    )
    def test_float_keys_reject_bad_values(self, key, value):
        with pytest.raises(ValueError, match=key):
            scenario_from_mapping({key: value})

    def test_float_keys_from_file_named_in_error(self, tmp_path):
        p = tmp_path / "sigma.cfg"
        p.write_text("gain_sigma = abc\n")
        with pytest.raises(ValueError, match="gain_sigma"):
            scenario_from_file(p)

    def test_numeric_values_accepted(self):
        scn = scenario_from_mapping(
            {"f_c": "1e11", "bandwidth": 10**10, "zeta_max": "0.1", "gain_sigma": 0,
             "snr_db": ["10", 20, 30.5], "theta_grid": 0.25}
        )
        assert (scn.system.f_c, scn.system.bandwidth, scn.zeta_max, scn.gain_sigma) == (1e11, 1e10, 0.1, 0.0)
        assert scn.snr_db == (10.0, 20.0, 30.5)
        assert scn.theta_grid == (0.25,)
