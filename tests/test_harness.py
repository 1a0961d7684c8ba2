import collections
import inspect
import json
import math
import re
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from thztrack import codebook, harness, pairing, physmodel, tracker
from thztrack.beampattern import dirichlet
from thztrack.harness import (
    ScenarioConfig,
    TrialRecord,
    beamforming_gain,
    draw_frame,
    load_key_values,
    nmse,
    nmse_db,
    run_frame,
    run_trial,
    scenario_from_file,
    scenario_from_mapping,
    sweep,
)
from thztrack.physmodel import (
    PathComponent,
    PrecoderConfig,
    SystemConfig,
    channel_response,
    default_config,
    precoder_matrix,
)


@pytest.fixture(scope="module")
def cfg():
    return default_config()


def _trial(scn, trial):
    """The records of ``trial`` for every user of ``scn``, each frame from its own draws."""
    return run_trial(scn, [draw_frame(scn, trial, user) for user in range(scn.users)])


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
        # the count is the one report; the suite turns any RuntimeWarning into an error
        lin, excluded = nmse([0.1, 0.55], [0.0, 0.5])
        assert excluded == 1
        assert lin == pytest.approx(0.01)

    def test_truth_near_zero_is_excluded_or_gives_inf(self):
        # a theta_grid target may be tiny: its square underflows to 0 (excluded, as 0 is) or an error
        # over it overflows (+inf); neither divides by zero or warns
        lin, excluded = nmse([0.27, 0.55], [9e-178, 0.5])
        assert (lin, excluded) == (pytest.approx(0.01), 1)
        assert nmse([0.27, 0.55], [1e-160, 0.5]) == (math.inf, 0)
        assert nmse_db(math.inf) == math.inf

    def test_mean_is_linear_over_concatenation(self):
        a_hat, a_r = [0.52, 0.61], [0.5, 0.6]
        b_hat, b_r = [0.22], [0.2]
        la, _ = nmse(a_hat, a_r)
        lb, _ = nmse(b_hat, b_r)
        lab, _ = nmse(a_hat + b_hat, a_r + b_r)
        assert lab == pytest.approx((2 * la + lb) / 3)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="estimate/truth length mismatch"):
            nmse([0.1, 0.2], [0.1])


def _masked_nmse(theta_hat, theta_r):
    """The NMSE oracle: every record masked by its truth, then one ``np.mean``."""
    theta_hat, theta_r = np.asarray(theta_hat, dtype=float), np.asarray(theta_r, dtype=float)
    keep = theta_r ** 2 != 0.0
    if not np.any(keep):
        return 0.0, int(np.sum(~keep))
    return float(np.mean((theta_hat[keep] - theta_r[keep]) ** 2 / theta_r[keep] ** 2)), int(np.sum(~keep))


def _oracle_row(records):
    """A sweep row's metric columns from ``nmse``, ``nmse_db`` and ``np.mean`` over per-field lists."""
    truths = [r.theta_r for r in records]
    finals, coarse = [r.theta_final for r in records], [r.theta_hat for r in records]
    lin, excluded = nmse(finals, truths)
    lin_coarse, _ = nmse(coarse, truths)
    assert (lin, excluded) == _masked_nmse(finals, truths)
    assert lin_coarse == _masked_nmse(coarse, truths)[0]
    return {
        "nmse_linear": lin,
        "nmse_db": nmse_db(lin),
        "nmse_coarse_linear": lin_coarse,
        "nmse_coarse_db": nmse_db(lin_coarse),
        "mean_gain": float(np.mean([r.gain for r in records])),
        "n_records": len(records),
        "n_excluded": excluded,
        "mean_iterations": float(np.mean([r.iterations for r in records])),
        "n_unconverged": sum(r.theta_refined is not None and not (r.converged or r.diverged) for r in records),
        "n_diverged": sum(r.diverged for r in records),
        "n_degenerate": sum(r.degenerate for r in records),
    }


# a truth is 0 (an excluded record) or at least 1e-3 from it, as the squared ratio stays finite
_truths = st.one_of(st.just(0.0), st.floats(1e-3, 0.99), st.floats(-0.99, -1e-3))
_directions = st.floats(-1.0, 1.0)
_records = st.builds(
    TrialRecord, trial=st.integers(0, 9), user=st.integers(0, 3), theta_r=_truths, theta_hat=_directions,
    theta_refined=st.one_of(st.none(), _directions), gain=st.floats(0.0, 1.0), iterations=st.integers(0, 200),
    converged=st.booleans(), diverged=st.booleans(), degenerate=st.booleans(),
)


class TestRowMetrics:
    """``sweep``'s row code equals ``nmse``, ``nmse_db`` and ``np.mean`` over the records bit for bit."""

    # no shrink phase: a list of a few hundred records shrinks for minutes, and the first failing list says enough
    @settings(max_examples=300, deadline=None, phases=(Phase.explicit, Phase.generate))
    @given(records=st.lists(_records, min_size=1, max_size=300))
    @example(records=[TrialRecord(0, 0, 0.0, 0.1, 0.2, 0.5, 3), TrialRecord(1, 0, 0.0, -0.3, None, 0.25)])
    def test_equals_the_oracle(self, records):
        assert harness._row_metrics(records) == _oracle_row(records)

    def test_equals_the_oracle_on_a_sweep(self, cfg):
        scn = ScenarioConfig(system=cfg, users=3, trials=4, seed=2, snr_db=(-10.0, 10.0, 30.0), compensation=True)
        report = sweep(scn, "snr")
        for row, records in zip(report.rows, report.records.values()):
            assert {key: row[key] for key in _oracle_row(records)} == _oracle_row(records)


class TestBeamformingGain:
    def test_aligned_gain_matches_window_average(self, cfg):
        theta_r = 0.37
        ch = channel_response(PathComponent(1.0 + 0j, theta_r), cfg)
        expected = cfg.n_bs * np.mean(
            [dirichlet(cfg.p, (m * cfg.f_d / cfg.f_c) * theta_r) ** 2 for m in cfg.m_indices]
        )
        assert beamforming_gain([ch], [theta_r]) == [pytest.approx(expected, rel=1e-10)]

    def test_misaligned_beam_is_weak(self, cfg):
        ch = channel_response(PathComponent(1.0 + 0j, 0.3), cfg)
        assert beamforming_gain([ch], [-0.5])[0] < 1.0

    def test_alignment_is_local_peak(self, cfg):
        theta_r = 0.37
        ch = channel_response(PathComponent(1.0 + 0j, theta_r), cfg)
        at_truth, right, left = beamforming_gain([ch] * 3, [theta_r, theta_r + 0.01, theta_r - 0.01])
        assert at_truth > right and at_truth > left

    def test_each_gain_of_a_batch_is_its_own_call(self, cfg):
        channels = [channel_response(PathComponent(g, t), cfg) for g, t in [(1.0 + 0j, 0.3), (0.5j, -0.7), (2.0, 0.0)]]
        aims = [0.31, -0.69, 1e-3]
        assert beamforming_gain(channels, aims) == [beamforming_gain([ch], [a])[0] for ch, a in zip(channels, aims)]

    def test_channels_of_different_configs_rejected(self, cfg):
        path = PathComponent(1.0 + 0j, 0.3)
        channels = [channel_response(path, cfg), channel_response(path, replace(cfg, m_half=32))]
        with pytest.raises(ValueError, match="system configs"):
            beamforming_gain(channels, [0.3, 0.3])

    @pytest.mark.parametrize("aims", [[0.3], [0.3, -0.7, 0.1]])
    def test_one_aim_per_channel(self, cfg, aims):
        channels = [channel_response(PathComponent(1.0 + 0j, theta), cfg) for theta in (0.3, -0.7)]
        with pytest.raises(ValueError, match=f"{len(aims)} aims for 2 channels"):
            beamforming_gain(channels, aims)

    def test_no_channels_give_no_gains(self):
        assert beamforming_gain([], []) == []


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
        assert abs(beamforming_gain([ch], [theta_hat])[0] - want) <= tol


class TestRunTrial:
    def test_deterministic_per_seed(self, cfg):
        scn = ScenarioConfig(system=cfg, users=2, trials=3, seed=5, snr_db=(10.0,), slots=(4,))
        a = _trial(scn, 1)
        b = _trial(scn, 1)
        assert a == b

    def test_different_trials_differ(self, cfg):
        scn = ScenarioConfig(system=cfg, users=1, trials=3, seed=5, snr_db=(10.0,), slots=(4,))
        a = _trial(scn, 0)
        b = _trial(scn, 1)
        assert a[0].theta_r != b[0].theta_r

    def test_noiseless_compensated_trial_is_sharp(self, cfg):
        scn = ScenarioConfig(system=cfg, users=1, trials=1, seed=3, compensation=True, snr_db=(math.inf,), slots=(4,))
        rec = _trial(scn, 0)[0]
        assert abs(rec.theta_refined - rec.theta_r) < 1e-6

    def test_run_trial_is_one_frame_per_user(self, cfg):
        scn = ScenarioConfig(system=cfg, users=3, seed=4, compensation=True, codebook=True,
                             snr_db=(10.0,), slots=(2,), theta_grid=(0.3,))
        frames = [run_frame(scn, draw_frame(scn, 2, user)) for user in range(3)]
        assert _trial(scn, 2) == [frame.record for frame in frames]
        frame = frames[1]
        assert frame.obs.plan.slots == 2 and frame.obs.y.shape == (2, cfg.n_subcarriers)
        assert (frame.estimate.theta_hat, float(frame.state.theta)) == (frame.record.theta_hat, frame.record.theta_refined)

    def test_center_moves_only_the_searched_interval(self, cfg):
        scn = ScenarioConfig(system=cfg, users=1, seed=4, compensation=True, snr_db=(20.0,), slots=(4,))
        trace = []
        frame = run_frame(scn, draw_frame(scn, 0, 0), center=0.25, trace=trace)
        assert frame.obs.plan.theta0 == 0.25 and frame.obs.plan.alpha == scn.zeta_max
        assert frame.record.theta_r == _trial(scn, 0)[0].theta_r
        # the trace collects one row per refine iteration, ending at the refined angle
        assert len(trace) == frame.record.iterations and trace[-1][1] == frame.state.theta

    def test_no_state_without_compensation(self, cfg):
        scn = ScenarioConfig(system=cfg, users=1, seed=4, snr_db=(10.0,), slots=(2,))
        frame = run_frame(scn, draw_frame(scn, 0, 0))
        assert frame.state is None and frame.record.theta_refined is None

    def test_record_count_users(self, cfg):
        scn = ScenarioConfig(system=cfg, users=3, trials=1, seed=3, snr_db=(10.0,), slots=(2,))
        assert len(_trial(scn, 0)) == 3

    def test_true_direction_inside_searched_interval(self, cfg):
        scn = ScenarioConfig(system=cfg, users=1, trials=40, seed=11, snr_db=(math.inf,), slots=(4,))
        for t in range(40):
            rec = _trial(scn, t)[0]
            assert abs(rec.theta_hat - rec.theta_r) < 2 * scn.zeta_max

    def test_forward_only_matches_auto_on_negative_axis(self, cfg):
        # when every slot center is negative both schemes pick the same pairing
        base = dict(system=cfg, users=1, trials=20, seed=21, zeta_max=0.2, snr_db=(10.0,), slots=(4,),
                    theta_grid=(-0.55,))
        fb = ScenarioConfig(scheme="forward_backward", **base)
        fo = ScenarioConfig(scheme="forward_only", **base)
        for t in range(20):
            ra = _trial(fb, t)[0]
            rb = _trial(fo, t)[0]
            assert ra.theta_hat == rb.theta_hat

    def test_exhaustive_sweep_estimates_slot_centers(self, cfg):
        # one beam per slot: the estimate is always a slot center, and stays
        # inside the searched interval (grating replicas can pick a far slot,
        # which is what makes this baseline weak)
        scn = ScenarioConfig(system=cfg, users=1, trials=20, seed=31, scheme="exhaustive_sweep",
                             snr_db=(math.inf,), slots=(4,))
        for t in range(20):
            rec = _trial(scn, t)[0]
            assert abs(rec.theta_hat - rec.theta_r) <= 2 * scn.zeta_max


class TestPlanningCost:
    def test_codebook_frames_pair_no_slot_one_at_a_time(self, monkeypatch):
        # codebook-small's scenario: every slot is paired and snapped in the plan's array pass,
        # and no frame builds the per-slot pairings or evaluates a radius bound
        def forbidden(*args, **kwargs):
            raise AssertionError("a frame took the per-slot pairing path")

        monkeypatch.setattr(pairing, "make_pairing", forbidden)
        monkeypatch.setattr(tracker, "make_pairing", forbidden)
        monkeypatch.setattr(codebook, "quantized_pairing", forbidden)
        monkeypatch.setattr(tracker, "quantized_pairing", forbidden)
        monkeypatch.setattr(pairing, "mode_bound", forbidden)
        small = SystemConfig(n_bs=64, n_ttd=8, p=8, f_c=100e9, bandwidth=10e9, m_half=16)
        for slots in (2, 4, 8):
            scn = ScenarioConfig(system=small, users=4, trials=1, seed=1, snr_db=(10.0,), slots=(slots,),
                                 scheme="forward_only", codebook=True)
            assert len(run_trial(scn, [draw_frame(scn, 0, user) for user in range(4)])) == 4


class TestFrameCost:
    """What a one-user frame builds and calls, counted and never timed."""

    def _frame_calls(self, monkeypatch, scn):
        calls = collections.Counter()
        init = physmodel.RayKernel.__init__

        def counted_init(kernel, *args, **kwargs):
            calls["RayKernel"] += 1
            init(kernel, *args, **kwargs)

        monkeypatch.setattr(physmodel.RayKernel, "__init__", counted_init)
        for module, name in ((harness, "observe"), (tracker, "angle_map")):
            def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return calls, run_frame(scn, draw_frame(scn, 0, 0))

    def test_coarse_frame_builds_the_pilot_and_gain_kernels(self, monkeypatch, cfg):
        scn = ScenarioConfig(system=cfg, users=1, trials=1, snr_db=(20.0,), theta_grid=(0.6,))
        calls, frame = self._frame_calls(monkeypatch, scn)
        assert calls == {"RayKernel": 2, "observe": 1, "angle_map": 1}
        assert "kernel" not in vars(frame.obs.plan)

    def test_compensated_frame_adds_only_the_plan_kernel(self, monkeypatch, cfg):
        scn = ScenarioConfig(system=cfg, users=1, trials=1, snr_db=(20.0,), compensation=True)
        calls, frame = self._frame_calls(monkeypatch, scn)
        assert calls == {"RayKernel": 3, "observe": 1, "angle_map": 1}
        assert "kernel" in vars(frame.obs.plan) and frame.record.iterations > 0


# Each config key's rule, as its message states it: "<key> must be <rule>, got <value>".
_COUNT = "an integer in [1, 2**53]"
_RULES = {
    "n_bs": _COUNT, "n_ttd": _COUNT, "p": _COUNT, "m_half": _COUNT, "users": _COUNT, "trials": _COUNT, "seed": "an integer >= 0 (as a float, at most 2**53)",
    "f_c": "a finite number > 0", "bandwidth": "a finite number > 0",
    "zeta_max": "a number in (0, 1)", "gain_sigma": "a finite number >= 0",
    "compensation": "True or False (true/false, yes/no or 1/0 in files)",
    "codebook": "True or False (true/false, yes/no or 1/0 in files)",
    "snr_db": "a non-empty list of distinct numbers (finite in files and flags)",
    "slots": "a non-empty list of distinct entries, each an integer in [1, 2**53]",
    "theta_grid": "a list of distinct numbers in [-0.99, 0.99]",
}


_SYSTEM_KEYS = {f.name for f in fields(SystemConfig)}


def _rejects(key, value):
    """The full-match pattern of the message rejecting ``value`` for ``key``."""
    return f"^{re.escape(f'{key} must be {_RULES[key]}, got {value!r}')}$"


class TestScenarioConfig:
    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scheme="sideways")

    def test_rejects_negative_gain_sigma(self):
        with pytest.raises(ValueError, match="gain_sigma"):
            ScenarioConfig(gain_sigma=-0.5)

    @pytest.mark.parametrize("gain_sigma", [float("nan"), float("inf")])
    def test_rejects_non_finite_gain_sigma(self, gain_sigma):
        # either makes every gain draw nan
        with pytest.raises(ValueError, match=_rejects("gain_sigma", gain_sigma)):
            ScenarioConfig(gain_sigma=gain_sigma)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            ScenarioConfig(seed=-1)

    @pytest.mark.parametrize(
        "key, value",
        [("users", 1.5), ("users", True), ("users", 2.0), ("trials", 2.5), ("trials", False), ("seed", 1.5),
         ("seed", True), ("seed", "3")],
    )
    def test_rejects_counts_that_are_not_integers(self, key, value):
        # a float count used to pass and fail later with a TypeError, and True counted as 1
        with pytest.raises(ValueError, match=_rejects(key, value)):
            ScenarioConfig(**{key: value})
        assert ScenarioConfig(users=np.int64(2), trials=np.int64(3), seed=np.int64(0)).users == 2

    @pytest.mark.parametrize("key", ["compensation", "codebook"])
    @pytest.mark.parametrize("value", ["no", "false", 1, 0, None, np.float64(1.0)])
    def test_rejects_flags_that_are_not_bools(self, key, value):
        # the truthy string "no" used to turn compensation on
        with pytest.raises(ValueError, match=_rejects(key, value)):
            ScenarioConfig(**{key: value})

    @pytest.mark.parametrize(
        "key, value",
        [("f_c", "1e11"), ("bandwidth", None), ("zeta_max", "0.2"), ("gain_sigma", "0"), ("snr_db", ("10",)),
         ("theta_grid", ("0.3",))],
    )
    def test_rejects_real_values_that_are_not_numbers(self, key, value):
        # each used to raise a TypeError naming no key, from a comparison or arithmetic on the value
        system_keys = {f.name for f in fields(SystemConfig)}
        with pytest.raises(ValueError, match=_rejects(key, value)):
            if key in system_keys:
                replace(default_config(), **{key: value})
            else:
                ScenarioConfig(**{key: value})

    @pytest.mark.parametrize("key, value", [("snr_db", 10.0), ("slots", 4), ("theta_grid", 0.3)])
    def test_rejects_list_keys_that_are_not_lists(self, key, value):
        # each used to raise "TypeError: '...' object is not iterable", naming no key
        with pytest.raises(ValueError, match=_rejects(key, value)):
            ScenarioConfig(**{key: value})
        assert getattr(ScenarioConfig(**{key: [value]}), key) == [value]

    @pytest.mark.parametrize("theta_grid", [(0.3, 1.5), (-0.995,), (float("nan"),)])
    def test_rejects_theta_grid_beyond_direction_cap(self, theta_grid):
        with pytest.raises(ValueError, match=_rejects("theta_grid", theta_grid)):
            ScenarioConfig(theta_grid=theta_grid)
        assert ScenarioConfig(theta_grid=(-0.99, 0.99)).theta_grid == (-0.99, 0.99)

    @pytest.mark.parametrize("snr_db", [-4000.0, 1e300, float("inf"), float("-inf"), float("nan")])
    def test_rejects_snr_without_finite_positive_pilot_noise(self, cfg, snr_db):
        if snr_db == math.inf:
            # the noiseless frame, whose pilot noise is exactly 0
            assert ScenarioConfig(snr_db=(10.0, snr_db)).snr_db == (10.0, math.inf)
            assert harness.pilot_noise_std(snr_db, cfg) == 0.0
        else:
            with pytest.raises(ValueError, match=r"snr_db entry .* gives a pilot noise that is not finite and positive"):
                ScenarioConfig(snr_db=(10.0, snr_db))
        # files and flags read the key with a parser that rejects non-finite numbers itself
        noise_rule = r"^snr_db entry .* gives a pilot noise that is not finite and positive$"
        with pytest.raises(ValueError, match=noise_rule if math.isfinite(snr_db) else _rejects("snr_db", [snr_db])):
            scenario_from_mapping({"snr_db": [snr_db]})
        assert ScenarioConfig(snr_db=(-3000.0, 3000.0)).snr_db == (-3000.0, 3000.0)

    @pytest.mark.parametrize("slots", [(2.5,), (2, 4.0), (True,)])
    def test_rejects_slot_counts_that_are_not_integers(self, slots):
        with pytest.raises(ValueError, match=_rejects("slots", slots)):
            ScenarioConfig(slots=slots)
        assert ScenarioConfig(slots=(np.int64(2), 4)).slots == (2, 4)

    @pytest.mark.parametrize("slots", [[4, 0], [4, -2], [0]])
    def test_rejects_slot_counts_below_one_before_any_frame(self, cfg, monkeypatch, slots):
        with pytest.raises(ValueError, match=_rejects("slots", slots)):
            scenario_from_mapping({"slots": slots})
        frames = []
        monkeypatch.setattr(harness, "run_frame", lambda *args, **kwargs: frames.append(args))
        with pytest.raises(ValueError, match=_rejects("slots", tuple(slots))):
            sweep(replace(ScenarioConfig(system=cfg, users=1, trials=1), slots=tuple(slots)), "slots")
        assert frames == []

    @pytest.mark.parametrize(
        "key, entries",
        [("snr_db", (10.0, 20.0, 10.0)), ("snr_db", (0.0, -0.0)), ("slots", (2, 2)), ("theta_grid", (0.3, -0.3, 0.3))],
    )
    def test_rejects_repeated_list_entries(self, key, entries):
        # a sweep keys its records by axis value, so a repeated entry would lose its records
        with pytest.raises(ValueError, match=_rejects(key, entries)):
            ScenarioConfig(**{key: entries})
        with pytest.raises(ValueError, match=_rejects(key, list(entries))):
            scenario_from_mapping({key: list(entries)})

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
        rep = sweep(scn, "snr")
        out = tmp_path / "full.json"
        rep.write_json(out)
        payload = json.loads(out.read_text())
        assert len(payload["records"]["10.0"]) == 2

    def test_theta_axis_pins_direction(self, cfg):
        scn = ScenarioConfig(system=cfg, users=1, trials=3, seed=9, snr_db=(10.0,), theta_grid=(0.5,))
        rep = sweep(scn, "theta")
        assert all(r.theta_r == 0.5 for r in rep.records[0.5])

    @pytest.mark.parametrize("target", [1.5, -0.995, float("nan")])
    def test_theta_target_beyond_direction_cap_rejected(self, cfg, target):
        scn = ScenarioConfig(system=cfg, users=1, trials=1, seed=9, snr_db=(10.0,))
        # the scenario, which every frame reads its target from, owns the cap
        with pytest.raises(ValueError, match="theta_grid"):
            replace(scn, theta_grid=(target,))
        with pytest.raises(ValueError, match=repr(target)):
            sweep(replace(scn, theta_grid=(0.5, target)), "theta")

    def test_theta_values_checked_before_any_frame(self, cfg, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run_trial", lambda *args, **kwargs: calls.append(args) or [])
        scn = ScenarioConfig(system=cfg, users=1, trials=2, seed=9, snr_db=(10.0,))
        with pytest.raises(ValueError, match="theta_grid"):
            sweep(replace(scn, theta_grid=(0.3, 1.5)), "theta")
        assert calls == []

    def test_unknown_axis(self, cfg):
        scn = ScenarioConfig(system=cfg)
        with pytest.raises(ValueError):
            sweep(scn, "users")

    def test_empty_axis_raises(self):
        # the default theta_grid is empty; the CLI checks this before calling sweep
        with pytest.raises(ValueError, match="a theta sweep needs theta_grid"):
            sweep(ScenarioConfig(), "theta")

    def test_refine_outcome_columns(self, cfg):
        scn = ScenarioConfig(system=cfg, users=1, trials=3, seed=9, snr_db=(10.0,), compensation=True)
        rep = sweep(scn, "snr")
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

        def refine_second_on_dead_geometry(obs, theta_init, **kwargs):
            calls.append(theta_init)
            if len(calls) == 2:
                # every slot steers its beam null onto the start angle, so all
                # slot responses vanish there
                slots = obs.plan.slots
                null = replace(obs.plan, psi=np.full(slots, theta_init - 2.0 / cfg.n_bs),
                               t_aux=np.full(slots, theta_init))
                obs = replace(obs, plan=null)
            return real_refine(obs, theta_init, **kwargs)

        monkeypatch.setattr(harness, "refine", refine_second_on_dead_geometry)
        scn = ScenarioConfig(system=cfg, users=1, trials=3, seed=9, snr_db=(10.0,), compensation=True)
        rep = sweep(scn, "snr")
        row = rep.rows[0]
        assert row["n_records"] == 3
        assert row["n_degenerate"] == 1
        dead = rep.records[10.0][1]
        assert dead.degenerate and dead.theta_refined is None and dead.iterations == 0
        assert dead.theta_final == dead.theta_hat
        assert not any(r.degenerate for i, r in enumerate(rep.records[10.0]) if i != 1)

    def test_other_refine_errors_propagate(self, cfg, monkeypatch):
        def broken_refine(obs, theta_init, **kwargs):
            raise ValueError("broken refinement")

        monkeypatch.setattr(harness, "refine", broken_refine)
        scn = ScenarioConfig(system=cfg, users=1, trials=1, seed=9, snr_db=(10.0,), compensation=True)
        with pytest.raises(ValueError, match="broken refinement"):
            sweep(scn, "snr")


# A small array: frames of it cost well under a millisecond.
_SMALL = SystemConfig(n_bs=64, n_ttd=8, p=8, f_c=100e9, bandwidth=10e9, m_half=16)


@st.composite
def _sweep_cases(draw):
    """A small random scenario, of any scheme and with or without a codebook, and one of its sweep axes."""
    p = draw(st.sampled_from([2, 4, 8]))
    n_ttd = draw(st.sampled_from([2, 4, 8]))
    system = SystemConfig(
        n_bs=p * n_ttd, n_ttd=n_ttd, p=p, f_c=100e9,
        bandwidth=draw(st.floats(1e9, 20e9)), m_half=draw(st.integers(1, 16)),
    )
    axis = draw(st.sampled_from(sorted(harness.SWEEP_AXES)))
    on_axis = {"min_size": 1, "max_size": 3, "unique": True}
    snr_db = draw(st.lists(st.sampled_from([-10.0, 0.0, 10.0, 30.0, math.inf]), **on_axis))
    slots = draw(st.lists(st.integers(1, 8), **on_axis))
    # off the theta axis, a theta_grid pins every frame's target
    theta_grid = draw(st.lists(st.sampled_from([-0.7, -0.2, 0.0, 0.4, 0.9]),
                               **{**on_axis, "min_size": int(axis == "theta")}))
    # up to two users past the first block of run_trial's batches
    scn = ScenarioConfig(
        system=system, users=draw(st.integers(1, harness._USER_BLOCK + 2)), trials=draw(st.integers(1, 3)),
        snr_db=tuple(snr_db), slots=tuple(slots), theta_grid=tuple(theta_grid),
        zeta_max=draw(st.sampled_from([0.05, 0.2])), gain_sigma=draw(st.sampled_from([0.0, 0.3])),
        compensation=draw(st.booleans()), codebook=draw(st.booleans()), scheme=draw(st.sampled_from(harness.SCHEMES)),
        seed=draw(st.integers(0, 2**16)),
    )
    return scn, axis


@st.composite
def _domain_cases(draw):
    """A scenario, built in code, over the config domain's fuzz ranges (ROADMAP item 19), and one of its sweep axes."""
    p, n_ttd, f_c = draw(st.integers(1, 16)), draw(st.integers(1, 16)), draw(st.floats(10e9, 1e12))
    system = dict(
        n_bs=p * n_ttd, n_ttd=n_ttd, p=p, f_c=f_c, bandwidth=f_c * draw(st.floats(0.01, 0.6)),
        m_half=draw(st.integers(1, 39)),
    )
    axis = draw(st.sampled_from(sorted(harness.SWEEP_AXES)))
    on_axis = {"min_size": 1, "max_size": 3, "unique": True}
    scenario = dict(
        snr_db=tuple(draw(st.lists(st.sampled_from([-30.0, 0.0, 20.0, 60.0, math.inf]), **on_axis))),
        slots=tuple(draw(st.lists(st.integers(1, 8), **on_axis))),
        theta_grid=tuple(draw(st.lists(st.floats(-0.99, 0.99), **{**on_axis, "min_size": int(axis == "theta")}))),
        zeta_max=draw(st.floats(0.001, 0.95)), scheme=draw(st.sampled_from(harness.SCHEMES)),
        compensation=draw(st.booleans()), codebook=draw(st.booleans()), gain_sigma=draw(st.sampled_from([0.0, 0.5])),
        users=draw(st.integers(1, 2)), trials=draw(st.integers(1, 2)), seed=draw(st.integers(0, 2**32)),
    )
    return system, scenario, axis


class TestConfigDomain:
    # The example count was fixed before any run.
    @settings(max_examples=100, deadline=None)
    @given(case=_domain_cases())
    def test_sweep_rejects_naming_a_key_or_gives_finite_rows(self, case):
        # a warning is an error here, so a numpy overflow or invalid value fails the case
        system, scenario, axis = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                report = sweep(ScenarioConfig(system=SystemConfig(**system), **scenario), axis)
            except ValueError as exc:
                assert re.match(r"\w+", str(exc)).group() in harness.CONFIG_PARSERS, str(exc)
                return
        for row, records in zip(report.rows, report.records.values()):
            # README: an snr_db entry of +inf is the noiseless frame, and a target so near 0 that an error over
            # its square overflows makes the NMSE +inf
            infinite = {"value"} if axis == "snr" else set()
            if min(abs(r.theta_r) for r in records) < 1e-150:
                infinite |= {"nmse_linear", "nmse_db", "nmse_coarse_linear", "nmse_coarse_db"}
            assert all(math.isfinite(v) or (k in infinite and v == math.inf)
                       for k, v in row.items() if isinstance(v, float)), row


class TestFrameDraws:
    # The example count was fixed before any run.
    @settings(max_examples=40, deadline=None)
    @given(case=_sweep_cases())
    def test_sweep_records_equal_frames_drawing_their_own(self, case):
        # the sweep runs each trial's users as batches (run_trial); run_frame is the batch of one
        scn, axis = case
        key = harness.SWEEP_AXES[axis]
        report = sweep(scn, axis)
        for value in getattr(scn, key):
            point = replace(scn, **{key: (value,)})
            draws = [draw_frame(point, t, u) for t in range(scn.trials) for u in range(scn.users)]
            own = [run_frame(point, d).record for d in draws]
            assert report.records[value] == own
            assert [(r.trial, r.user) for r in own] == [(d.trial, d.user) for d in draws]

    @pytest.mark.parametrize("snr_db", [(10.0,), (0.0, 10.0, math.inf)])
    def test_sweep_draws_each_frame_once(self, monkeypatch, snr_db):
        real_draw = harness.draw_frame
        calls = []
        monkeypatch.setattr(harness, "draw_frame", lambda scn, t, u: calls.append((t, u)) or real_draw(scn, t, u))
        sweep(ScenarioConfig(system=_SMALL, users=2, trials=3, seed=9, snr_db=snr_db), "snr")
        assert sorted(calls) == [(t, u) for t in range(3) for u in range(2)]

    @pytest.mark.parametrize("slots", [2, 4])
    def test_normals_for_more_slots_begin_with_those_for_fewer(self, cfg, slots):
        # the slots axis shares one draw of max(slots) slabs among its points
        scn = ScenarioConfig(system=cfg, seed=7, slots=(2, 4, 8))
        many = harness.draw_frame(scn, 3, 1).normals
        few = harness.draw_frame(replace(scn, slots=(slots,)), 3, 1).normals
        assert many.shape == (8, cfg.n_subcarriers, 2)
        assert np.array_equal(many[:slots], few)

    def test_given_draws_are_used_and_left_unchanged(self):
        scn = ScenarioConfig(system=_SMALL, users=1, seed=3, snr_db=(0.0,), slots=(2, 4))
        draws = harness.draw_frame(scn, 1, 0)
        normals = draws.normals.copy()
        point = replace(scn, slots=(4,))
        assert run_frame(point, draws).record == run_frame(point, draw_frame(point, 1, 0)).record
        assert np.array_equal(draws.normals, normals)

    @pytest.mark.parametrize(
        "drawn, run, key",
        [({"slots": (2,)}, {"slots": (4,)}, "slots"),
         ({"system": replace(_SMALL, m_half=8)}, {}, "m_half"),
         ({}, {"theta_grid": (0.3,)}, "theta_grid"),
         ({"theta_grid": (0.3,)}, {}, "theta_grid"),
         ({"seed": 4}, {}, "seed")],
    )
    def test_draws_that_do_not_fit_the_scenario_rejected_naming_the_key(self, drawn, run, key):
        scn = ScenarioConfig(system=_SMALL, users=1, seed=3, snr_db=(10.0,), slots=(4,))
        draws = harness.draw_frame(replace(scn, **drawn), 0, 0)
        with pytest.raises(ValueError, match=key):
            run_frame(replace(scn, **run), draws)

    def test_the_key_travels_only_with_the_draws(self):
        scn = ScenarioConfig(system=_SMALL, users=3, seed=3, snr_db=(10.0,), slots=(2,))
        draws = draw_frame(scn, 1, 2)
        assert (draws.seed, draws.trial, draws.user) == (3, 1, 2)
        record = run_frame(scn, draws).record
        assert (record.trial, record.user) == (1, 2)
        # no call form takes a (trial, user) apart from the draws
        assert list(inspect.signature(run_frame).parameters) == ["scn", "draws", "center", "trace"]
        assert list(inspect.signature(run_trial).parameters) == ["scn", "draws"]


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
    report = sweep(scn, "snr")
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
                snr_db=(10.0,), scheme=scheme, theta_grid=tuple(self.GRID_PTS),
            )
            rows = sweep(scn, "theta").rows
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
        # f_d is derived from bandwidth and m_half, so no value of it is a config key
        with pytest.raises(ValueError, match=r"unknown config keys: \['f_d'\]"):
            scenario_from_mapping({"m_half": 32, "f_d": default_config().f_d})

    def test_key_set_twice_rejected_naming_both_lines(self, tmp_path):
        p = tmp_path / "twice.cfg"
        p.write_text("users = 2\n# users = 3\ntrials = 4\n\nusers = 1\n")
        with pytest.raises(ValueError, match=r"^config key 'users' is set twice, on lines 1 and 5$"):
            load_key_values(p)

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
        scn = scenario_from_mapping({"users": 4.0, "trials": "4.0", "seed": 2.0**53})
        assert (scn.users, scn.trials, scn.seed) == (4, 4, 2**53)

    @pytest.mark.parametrize(
        "key, value", [("users", 1e300), ("trials", "1e18"), ("seed", 2.0**53 + 2), ("slots", [2, 1e20]), ("seed", "-1e17")]
    )
    def test_integral_floats_beyond_2_pow_53_rejected(self, key, value):
        # beyond 2**53 a float no longer names one integer
        with pytest.raises(ValueError, match=_rejects(key, value)):
            scenario_from_mapping({key: value})

    @pytest.mark.parametrize(
        "data, key",
        [({"users": 10**30}, "users"), ({"n_bs": 2**1100, "n_ttd": 2**1100, "p": 1}, "n_bs"),
         ({"m_half": 2**53 + 1}, "m_half"), ({"slots": [2, 2**60]}, "slots"), ({"trials": 2**53 + 1}, "trials")],
    )
    def test_counts_beyond_2_pow_53_rejected_naming_the_key(self, data, key):
        # users = 10**30 used to build a scenario, and n_bs = 2**1100 to be reported as an snr_db error
        with pytest.raises(ValueError, match=_rejects(key, data[key])):
            scenario_from_mapping(data)
        value = tuple(data[key]) if key == "slots" else data[key]
        with pytest.raises(ValueError, match=_rejects(key, value)):
            if key in _SYSTEM_KEYS:
                replace(default_config(), **{key: value})
            else:
                ScenarioConfig(**{key: value})
        assert scenario_from_mapping({"users": 2**53, "slots": [2**53]}).users == 2**53

    def test_exact_integers_are_unbounded(self):
        # only for seed: a count is capped at 2**53 however it is spelled
        assert scenario_from_mapping({"seed": 10**30}).seed == 10**30
        with pytest.raises(ValueError, match=_rejects("trials", str(2**53 + 1))):
            scenario_from_mapping({"trials": str(2**53 + 1)})

    @pytest.mark.parametrize(
        "key, value",
        [("zeta_max", "abc"), ("f_c", "abc"), ("gain_sigma", "abc"), ("snr_db", "abc"),
         ("snr_db", [10, "abc"]), ("theta_grid", [0.3, None]), ("bandwidth", True),
         ("f_c", float("inf")), ("f_d", float("nan")), ("zeta_max", [0.1]), ("gain_sigma", -1)],
    )
    def test_float_keys_reject_bad_values(self, key, value):
        # f_d is no config key (it is derived from bandwidth and m_half), so it is named as unknown
        match = key if key in harness.CONFIG_PARSERS else rf"unknown config keys: \['{key}'\]"
        with pytest.raises(ValueError, match=match):
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
