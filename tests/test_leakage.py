from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from thztrack.beampattern import angle_map
from thztrack.harness import ScenarioConfig, draw_frame, run_frame
from thztrack.leakage import (
    CprState,
    DegenerateGeometryError,
    build_cpr_problem,
    objective,
    objective_gradient,
    refine,
)
from thztrack.physmodel import (
    PathComponent,
    RayKernel,
    SystemConfig,
    channel_response,
    default_config,
    precoder_matrix,
    steering_vector,
)
from thztrack.tracker import coarse_estimate, pilot_normals, plan_tracking, run_tracking


@pytest.fixture(scope="module")
def cfg():
    return default_config()


@pytest.fixture(scope="module")
def freqs(cfg):
    return cfg.frequencies


@pytest.fixture(scope="module")
def plan(cfg):
    return plan_tracking(0.42, 0.1, 3, cfg)


def synthetic_obs(plan, cfg, freqs, theta, g0, taus0):
    """Model-consistent stacked data built from first principles.

    The per-cell response is computed with explicit steering/precoder inner
    products, independently of the solver's own response helper.
    """
    a = steering_vector(freqs, theta, cfg.n_bs, cfg.f_c)
    c = np.stack(
        [np.einsum("mn,mn->m", a.conj(), precoder_matrix(pc, cfg))
         for pc in plan.pairings],
    )
    y = g0 * np.exp(1j * taus0) * c
    obs = run_tracking(plan, channel_response(PathComponent(1.0 + 0j, theta), cfg), 0.0)
    return replace(obs, y=y)


@pytest.fixture(scope="module")
def noisy_obs(cfg, plan):
    ch = channel_response(PathComponent(1.0 + 0j, 0.4321), cfg)
    return run_tracking(plan, ch, cfg.n_bs / np.sqrt(10.0), pilot_normals(123, plan.slots, cfg.n_subcarriers))


class TestBuildProblem:
    def test_entries_match_observation(self, cfg, plan):
        ch = channel_response(PathComponent(1.0 + 0j, 0.4), cfg)
        obs = run_tracking(plan, ch, noise_std=3.0, normals=pilot_normals(8, plan.slots, cfg.n_subcarriers))
        prob = build_cpr_problem(obs)
        np.testing.assert_array_equal(prob.y, obs.y)
        assert prob.y.flags.c_contiguous

    @pytest.mark.parametrize("noise_std", [0.0, 3.0])
    def test_problem_holds_the_read_only_pilots_themselves(self, cfg, plan, noise_std):
        ch = channel_response(PathComponent(1.0 + 0j, 0.4), cfg)
        obs = run_tracking(plan, ch, noise_std, pilot_normals(8, plan.slots, cfg.n_subcarriers))
        assert not obs.y.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            obs.y[0, 0] = 0.0
        assert build_cpr_problem(obs).y is obs.y

    def test_problem_is_the_observation_and_its_plan(self, cfg, plan):
        obs = run_tracking(plan, channel_response(PathComponent(1.0 + 0j, 0.4), cfg), 0.0)
        assert build_cpr_problem(obs) is obs
        assert [f.name for f in fields(obs)] == ["y", "plan"]

    def test_dimensions(self, cfg, plan):
        ch = channel_response(PathComponent(1.0 + 0j, 0.4), cfg)
        prob = build_cpr_problem(run_tracking(plan, ch, 0.0))
        assert prob.y.shape == (plan.slots, cfg.n_subcarriers)
        assert prob.b_mats.shape == (plan.slots, cfg.n_subcarriers, cfg.n_bs)

    def test_single_slot_columns(self, cfg):
        plan1 = plan_tracking(0.42, 0.05, 1, cfg)
        ch = channel_response(PathComponent(1.0 + 0j, 0.4), cfg)
        prob = build_cpr_problem(run_tracking(plan1, ch, 0.0))
        assert prob.y.shape[0] == 1
        expected = precoder_matrix(plan1.pairings[0], cfg)[0]
        np.testing.assert_allclose(prob.b_mats[0, 0, :], expected)


class TestUpdateGain:
    """refine's amplitude block: one iteration returns the modulus fit at the start angle as ``g``."""

    def test_recovers_generating_amplitude(self, cfg, freqs, plan):
        taus0 = np.linspace(-2.0, 2.0, len(freqs))
        obs = synthetic_obs(plan, cfg, freqs, 0.413, 1.7, taus0)
        assert refine(obs, 0.413, max_iter=1).g == pytest.approx(1.7, abs=1e-9)

    def test_zero_data_gives_zero(self, cfg, freqs, plan):
        obs = synthetic_obs(plan, cfg, freqs, 0.413, 0.0, np.zeros(len(freqs)))
        assert refine(obs, 0.413, max_iter=1).g == 0.0

    def test_homogeneous_in_data_scale(self, noisy_obs):
        g1 = refine(noisy_obs, 0.4321, max_iter=1).g
        doubled = replace(noisy_obs, y=2.0 * noisy_obs.y)
        assert refine(doubled, 0.4321, max_iter=1).g == pytest.approx(2.0 * g1, rel=1e-12)

    def test_never_increases_modulus_residual(self, noisy_obs):
        theta = 0.4325
        abs_c = np.abs(noisy_obs.plan.kernel(theta))

        def modulus_residual(g):
            return float(np.sum((np.abs(noisy_obs.y) - g * abs_c) ** 2))

        before = modulus_residual(0.37)
        after = modulus_residual(refine(noisy_obs, theta, max_iter=1).g)
        assert after <= before + 1e-9


class TestUpdatePhases:
    """refine's phase block: one iteration returns tau_m = angle(c_m^H y_m) at the start angle as ``taus``."""

    def test_recovers_generating_phases(self, cfg, freqs, plan):
        rng = np.random.default_rng(2)
        taus0 = rng.uniform(-np.pi, np.pi, len(freqs))
        obs = synthetic_obs(plan, cfg, freqs, 0.413, 1.3, taus0)
        recovered = refine(obs, 0.413, max_iter=1).taus
        wrapped = np.angle(np.exp(1j * (recovered - taus0)))
        np.testing.assert_allclose(wrapped, 0.0, atol=1e-9)

    def test_global_phase_shift_equivariance(self, noisy_obs):
        base = refine(noisy_obs, 0.4321, max_iter=1).taus
        shifted_obs = replace(noisy_obs, y=np.exp(1j * 0.71) * noisy_obs.y)
        shifted = refine(shifted_obs, 0.4321, max_iter=1).taus
        wrapped = np.angle(np.exp(1j * (shifted - base - 0.71)))
        np.testing.assert_allclose(wrapped, 0.0, atol=1e-12)

    def test_real_positive_projection_gives_zero(self, cfg, freqs, plan):
        obs = synthetic_obs(plan, cfg, freqs, 0.413, 2.0, np.zeros(len(freqs)))
        np.testing.assert_allclose(refine(obs, 0.413, max_iter=1).taus, 0.0, atol=1e-12)

    def test_never_increases_objective(self, noisy_obs, freqs):
        theta, g = 0.4325, 1.1
        taus_old = np.full(len(freqs), 0.4)
        taus_new = refine(noisy_obs, theta, max_iter=1).taus
        assert objective(noisy_obs, theta, g, taus_new) <= objective(
            noisy_obs, theta, g, taus_old
        ) + 1e-9


class TestDegenerateGeometry:
    def test_all_zero_responses_raise(self, cfg, freqs, plan):
        obs = synthetic_obs(plan, cfg, freqs, 0.413, 1.0, np.zeros(len(freqs)))
        # every slot steers its beam null onto theta: psi = theta - 2/n_bs, t = theta
        null = replace(plan, psi=np.full(plan.slots, 0.413 - 2.0 / cfg.n_bs), t_aux=np.full(plan.slots, 0.413))
        dead = replace(obs, plan=null)
        with pytest.raises(ValueError):
            refine(dead, 0.413, max_iter=1)


class TestObjectiveGradient:
    def test_zero_at_consistent_truth(self, cfg, freqs, plan):
        rng = np.random.default_rng(3)
        taus0 = rng.uniform(-np.pi, np.pi, len(freqs))
        obs = synthetic_obs(plan, cfg, freqs, 0.413, 1.0, taus0)
        state = CprState(theta=0.413, g=1.0, taus=taus0, residual=0.0)
        scale = np.sum(np.abs(obs.y) ** 2)
        assert abs(objective_gradient(obs, state)) < 1e-8 * max(scale, 1.0)

    def test_matches_central_finite_differences(self, noisy_obs, freqs):
        rng = np.random.default_rng(4)
        h = 1e-6
        worst = 0.0
        for _ in range(20):
            state = CprState(
                theta=0.4321 + rng.uniform(-2e-3, 2e-3),
                g=rng.uniform(0.5, 2.0),
                taus=rng.uniform(-np.pi, np.pi, len(freqs)),
                residual=0.0,
            )
            grad = objective_gradient(noisy_obs, state)
            fd = (
                objective(noisy_obs, state.theta + h, state.g, state.taus)
                - objective(noisy_obs, state.theta - h, state.g, state.taus)
            ) / (2 * h)
            worst = max(worst, abs(grad - fd) / max(abs(grad), abs(fd)))
        assert worst < 1e-5

    def test_returns_real_scalar(self, noisy_obs, freqs):
        state = CprState(theta=0.43, g=1.0, taus=np.zeros(len(freqs)), residual=0.0)
        assert isinstance(objective_gradient(noisy_obs, state), float)


class TestRefine:
    def test_noiseless_off_grid_recovery(self, cfg):
        plan = plan_tracking(0.42, 0.1, 3, cfg)
        on_grid = float(angle_map(11, plan.pairings[1], cfg))
        theta_r = on_grid + 2.7e-4
        ch = channel_response(PathComponent(np.exp(0.4j), theta_r), cfg)
        obs = run_tracking(plan, ch, 0.0)
        est = coarse_estimate(obs)
        state = refine(obs, est.theta_hat, max_iter=300, tol=1e-18)
        assert abs(state.theta - theta_r) < 1e-6
        assert state.residual < 1e-10 * np.sum(np.abs(obs.y) ** 2)
        assert state.g == pytest.approx(1.0, abs=1e-6)

    def test_exact_initialization_stops_fast(self, cfg):
        plan = plan_tracking(0.42, 0.1, 3, cfg)
        theta_r = float(angle_map(-7, plan.pairings[1], cfg))
        ch = channel_response(PathComponent(1.0 + 0j, theta_r), cfg)
        obs = run_tracking(plan, ch, 0.0)
        state = refine(obs, theta_r)
        assert state.iterations <= 2
        assert state.converged
        assert abs(state.theta - theta_r) < 1e-12

    def test_residual_field_matches_recomputation(self, noisy_obs):
        state = refine(noisy_obs, 0.4325)
        assert state.residual == pytest.approx(
            objective(noisy_obs, state.theta, state.g, state.taus), rel=1e-12
        )

    def test_trace_records_iterations(self, noisy_obs):
        trace = []
        state = refine(noisy_obs, 0.4325, trace=trace)
        assert len(trace) == state.iterations
        assert all(len(row) == 4 for row in trace)

    def test_noisy_refinement_beats_coarse_on_average(self, cfg):
        plan = plan_tracking(0.42, 0.1, 3, cfg)
        theta_r = 0.40137
        ch = channel_response(PathComponent(1.0 + 0j, theta_r), cfg)
        coarse_sq, refined_sq = 0.0, 0.0
        for trial in range(25):
            obs = run_tracking(plan, ch, cfg.n_bs / np.sqrt(10.0), pilot_normals([9, trial], 3, cfg.n_subcarriers))
            est = coarse_estimate(obs)
            state = refine(obs, est.theta_hat)
            coarse_sq += (est.theta_hat - theta_r) ** 2
            refined_sq += (state.theta - theta_r) ** 2
        assert refined_sq < coarse_sq


class TestProblemCaches:
    def test_cached_arrays_follow_replace(self, noisy_obs):
        # fill the caches of the original before deriving new observations from it
        refine(noisy_obs, 0.4321, max_iter=1)
        doubled = replace(noisy_obs, y=2.0 * noisy_obs.y)
        assert refine(doubled, 0.4321, max_iter=1).g == 2.0 * refine(noisy_obs, 0.4321, max_iter=1).g
        # the kernel belongs to the plan, so an observation on a new plan gets that plan's kernel
        plan = replace(noisy_obs.plan, psi=noisy_obs.plan.psi + 0.01)
        shifted = replace(noisy_obs, plan=plan)
        assert shifted.plan.kernel is not noisy_obs.plan.kernel
        np.testing.assert_array_equal(shifted.plan.kernel(0.4321),
                                      RayKernel(plan.psi, plan.t_aux, shifted.plan.cfg)(0.4321))


class TestLineSearchCalls:
    @pytest.mark.parametrize("snr_db", [10.0, 20.0, 30.0])
    def test_trial_step_and_its_half_share_a_kernel_call(self, snr_db):
        # criterion 8's scenario; the frames' pilots and coarse estimates come from run_frame
        scn = ScenarioConfig(users=1, trials=5, seed=20250809, zeta_max=0.2, slots=(4,), snr_db=(snr_db,))
        sizes = []
        for trial in range(scn.trials):
            frame = run_frame(scn, draw_frame(scn, trial, 0))
            kernel_evaluate = frame.obs.plan.kernel.evaluate

            def recording_evaluate(theta):
                sizes.append(np.size(theta))
                return kernel_evaluate(theta)

            frame.obs.plan.kernel.evaluate = recording_evaluate
            refine(frame.obs, frame.estimate.theta_hat)
        assert max(sizes) <= 2
        # one angle per call would give 1.0
        assert len(sizes) <= 0.6 * sum(sizes)


def _reference_refine(obs, theta_init, max_iter, tol, step=1e-2):
    """refine's iteration rule rebuilt from the public blocks, recomputing everything each time.

    The gain is the modulus fit <|Y|, |c|> / ||c||^2, written out here
    rather than taken from refine's own helper, and the phases are
    tau_m = angle(z_m), with z_m = c_m^H y_m.  The model's phasors are
    z_m/|z_m|, as in refine:
    ``objective``'s exp(j*tau_m) rounds differently, and over a long
    noiseless run that rounding alone sends the two loops down different
    iteration paths.  Each iteration's residual is checked against
    ``objective`` at its gain and phases instead.

    Returns (trace, state) like ``refine(..., trace=trace)``.
    """
    kernel, cfg = obs.plan.kernel, obs.plan.cfg
    freqs = cfg.frequencies
    theta, g_prev, taus, eta = float(theta_init), 0.0, np.zeros(len(freqs)), step
    max_move = 0.5 * cfg.f_c / (cfg.n_bs * float(np.max(freqs)))
    trace, best, prev_eps, grow = [], None, np.inf, 0
    iterations, converged, diverged = 0, False, False
    scale = float(np.sum(np.abs(obs.y) ** 2))
    eps = scale

    def residual(theta, model):
        r = obs.y - model * kernel(theta)
        return r, float(np.vdot(r, r).real)

    for it in range(1, max_iter + 1):
        iterations = it
        amp = kernel.evaluate(theta).amp
        if np.abs(amp).max() < cfg.n_bs**2 * np.finfo(float).eps:
            raise DegenerateGeometryError("all slot responses vanish at this angle")
        g = float(np.vdot(np.abs(obs.y), np.abs(amp)) / np.vdot(amp, amp))
        z = np.einsum("lm,lm->m", kernel(theta).conj(), obs.y)
        taus = np.angle(z)
        abs_z = np.abs(z)
        vanished = abs_z == 0.0
        abs_z[vanished] = 1.0
        phasors = z / abs_z
        phasors[vanished] = 1.0
        model = g * phasors
        r, eps = residual(theta, model)
        assert eps == pytest.approx(objective(obs, theta, g, taus), rel=0, abs=_PARITY_RTOL * scale)
        grad = float(-2.0 * np.vdot(r, model * kernel.slope(kernel.evaluate(theta))).real)
        eta = min(step, 2.0 * eta)
        if grad != 0.0:
            eta = min(eta, max_move / abs(grad))
        theta_new, eps_new, moved = theta, eps, False
        while grad != 0.0 and eta * grad * grad > eps * 1e-14:
            eps_c = residual(theta - eta * grad, model)[1]
            if eps_c < eps:
                theta_new, eps_new, moved = theta - eta * grad, eps_c, True
                break
            eta *= 0.5
        if not moved:
            eta = step
        trace.append((it, theta_new, g, eps_new))
        if best is None or eps_new < best[0]:
            best = (eps_new, theta_new, g, taus)
        delta = (g - g_prev) ** 2 + (theta_new - theta) ** 2
        theta, g_prev, eps = theta_new, g, eps_new
        grow = grow + 1 if eps > prev_eps else 0
        if grow >= 5:
            diverged = True
            break
        prev_eps = eps
        if delta < tol:
            converged = True
            break
    if diverged:
        eps, theta, g_prev, taus = best
    state = CprState(theta=theta, g=g_prev, taus=taus, residual=eps, iterations=iterations,
                     converged=converged, diverged=diverged)
    return trace, state


# Fixed before any run: refine and the reference make the same floating-point
# operations, so anything beyond a few ulps of the angle, gain and residual
# scales is a different iteration path.
_PARITY_RTOL = 1e-12


@st.composite
def _tracking_frames(draw):
    """A random array/band, a tracking frame on it, and its SNR (None: noiseless)."""
    p = draw(st.integers(2, 8))
    n_ttd = draw(st.integers(2, 8))
    system = SystemConfig(
        n_bs=p * n_ttd, n_ttd=n_ttd, p=p, f_c=100e9,
        bandwidth=draw(st.floats(2e9, 20e9)), m_half=draw(st.integers(4, 24)),
    )
    alpha = draw(st.floats(0.02, 0.2))
    theta0 = draw(st.floats(-0.75, 0.75))
    theta_r = theta0 + draw(st.floats(-1.0, 1.0)) * alpha
    slots = draw(st.integers(1, 4))
    snr_db = draw(st.one_of(st.none(), st.floats(-10.0, 30.0)))
    seed = draw(st.integers(0, 2**16))
    return system, theta0, alpha, theta_r, slots, snr_db, seed


def _cpr_frame(system, theta0, alpha, theta_r, slots, snr_db, seed):
    """A tracking frame's observation at ``snr_db`` (None: noiseless) and its coarse estimate."""
    plan = plan_tracking(theta0, alpha, slots, system)  # over-bound slots are fine here
    rng = np.random.default_rng(seed)
    ch = channel_response(PathComponent(np.exp(1j * rng.uniform(0, 2 * np.pi)), theta_r), system)
    noise_std = 0.0 if snr_db is None else system.n_bs / np.sqrt(10.0 ** (snr_db / 10.0))
    obs = run_tracking(plan, ch, noise_std, pilot_normals(rng, slots, system.n_subcarriers))
    return obs, coarse_estimate(obs).theta_hat


class TestTrajectoryParity:
    @settings(max_examples=60, deadline=None)
    @given(frame=_tracking_frames())
    def test_refine_matches_reference_loop(self, frame):
        snr_db = frame[5]
        obs, start = _cpr_frame(*frame)
        kwargs = {"max_iter": 200, "tol": 1e-18} if snr_db is None else {"max_iter": 50, "tol": 1e-10}

        trace = []
        try:
            state = refine(obs, start, trace=trace, **kwargs)
        except DegenerateGeometryError:
            with pytest.raises(DegenerateGeometryError):
                _reference_refine(obs, start, **kwargs)
            return
        want_trace, want = _reference_refine(obs, start, **kwargs)

        assert (state.iterations, state.converged, state.diverged) == (
            want.iterations, want.converged, want.diverged)
        assert len(trace) == len(want_trace) == state.iterations
        scale = float(np.sum(np.abs(obs.y) ** 2))
        got, ref = np.array(trace), np.array(want_trace)
        np.testing.assert_array_equal(got[:, 0], ref[:, 0])
        np.testing.assert_allclose(got[:, 1], ref[:, 1], rtol=0, atol=_PARITY_RTOL)
        np.testing.assert_allclose(got[:, 2], ref[:, 2], rtol=_PARITY_RTOL, atol=_PARITY_RTOL)
        np.testing.assert_allclose(got[:, 3], ref[:, 3], rtol=0, atol=_PARITY_RTOL * scale)
        assert abs(state.theta - want.theta) <= _PARITY_RTOL
        assert state.residual == pytest.approx(want.residual, rel=0, abs=_PARITY_RTOL * scale)
        np.testing.assert_allclose(state.taus, want.taus, rtol=0, atol=_PARITY_RTOL * 2 * np.pi)


def _profile(obs, theta):
    """J(theta) = ||Y||^2 - (sum_m |z_m|)^2 / sum_m ||c_m||^2: the residual at the best gain and phases."""
    c = obs.plan.kernel(theta)
    z = np.einsum("lm,lm->m", c.conj(), obs.y)
    return float(np.vdot(obs.y, obs.y).real) - float(np.sum(np.abs(z))) ** 2 / float(np.vdot(c, c).real)


@st.composite
def _solver_frames(draw):
    """A random array (n_bs <= 128) and band and a tracking frame on it at 10-30 dB, as ``_tracking_frames``."""
    p = draw(st.integers(2, 16))
    n_ttd = draw(st.integers(2, 128 // p))
    system = SystemConfig(
        n_bs=p * n_ttd, n_ttd=n_ttd, p=p, f_c=100e9,
        bandwidth=draw(st.floats(2e9, 20e9)), m_half=draw(st.integers(4, 24)),
    )
    alpha = draw(st.floats(0.02, 0.2))
    theta0 = draw(st.floats(-0.75, 0.75))
    theta_r = theta0 + draw(st.floats(-1.0, 1.0)) * alpha
    slots = draw(st.integers(1, 4))
    return system, theta0, alpha, theta_r, slots, draw(st.floats(10.0, 30.0)), draw(st.integers(0, 2**16))


class TestSolverOracle:
    """The refined angle is a local minimum of J near the coarse estimate (brute force: a dense scan of J).

    Bounds fixed before any run, with b = 2 f_c / (n_bs f_high) the narrowest
    beam semi-width: J(theta_ref) <= J(theta_coarse) + 1e-12 ||Y||^2; a
    401-point scan of J over theta_ref +- b/32 has its minimum strictly
    inside; |theta_ref - theta_coarse| <= 2b.  A pattern search on J from
    the coarse estimate passes; ``refine(max_iter=1)`` fails (see CHANGES.md).
    """

    @pytest.mark.xfail(
        strict=True,
        reason="refine can stop while J is still falling: 90 of 600 random frames fail this property, "
        "a pattern search on J none of 2000 (see CHANGES.md; ROADMAP item 4 flips this mark)",
    )
    @settings(max_examples=100, deadline=None, derandomize=True, phases=(Phase.explicit, Phase.generate))
    @given(frame=_solver_frames())
    # refine ran out of its 50 iterations with J still falling past theta_ref - b/32
    @example(frame=(SystemConfig(n_bs=14, n_ttd=2, p=7, f_c=100e9, bandwidth=9607311135.64606, m_half=14),
                    0.5662933588076942, 0.03562667699868095, 0.581143894273768, 2, 10.0, 51718))
    def test_refine_stops_at_a_local_minimum_of_the_profile(self, frame):
        system = frame[0]
        obs, start = _cpr_frame(*frame)
        try:
            theta = refine(obs, start).theta
        except DegenerateGeometryError:
            return
        b = 2 * system.f_c / (system.n_bs * system.f_high)
        assert _profile(obs, theta) <= _profile(obs, start) + 1e-12 * float(np.sum(np.abs(obs.y) ** 2))
        scan = [_profile(obs, t) for t in np.linspace(theta - b / 32, theta + b / 32, 401)]
        assert 0 < int(np.argmin(scan)) < 400
        assert abs(theta - start) <= 2 * b
