from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thztrack import (
    CprState,
    PathComponent,
    SystemConfig,
    angle_map,
    build_cpr_problem,
    channel_response,
    coarse_estimate,
    default_config,
    objective,
    objective_gradient,
    pilot_normals,
    plan_tracking,
    refine,
    run_tracking,
    steering_vector,
    update_gain,
    update_phases,
)
from thztrack.leakage import DegenerateGeometryError, modulus_objective
from thztrack.physmodel import RayKernel, precoder_matrix


@pytest.fixture(scope="module")
def cfg():
    return default_config()


@pytest.fixture(scope="module")
def freqs(cfg):
    return cfg.frequencies


@pytest.fixture(scope="module")
def plan(cfg):
    return plan_tracking(0.42, 0.1, 3, cfg)


def synthetic_problem(plan, cfg, freqs, theta, g0, taus0):
    """Model-consistent stacked data built from first principles.

    The per-cell response is computed with explicit steering/precoder inner
    products, independently of the solver's own response helper.
    """
    a = steering_vector(freqs, theta, cfg.n_bs, cfg.f_c)
    c = np.stack(
        [np.einsum("mn,mn->m", a.conj(), precoder_matrix(pc, cfg))
         for pc in plan.pairings],
        axis=1,
    )
    y_hat = g0 * np.exp(1j * taus0)[:, None] * c
    obs = run_tracking(plan, channel_response(PathComponent(1.0 + 0j, theta), cfg), 0.0)
    return replace(build_cpr_problem(obs), y_hat=y_hat)


@pytest.fixture(scope="module")
def noisy_problem(cfg, plan):
    ch = channel_response(PathComponent(1.0 + 0j, 0.4321), cfg)
    obs = run_tracking(plan, ch, cfg.n_bs / np.sqrt(10.0), pilot_normals(123, plan.slots, cfg.n_subcarriers))
    return build_cpr_problem(obs)


class TestBuildProblem:
    def test_entries_match_observation(self, cfg, plan):
        ch = channel_response(PathComponent(1.0 + 0j, 0.4), cfg)
        obs = run_tracking(plan, ch, noise_std=3.0, normals=pilot_normals(8, plan.slots, cfg.n_subcarriers))
        prob = build_cpr_problem(obs)
        np.testing.assert_array_equal(prob.y_hat, obs.y.T)
        assert prob.y_hat.flags.c_contiguous

    def test_problem_is_the_observation_and_its_plan(self, cfg, plan):
        obs = run_tracking(plan, channel_response(PathComponent(1.0 + 0j, 0.4), cfg), 0.0)
        prob = build_cpr_problem(obs)
        assert [f.name for f in fields(prob)] == ["y_hat", "plan"]
        assert prob.plan is obs.plan and prob.cfg is obs.plan.cfg
        # the pilots and the refinement share the plan's one slot kernel
        assert prob.kernel is obs.plan.kernel

    def test_dimensions(self, cfg, plan):
        ch = channel_response(PathComponent(1.0 + 0j, 0.4), cfg)
        prob = build_cpr_problem(run_tracking(plan, ch, 0.0))
        assert prob.y_hat.shape == (cfg.n_subcarriers, plan.slots)
        assert prob.b_mats.shape == (cfg.n_subcarriers, cfg.n_bs, plan.slots)

    def test_single_slot_columns(self, cfg):
        plan1 = plan_tracking(0.42, 0.05, 1, cfg)
        ch = channel_response(PathComponent(1.0 + 0j, 0.4), cfg)
        prob = build_cpr_problem(run_tracking(plan1, ch, 0.0))
        assert prob.y_hat.shape[1] == 1
        expected = precoder_matrix(plan1.pairings[0], cfg)[0]
        np.testing.assert_allclose(prob.b_mats[0, :, 0], expected)


class TestUpdateGain:
    def test_recovers_generating_amplitude(self, cfg, freqs, plan):
        taus0 = np.linspace(-2.0, 2.0, len(freqs))
        prob = synthetic_problem(plan, cfg, freqs, 0.413, 1.7, taus0)
        state = CprState(theta=0.413, g=0.0, taus=np.zeros(len(freqs)), residual=0.0)
        assert update_gain(prob, state) == pytest.approx(1.7, abs=1e-9)

    def test_zero_data_gives_zero(self, cfg, freqs, plan):
        taus0 = np.zeros(len(freqs))
        prob = synthetic_problem(plan, cfg, freqs, 0.413, 0.0, taus0)
        state = CprState(theta=0.413, g=0.0, taus=taus0, residual=0.0)
        assert update_gain(prob, state) == 0.0

    def test_homogeneous_in_data_scale(self, noisy_problem, freqs):
        state = CprState(theta=0.4321, g=0.0, taus=np.zeros(len(freqs)), residual=0.0)
        g1 = update_gain(noisy_problem, state)
        doubled = replace(noisy_problem, y_hat=2.0 * noisy_problem.y_hat)
        assert update_gain(doubled, state) == pytest.approx(2.0 * g1, rel=1e-12)

    def test_never_increases_modulus_objective(self, noisy_problem, freqs):
        state = CprState(theta=0.4325, g=0.37, taus=np.zeros(len(freqs)), residual=0.0)
        before = modulus_objective(noisy_problem, state.theta, state.g)
        g_new = update_gain(noisy_problem, state)
        after = modulus_objective(noisy_problem, state.theta, g_new)
        assert after <= before + 1e-9


class TestUpdatePhases:
    def test_recovers_generating_phases(self, cfg, freqs, plan):
        rng = np.random.default_rng(2)
        taus0 = rng.uniform(-np.pi, np.pi, len(freqs))
        prob = synthetic_problem(plan, cfg, freqs, 0.413, 1.3, taus0)
        state = CprState(theta=0.413, g=1.3, taus=np.zeros(len(freqs)), residual=0.0)
        recovered = update_phases(prob, state)
        wrapped = np.angle(np.exp(1j * (recovered - taus0)))
        np.testing.assert_allclose(wrapped, 0.0, atol=1e-9)

    def test_global_phase_shift_equivariance(self, noisy_problem, freqs):
        state = CprState(theta=0.4321, g=1.0, taus=np.zeros(len(freqs)), residual=0.0)
        base = update_phases(noisy_problem, state)
        shifted_prob = replace(noisy_problem, y_hat=np.exp(1j * 0.71) * noisy_problem.y_hat)
        shifted = update_phases(shifted_prob, state)
        wrapped = np.angle(np.exp(1j * (shifted - base - 0.71)))
        np.testing.assert_allclose(wrapped, 0.0, atol=1e-12)

    def test_real_positive_projection_gives_zero(self, cfg, freqs, plan):
        prob = synthetic_problem(plan, cfg, freqs, 0.413, 2.0, np.zeros(len(freqs)))
        state = CprState(theta=0.413, g=2.0, taus=np.zeros(len(freqs)), residual=0.0)
        np.testing.assert_allclose(update_phases(prob, state), 0.0, atol=1e-12)

    def test_never_increases_objective(self, noisy_problem, freqs):
        theta, g = 0.4325, 1.1
        taus_old = np.full(len(freqs), 0.4)
        state = CprState(theta=theta, g=g, taus=taus_old, residual=0.0)
        taus_new = update_phases(noisy_problem, state)
        assert objective(noisy_problem, theta, g, taus_new) <= objective(
            noisy_problem, theta, g, taus_old
        ) + 1e-9


class TestDegenerateGeometry:
    def test_all_zero_responses_raise(self, cfg, freqs, plan):
        taus0 = np.zeros(len(freqs))
        prob = synthetic_problem(plan, cfg, freqs, 0.413, 1.0, taus0)
        # every slot steers its beam null onto theta: psi = theta - 2/n_bs, t = theta
        null = (replace(pc, psi=0.413 - 2.0 / cfg.n_bs, t_aux=0.413) for pc in plan.pairings)
        dead = replace(prob, plan=replace(plan, pairings=tuple(null)))
        state = CprState(theta=0.413, g=1.0, taus=taus0, residual=0.0)
        with pytest.raises(ValueError):
            update_gain(dead, state)


class TestObjectiveGradient:
    def test_zero_at_consistent_truth(self, cfg, freqs, plan):
        rng = np.random.default_rng(3)
        taus0 = rng.uniform(-np.pi, np.pi, len(freqs))
        prob = synthetic_problem(plan, cfg, freqs, 0.413, 1.0, taus0)
        state = CprState(theta=0.413, g=1.0, taus=taus0, residual=0.0)
        scale = np.sum(np.abs(prob.y_hat) ** 2)
        assert abs(objective_gradient(prob, state)) < 1e-8 * max(scale, 1.0)

    def test_matches_central_finite_differences(self, noisy_problem, freqs):
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
            grad = objective_gradient(noisy_problem, state)
            fd = (
                objective(noisy_problem, state.theta + h, state.g, state.taus)
                - objective(noisy_problem, state.theta - h, state.g, state.taus)
            ) / (2 * h)
            worst = max(worst, abs(grad - fd) / max(abs(grad), abs(fd)))
        assert worst < 1e-5

    def test_returns_real_scalar(self, noisy_problem, freqs):
        state = CprState(theta=0.43, g=1.0, taus=np.zeros(len(freqs)), residual=0.0)
        assert isinstance(objective_gradient(noisy_problem, state), float)


class TestRefine:
    def test_noiseless_off_grid_recovery(self, cfg):
        plan = plan_tracking(0.42, 0.1, 3, cfg)
        on_grid = float(angle_map(11, plan.pairings[1], cfg))
        theta_r = on_grid + 2.7e-4
        ch = channel_response(PathComponent(np.exp(0.4j), theta_r), cfg)
        obs = run_tracking(plan, ch, 0.0)
        est = coarse_estimate(obs)
        state = refine(build_cpr_problem(obs), est.theta_hat, max_iter=300, tol=1e-18)
        assert abs(state.theta - theta_r) < 1e-6
        assert state.residual < 1e-10 * np.sum(np.abs(obs.y) ** 2)
        assert state.g == pytest.approx(1.0, abs=1e-6)

    def test_exact_initialization_stops_fast(self, cfg):
        plan = plan_tracking(0.42, 0.1, 3, cfg)
        theta_r = float(angle_map(-7, plan.pairings[1], cfg))
        ch = channel_response(PathComponent(1.0 + 0j, theta_r), cfg)
        obs = run_tracking(plan, ch, 0.0)
        state = refine(build_cpr_problem(obs), theta_r)
        assert state.iterations <= 2
        assert state.converged
        assert abs(state.theta - theta_r) < 1e-12

    def test_residual_field_matches_recomputation(self, noisy_problem):
        state = refine(noisy_problem, 0.4325)
        assert state.residual == pytest.approx(
            objective(noisy_problem, state.theta, state.g, state.taus), rel=1e-12
        )

    def test_trace_records_iterations(self, noisy_problem):
        trace = []
        state = refine(noisy_problem, 0.4325, trace=trace)
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
            state = refine(build_cpr_problem(obs), est.theta_hat)
            coarse_sq += (est.theta_hat - theta_r) ** 2
            refined_sq += (state.theta - theta_r) ** 2
        assert refined_sq < coarse_sq


class TestProblemCaches:
    def test_cached_arrays_follow_replace(self, noisy_problem, freqs):
        state = CprState(theta=0.4321, g=1.0, taus=np.zeros(len(freqs)), residual=0.0)
        # fill the caches of the original before deriving new problems from it
        update_gain(noisy_problem, state)
        doubled = replace(noisy_problem, y_hat=2.0 * noisy_problem.y_hat)
        np.testing.assert_array_equal(doubled.abs_y, np.abs(doubled.y_hat))
        assert update_gain(doubled, state) == 2.0 * update_gain(noisy_problem, state)
        # the kernel belongs to the plan, so a problem on a new plan gets that plan's kernel
        pairings = tuple(replace(pc, psi=pc.psi + 0.01) for pc in noisy_problem.plan.pairings)
        shifted = replace(noisy_problem, plan=replace(noisy_problem.plan, pairings=pairings))
        assert shifted.kernel is not noisy_problem.kernel
        np.testing.assert_array_equal(
            shifted.kernel(0.4321),
            RayKernel([pc.psi for pc in pairings], [pc.t_aux for pc in pairings], shifted.cfg)(0.4321),
        )


def _reference_refine(prob, theta_init, max_iter, tol, step=1e-2):
    """refine's iteration rule rebuilt from the public blocks, recomputing everything each time.

    Returns (trace, state) like ``refine(..., trace=trace)``.
    """
    freqs = prob.cfg.frequencies
    theta, g_prev, taus, eta = float(theta_init), 0.0, np.zeros(len(freqs)), step
    max_move = 0.5 * prob.cfg.f_c / (prob.cfg.n_bs * float(np.max(freqs)))
    trace, best, prev_eps, grow = [], None, np.inf, 0
    iterations, converged, diverged = 0, False, False
    eps = float(np.sum(np.abs(prob.y_hat) ** 2))
    for it in range(1, max_iter + 1):
        iterations = it
        at_theta = CprState(theta=theta, g=g_prev, taus=taus, residual=eps)
        g = update_gain(prob, at_theta)
        taus = update_phases(prob, at_theta)
        eps = objective(prob, theta, g, taus)
        grad = objective_gradient(prob, CprState(theta=theta, g=g, taus=taus, residual=eps))
        eta = min(step, 2.0 * eta)
        if grad != 0.0:
            eta = min(eta, max_move / abs(grad))
        theta_new, eps_new, moved = theta, eps, False
        while grad != 0.0 and eta * grad * grad > eps * 1e-14:
            eps_c = objective(prob, theta - eta * grad, g, taus)
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


class TestTrajectoryParity:
    @settings(max_examples=60, deadline=None)
    @given(frame=_tracking_frames())
    def test_refine_matches_reference_loop(self, frame):
        system, theta0, alpha, theta_r, slots, snr_db, seed = frame
        plan = plan_tracking(theta0, alpha, slots, system)  # over-bound slots are fine here
        rng = np.random.default_rng(seed)
        ch = channel_response(PathComponent(np.exp(1j * rng.uniform(0, 2 * np.pi)), theta_r), system)
        noise_std = 0.0 if snr_db is None else system.n_bs / np.sqrt(10.0 ** (snr_db / 10.0))
        obs = run_tracking(plan, ch, noise_std, pilot_normals(rng, slots, system.n_subcarriers))
        prob = build_cpr_problem(obs)
        start = coarse_estimate(obs).theta_hat
        kwargs = {"max_iter": 200, "tol": 1e-18} if snr_db is None else {"max_iter": 50, "tol": 1e-10}

        trace = []
        try:
            state = refine(prob, start, trace=trace, **kwargs)
        except DegenerateGeometryError:
            with pytest.raises(DegenerateGeometryError):
                _reference_refine(prob, start, **kwargs)
            return
        want_trace, want = _reference_refine(prob, start, **kwargs)

        assert (state.iterations, state.converged, state.diverged) == (
            want.iterations, want.converged, want.diverged)
        assert len(trace) == len(want_trace) == state.iterations
        scale = float(np.sum(np.abs(prob.y_hat) ** 2))
        got, ref = np.array(trace), np.array(want_trace)
        np.testing.assert_array_equal(got[:, 0], ref[:, 0])
        np.testing.assert_allclose(got[:, 1], ref[:, 1], rtol=0, atol=_PARITY_RTOL)
        np.testing.assert_allclose(got[:, 2], ref[:, 2], rtol=_PARITY_RTOL, atol=_PARITY_RTOL)
        np.testing.assert_allclose(got[:, 3], ref[:, 3], rtol=0, atol=_PARITY_RTOL * scale)
        assert abs(state.theta - want.theta) <= _PARITY_RTOL
        assert state.residual == pytest.approx(want.residual, rel=0, abs=_PARITY_RTOL * scale)
        np.testing.assert_allclose(state.taus, want.taus, rtol=0, atol=_PARITY_RTOL * 2 * np.pi)
