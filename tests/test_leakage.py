from dataclasses import replace

import numpy as np
import pytest

from thztrack import (
    CprState,
    PathComponent,
    PrecoderConfig,
    SubcarrierGrid,
    angle_map,
    assemble_precoder,
    build_cpr_problem,
    channel_response,
    coarse_estimate,
    default_config,
    objective,
    objective_gradient,
    plan_tracking,
    refine,
    run_tracking,
    steering_vector,
    update_gain,
    update_phases,
)
from thztrack.leakage import modulus_objective


@pytest.fixture(scope="module")
def cfg():
    return default_config()


@pytest.fixture(scope="module")
def grid(cfg):
    return SubcarrierGrid.from_config(cfg)


@pytest.fixture(scope="module")
def plan(cfg):
    return plan_tracking(0.42, 0.1, 3, cfg)


def synthetic_problem(plan, cfg, grid, theta, g0, taus0):
    """Model-consistent stacked data built from first principles.

    The per-cell response is computed with explicit steering/precoder inner
    products, independently of the solver's own response helper.
    """
    n_sub = len(grid)
    y_hat = np.empty((n_sub, plan.slots), dtype=complex)
    for i, (m, f_m) in enumerate(zip(grid.m_indices, grid.frequencies)):
        a = steering_vector(f_m, theta, cfg.n_bs, cfg.f_c)
        for l, pc in enumerate(plan.pairings):
            c = np.vdot(a, assemble_precoder(PrecoderConfig(pc.psi, pc.t_aux), f_m, cfg))
            y_hat[i, l] = g0 * np.exp(1j * taus0[i]) * c
    obs = run_tracking(plan, channel_response(PathComponent(1.0 + 0j, theta, 0.0), grid, cfg), 0.0)
    return replace(build_cpr_problem(obs), y_hat=y_hat)


@pytest.fixture(scope="module")
def noisy_problem(cfg, grid, plan):
    ch = channel_response(PathComponent(1.0 + 0j, 0.4321, 0.0), grid, cfg)
    obs = run_tracking(plan, ch, noise_std=cfg.n_bs / np.sqrt(10.0), rng=123)
    return build_cpr_problem(obs)


class TestBuildProblem:
    def test_entries_match_observation(self, cfg, grid, plan):
        ch = channel_response(PathComponent(1.0 + 0j, 0.4, 0.0), grid, cfg)
        obs = run_tracking(plan, ch, noise_std=3.0, rng=8)
        prob = build_cpr_problem(obs)
        np.testing.assert_array_equal(prob.y_hat, obs.y.T)

    def test_dimensions(self, cfg, grid, plan):
        ch = channel_response(PathComponent(1.0 + 0j, 0.4, 0.0), grid, cfg)
        prob = build_cpr_problem(run_tracking(plan, ch, 0.0))
        assert prob.y_hat.shape == (cfg.n_subcarriers, plan.slots)
        assert prob.b_mats.shape == (cfg.n_subcarriers, cfg.n_bs, plan.slots)

    def test_single_slot_columns(self, cfg, grid):
        plan1 = plan_tracking(0.42, 0.05, 1, cfg)
        ch = channel_response(PathComponent(1.0 + 0j, 0.4, 0.0), grid, cfg)
        prob = build_cpr_problem(run_tracking(plan1, ch, 0.0))
        assert prob.y_hat.shape[1] == 1
        pc = plan1.pairings[0]
        expected = assemble_precoder(PrecoderConfig(pc.psi, pc.t_aux), grid.frequencies[0], cfg)
        np.testing.assert_allclose(prob.b_mats[0, :, 0], expected)


class TestUpdateGain:
    def test_recovers_generating_amplitude(self, cfg, grid, plan):
        taus0 = np.linspace(-2.0, 2.0, len(grid))
        prob = synthetic_problem(plan, cfg, grid, 0.413, 1.7, taus0)
        state = CprState(theta=0.413, g=0.0, taus=np.zeros(len(grid)), residual=0.0)
        assert update_gain(prob, state) == pytest.approx(1.7, abs=1e-9)

    def test_zero_data_gives_zero(self, cfg, grid, plan):
        taus0 = np.zeros(len(grid))
        prob = synthetic_problem(plan, cfg, grid, 0.413, 0.0, taus0)
        state = CprState(theta=0.413, g=0.0, taus=taus0, residual=0.0)
        assert update_gain(prob, state) == 0.0

    def test_homogeneous_in_data_scale(self, noisy_problem, grid):
        state = CprState(theta=0.4321, g=0.0, taus=np.zeros(len(grid)), residual=0.0)
        g1 = update_gain(noisy_problem, state)
        doubled = replace(noisy_problem, y_hat=2.0 * noisy_problem.y_hat)
        assert update_gain(doubled, state) == pytest.approx(2.0 * g1, rel=1e-12)

    def test_never_increases_modulus_objective(self, noisy_problem, grid):
        state = CprState(theta=0.4325, g=0.37, taus=np.zeros(len(grid)), residual=0.0)
        before = modulus_objective(noisy_problem, state.theta, state.g)
        g_new = update_gain(noisy_problem, state)
        after = modulus_objective(noisy_problem, state.theta, g_new)
        assert after <= before + 1e-9


class TestUpdatePhases:
    def test_recovers_generating_phases(self, cfg, grid, plan):
        rng = np.random.default_rng(2)
        taus0 = rng.uniform(-np.pi, np.pi, len(grid))
        prob = synthetic_problem(plan, cfg, grid, 0.413, 1.3, taus0)
        state = CprState(theta=0.413, g=1.3, taus=np.zeros(len(grid)), residual=0.0)
        recovered = update_phases(prob, state)
        wrapped = np.angle(np.exp(1j * (recovered - taus0)))
        np.testing.assert_allclose(wrapped, 0.0, atol=1e-9)

    def test_global_phase_shift_equivariance(self, noisy_problem, grid):
        state = CprState(theta=0.4321, g=1.0, taus=np.zeros(len(grid)), residual=0.0)
        base = update_phases(noisy_problem, state)
        shifted_prob = replace(noisy_problem, y_hat=np.exp(1j * 0.71) * noisy_problem.y_hat)
        shifted = update_phases(shifted_prob, state)
        wrapped = np.angle(np.exp(1j * (shifted - base - 0.71)))
        np.testing.assert_allclose(wrapped, 0.0, atol=1e-12)

    def test_real_positive_projection_gives_zero(self, cfg, grid, plan):
        prob = synthetic_problem(plan, cfg, grid, 0.413, 2.0, np.zeros(len(grid)))
        state = CprState(theta=0.413, g=2.0, taus=np.zeros(len(grid)), residual=0.0)
        np.testing.assert_allclose(update_phases(prob, state), 0.0, atol=1e-12)

    def test_never_increases_objective(self, noisy_problem, grid):
        theta, g = 0.4325, 1.1
        taus_old = np.full(len(grid), 0.4)
        state = CprState(theta=theta, g=g, taus=taus_old, residual=0.0)
        taus_new = update_phases(noisy_problem, state)
        assert objective(noisy_problem, theta, g, taus_new) <= objective(
            noisy_problem, theta, g, taus_old
        ) + 1e-9


class TestDegenerateGeometry:
    def test_all_zero_responses_raise(self, cfg, grid, plan):
        taus0 = np.zeros(len(grid))
        prob = synthetic_problem(plan, cfg, grid, 0.413, 1.0, taus0)
        # every slot steers its beam null onto theta: psi = theta - 2/n_bs, t = theta
        slopes = np.full(plan.slots, 0.413)
        dead = replace(prob, psi=slopes - 2.0 / cfg.n_bs, t_aux=slopes)
        state = CprState(theta=0.413, g=1.0, taus=taus0, residual=0.0)
        with pytest.raises(ValueError):
            update_gain(dead, state)


class TestObjectiveGradient:
    def test_zero_at_consistent_truth(self, cfg, grid, plan):
        rng = np.random.default_rng(3)
        taus0 = rng.uniform(-np.pi, np.pi, len(grid))
        prob = synthetic_problem(plan, cfg, grid, 0.413, 1.0, taus0)
        state = CprState(theta=0.413, g=1.0, taus=taus0, residual=0.0)
        scale = np.sum(np.abs(prob.y_hat) ** 2)
        assert abs(objective_gradient(prob, state)) < 1e-8 * max(scale, 1.0)

    def test_matches_central_finite_differences(self, noisy_problem, grid):
        rng = np.random.default_rng(4)
        h = 1e-6
        worst = 0.0
        for _ in range(20):
            state = CprState(
                theta=0.4321 + rng.uniform(-2e-3, 2e-3),
                g=rng.uniform(0.5, 2.0),
                taus=rng.uniform(-np.pi, np.pi, len(grid)),
                residual=0.0,
            )
            grad = objective_gradient(noisy_problem, state)
            fd = (
                objective(noisy_problem, state.theta + h, state.g, state.taus)
                - objective(noisy_problem, state.theta - h, state.g, state.taus)
            ) / (2 * h)
            worst = max(worst, abs(grad - fd) / max(abs(grad), abs(fd)))
        assert worst < 1e-5

    def test_returns_real_scalar(self, noisy_problem, grid):
        state = CprState(theta=0.43, g=1.0, taus=np.zeros(len(grid)), residual=0.0)
        assert isinstance(objective_gradient(noisy_problem, state), float)


class TestRefine:
    def test_noiseless_off_grid_recovery(self, cfg, grid):
        plan = plan_tracking(0.42, 0.1, 3, cfg)
        pc = plan.pairings[1]
        on_grid = float(angle_map(11, PrecoderConfig(pc.psi, pc.t_aux), cfg))
        theta_r = on_grid + 2.7e-4
        ch = channel_response(PathComponent(np.exp(0.4j), theta_r, 0.0), grid, cfg)
        obs = run_tracking(plan, ch, 0.0)
        est = coarse_estimate(obs)
        state = refine(build_cpr_problem(obs), est.theta_hat, max_iter=300, tol=1e-18)
        assert abs(state.theta - theta_r) < 1e-6
        assert state.residual < 1e-10 * np.sum(np.abs(obs.y) ** 2)
        assert state.g == pytest.approx(1.0, abs=1e-6)

    def test_exact_initialization_stops_fast(self, cfg, grid):
        plan = plan_tracking(0.42, 0.1, 3, cfg)
        pc = plan.pairings[1]
        theta_r = float(angle_map(-7, PrecoderConfig(pc.psi, pc.t_aux), cfg))
        ch = channel_response(PathComponent(1.0 + 0j, theta_r, 0.0), grid, cfg)
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

    def test_noisy_refinement_beats_coarse_on_average(self, cfg, grid):
        plan = plan_tracking(0.42, 0.1, 3, cfg)
        theta_r = 0.40137
        ch = channel_response(PathComponent(1.0 + 0j, theta_r, 0.0), grid, cfg)
        coarse_sq, refined_sq = 0.0, 0.0
        for trial in range(25):
            obs = run_tracking(plan, ch, cfg.n_bs / np.sqrt(10.0), rng=np.random.default_rng([9, trial]))
            est = coarse_estimate(obs)
            state = refine(build_cpr_problem(obs), est.theta_hat)
            coarse_sq += (est.theta_hat - theta_r) ** 2
            refined_sq += (state.theta - theta_r) ** 2
        assert refined_sq < coarse_sq
