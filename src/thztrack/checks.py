"""Oracle checks of acceptance criteria 1, 2, 6 and 7 on the reference setup, each returning the measured error.

``thztrack validate`` and the acceptance suite call the same functions with
their own draw counts (and, for criterion 1, seeds), and compare the errors
with their bounds.
"""

from __future__ import annotations

import numpy as np

from .beampattern import angle_map, array_gain, peak_map
from .harness import pilot_noise_std
from .leakage import CprState, objective, objective_gradient, refine
from .physmodel import (
    PathComponent,
    PrecoderConfig,
    channel_response,
    default_config,
    precoder_matrix,
    steering_vector,
)
from .tracker import coarse_estimate, pilot_normals, plan_tracking, run_tracking

__all__ = ["gain_oracle_error", "angle_map_deviation", "gradient_error", "recovery_errors"]


def gain_oracle_error(draws: int, seed: int) -> float:
    """Criterion 1: largest gap between ``array_gain`` and the dense |a_m(theta)^H f_m| / n_bs.

    Each draw takes psi in [-1, 1], t_aux in [-2, 2], theta in [-1, 1] and a
    subcarrier index m; the oracle takes that subcarrier's row of the
    precoder matrix and its steering vector.
    """
    cfg = default_config()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(draws):
        pc = PrecoderConfig(rng.uniform(-1, 1), rng.uniform(-2, 2))
        theta = rng.uniform(-1, 1)
        m = int(rng.integers(-cfg.m_half, cfg.m_half + 1))
        f_m = cfg.frequencies[m + cfg.m_half]
        a = steering_vector(f_m, theta, cfg.n_bs, cfg.f_c)
        brute = abs(np.vdot(a, precoder_matrix(pc, cfg)[m + cfg.m_half])) / cfg.n_bs
        worst = max(worst, abs(brute - float(array_gain(f_m, theta, pc, cfg))))
    return worst


def angle_map_deviation(pc: PrecoderConfig, grid_step: float) -> float:
    """Criterion 2: largest distance between the brute-force per-subcarrier gain peak and ``angle_map``."""
    cfg = default_config()
    pm = peak_map(pc, cfg, grid_step=grid_step)
    return float(np.max(np.abs(pm.angles - angle_map(pm.m_indices, pc, cfg))))


def gradient_error(draws: int) -> float:
    """Criterion 6: largest relative gap between ``objective_gradient`` and a central difference of ``objective``.

    The observation is one 10 dB pilot frame (noise seed 66) of a ray at 0.4321,
    searched over [0.38, 0.48] in three slots; each draw (seed 67) moves the
    angle by up to 2e-3 and picks the amplitude and the per-subcarrier phases
    at random, so fewer draws take the first of more.
    """
    cfg = default_config()
    plan = plan_tracking(0.43, 0.05, 3, cfg)
    channel = channel_response(PathComponent(1.0 + 0j, 0.4321), cfg)
    normals = pilot_normals(66, plan.slots, cfg.n_subcarriers)
    obs = run_tracking(plan, channel, pilot_noise_std(10.0, cfg), normals)
    rng = np.random.default_rng(67)
    h = 1e-6
    worst = 0.0
    for _ in range(draws):
        state = CprState(
            theta=0.4321 + rng.uniform(-2e-3, 2e-3),
            g=rng.uniform(0.5, 2.0),
            taus=rng.uniform(-np.pi, np.pi, cfg.n_subcarriers),
            residual=0.0,
        )
        grad = objective_gradient(obs, state)
        fd = (
            objective(obs, state.theta + h, state.g, state.taus)
            - objective(obs, state.theta - h, state.g, state.taus)
        ) / (2 * h)
        worst = max(worst, abs(grad - fd) / max(abs(grad), abs(fd)))
    return worst


def recovery_errors() -> tuple[float, float]:
    """Criterion 7: noiseless errors of the coarse estimate on the angle grid and of the refined one off it.

    The three-slot plan searches [0.32, 0.52].  The on-grid ray sits where
    subcarrier 11 of slot 2 points; the off-grid ray, 2.9e-4 further, with
    phase 0.7, is refined from its coarse estimate.
    """
    cfg = default_config()
    plan = plan_tracking(0.42, 0.1, 3, cfg)
    target = float(angle_map(11, plan.pairings[1], cfg))
    channel = channel_response(PathComponent(1.0 + 0j, target), cfg)
    on_grid = abs(coarse_estimate(run_tracking(plan, channel, 0.0)).theta_hat - target)
    theta_r = target + 2.9e-4
    channel = channel_response(PathComponent(np.exp(0.7j), theta_r), cfg)
    obs = run_tracking(plan, channel, 0.0)
    state = refine(obs, coarse_estimate(obs).theta_hat, max_iter=300, tol=1e-18)
    return on_grid, abs(state.theta - theta_r)
