"""Power-leakage compensation: gridless angle refinement by alternating minimization.

The coarse tracker quantizes the angle to the finite subcarrier-angle grid.
This module removes that bias by fitting the single-ray model

    y_hat_m  ~=  g * exp(j*tau_m) * c_m(theta),      m = -M..M

to the stacked per-subcarrier observations, where c_m(theta)[l] =
a_m(theta)^H f_{l,m} is the noiseless unit-gain response of slot l.  The
common amplitude g, the per-subcarrier phases tau_m and the angle theta are
updated in turn: g by scalar least squares on the moduli, tau_m in closed
form, theta by a gradient step with a backtracking line search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .physmodel import PrecoderConfig, SubcarrierGrid, SystemConfig, precoder_matrix, ray_response
from .tracker import TrackingObservation

__all__ = [
    "CprProblem",
    "CprState",
    "build_cpr_problem",
    "objective",
    "modulus_objective",
    "update_gain",
    "update_phases",
    "objective_gradient",
    "refine",
]


@dataclass(frozen=True)
class CprProblem:
    """Stacked observations y_hat (2M+1, L) and the slot slopes psi, t_aux (L,).

    The solver evaluates the slot responses in closed form (:meth:`response`).
    ``b_mats``, the dense precoders of shape (2M+1, n_bs, L), is built on
    first use as an oracle view.
    """

    y_hat: np.ndarray
    psi: np.ndarray
    t_aux: np.ndarray
    grid: SubcarrierGrid
    cfg: SystemConfig

    @property
    def n_slots(self) -> int:
        return self.y_hat.shape[1]

    @cached_property
    def b_mats(self) -> np.ndarray:
        b = np.empty((len(self.grid), self.cfg.n_bs, self.n_slots), dtype=complex)
        for l, (psi, t_aux) in enumerate(zip(self.psi, self.t_aux)):
            b[:, :, l] = precoder_matrix(PrecoderConfig(float(psi), float(t_aux)), self.grid, self.cfg)
        return b

    def response(self, theta: float, derivative: bool = False):
        """Per-slot responses c[m, l] = a_m(theta)^H f_{l,m}, and dc/dtheta when ``derivative``."""
        return ray_response(theta, self.psi, self.t_aux, self.cfg, derivative)


def build_cpr_problem(obs: TrackingObservation) -> CprProblem:
    """Reshape a tracking observation into per-subcarrier stacks.

    y_hat[m, l] equals obs.y[l, m] exactly; psi[l] and t_aux[l] are the
    slopes of slot l.
    """
    cfg = obs.plan.cfg
    return CprProblem(
        y_hat=obs.y.T.copy(),
        psi=np.array([pc.psi for pc in obs.plan.pairings]),
        t_aux=np.array([pc.t_aux for pc in obs.plan.pairings]),
        grid=SubcarrierGrid.from_config(cfg),
        cfg=cfg,
    )


@dataclass(frozen=True)
class CprState:
    """Current fit: angle, common amplitude, per-subcarrier phases and the residual."""

    theta: float
    g: float
    taus: np.ndarray
    residual: float
    iterations: int = 0
    converged: bool = False
    diverged: bool = False
    degenerate_phases: bool = False


def _residual_matrix(prob: CprProblem, c: np.ndarray, g: float, taus: np.ndarray) -> np.ndarray:
    return prob.y_hat - (g * np.exp(1j * taus))[:, None] * c


def _sq_residual(prob: CprProblem, c: np.ndarray, g: float, taus: np.ndarray) -> float:
    return float(np.sum(np.abs(_residual_matrix(prob, c, g, taus)) ** 2))


def _gain(prob: CprProblem, c: np.ndarray) -> float:
    abs_c = np.abs(c)
    # below n_bs^2*eps a closed-form response is rounding error of an exact zero
    if np.all(abs_c < prob.cfg.n_bs**2 * np.finfo(float).eps):
        raise ValueError("degenerate geometry: all slot responses vanish at this angle")
    return float(np.sum(np.abs(prob.y_hat) * abs_c)) / float(np.sum(abs_c**2))


def _phases(prob: CprProblem, c: np.ndarray) -> tuple[np.ndarray, bool]:
    """Phases tau_m = angle(c_m^H y_hat_m) and whether any inner product vanished."""
    z = np.sum(c.conj() * prob.y_hat, axis=1)
    return np.angle(z), bool(np.any(z == 0))


def objective(prob: CprProblem, theta: float, g: float, taus: np.ndarray) -> float:
    """Sum of squared residuals of the single-ray fit at the given parameters."""
    return _sq_residual(prob, prob.response(theta), g, taus)


def modulus_objective(prob: CprProblem, theta: float, g: float) -> float:
    """Phase-blind objective sum_m || |y_hat_m| - g*|c_m(theta)| ||^2."""
    c = prob.response(theta)
    d = np.abs(prob.y_hat) - g * np.abs(c)
    return float(np.sum(d**2))


def update_gain(prob: CprProblem, state: CprState) -> float:
    """Scalar least-squares amplitude of the modulus fit at the current angle.

    g = sum_m <|y_hat_m|, |c_m|> / sum_m ||c_m||^2; nonnegative because both
    factors in the numerator are.
    """
    return _gain(prob, prob.response(state.theta))


def update_phases(prob: CprProblem, state: CprState) -> np.ndarray:
    """Closed-form per-subcarrier phases tau_m = angle(c_m^H y_hat_m).

    A zero inner product leaves tau_m = 0 (flagged by refine as degenerate).
    """
    return _phases(prob, prob.response(state.theta))[0]


def _gradient(prob: CprProblem, c: np.ndarray, dc: np.ndarray, g: float, taus: np.ndarray) -> float:
    """d(residual)/d(theta): 2*Re sum conj(r) * dr/dtheta, a real number."""
    r = _residual_matrix(prob, c, g, taus)
    dr = -(g * np.exp(1j * taus))[:, None] * dc
    return float(2.0 * np.real(np.sum(r.conj() * dr)))


def objective_gradient(prob: CprProblem, state: CprState) -> float:
    """Derivative of the residual with respect to the angle at the current state."""
    c, dc = prob.response(state.theta, derivative=True)
    return _gradient(prob, c, dc, state.g, state.taus)


def refine(
    prob: CprProblem,
    theta_init: float,
    max_iter: int = 50,
    tol: float = 1e-10,
    step: float = 1e-2,
    trace: list | None = None,
) -> CprState:
    """Alternating refinement from a coarse angle: amplitude, phases, gradient step.

    Each iteration updates g and tau_m in closed form, then moves theta
    against the gradient with a backtracking line search (halving until the
    residual decreases).  The trial step is warm-started from the last
    accepted one and capped both at ``step`` and at a trust region of a
    quarter beam semi-width per move, which keeps the search short when the
    residual scale is large.  Stops when the squared change of [g, theta]
    drops below ``tol`` or after ``max_iter`` iterations.  If the residual
    grows over five consecutive iterations the best state seen so far is
    returned with ``diverged`` set.
    """
    theta = float(theta_init)
    c, dc = prob.response(theta, derivative=True)
    g_prev = 0.0
    taus = np.zeros(len(prob.grid))
    eta = step
    # largest useful theta move: a fraction of the narrowest beam semi-width
    f_high = float(np.max(prob.grid.frequencies))
    max_move = 0.5 * prob.cfg.f_c / (prob.cfg.n_bs * f_high)
    best: tuple[float, float, float, np.ndarray] | None = None
    prev_eps = np.inf
    grow_streak = 0
    degenerate = False
    eps = float(np.sum(np.abs(prob.y_hat) ** 2))
    iterations = 0
    converged = False
    diverged = False

    for it in range(1, max_iter + 1):
        iterations = it
        g = _gain(prob, c)
        taus, vanished = _phases(prob, c)
        degenerate = degenerate or vanished
        eps = _sq_residual(prob, c, g, taus)
        grad = _gradient(prob, c, dc, g, taus)

        # backtracking line search on theta, simple-decrease criterion; stop
        # once the first-order decrease eta*grad^2 falls below the float
        # resolution of the objective
        eta = min(step, 2.0 * eta)
        if grad != 0.0:
            eta = min(eta, max_move / abs(grad))
        theta_new, eps_new = theta, eps
        moved = False
        while grad != 0.0 and eta * grad * grad > eps * 1e-14:
            cand = theta - eta * grad
            eps_c = _sq_residual(prob, prob.response(cand), g, taus)
            if eps_c < eps:
                theta_new, eps_new = cand, eps_c
                moved = True
                break
            eta *= 0.5
        if moved:
            # the derivative is needed only at accepted angles
            c, dc = prob.response(theta_new, derivative=True)
        else:
            # numerically stationary along this direction; a later iteration
            # may move again once the gain/phase blocks shift, so restart the
            # search scale rather than leaving eta microscopic
            eta = step

        if trace is not None:
            trace.append((it, theta_new, g, eps_new))
        if best is None or eps_new < best[0]:
            best = (eps_new, theta_new, g, taus.copy())

        delta = (g - g_prev) ** 2 + (theta_new - theta) ** 2
        theta = theta_new
        g_prev = g
        eps = eps_new

        if eps > prev_eps:
            grow_streak += 1
            if grow_streak >= 5:
                diverged = True
                break
        else:
            grow_streak = 0
        prev_eps = eps

        if delta < tol:
            converged = True
            break

    if diverged and best is not None:
        eps, theta, g_prev, taus = best
    return CprState(
        theta=theta,
        g=g_prev,
        taus=taus,
        residual=objective(prob, theta, g_prev, taus),
        iterations=iterations,
        converged=converged,
        diverged=diverged,
        degenerate_phases=degenerate,
    )
