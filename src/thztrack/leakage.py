"""Power-leakage compensation: gridless angle refinement by alternating minimization.

The coarse tracker quantizes the angle to the finite subcarrier-angle grid.
This module removes that bias by fitting the single-ray model

    y_hat_m  ~=  g * exp(j*tau_m) * c_m(theta),      m = -M..M

to y_hat_m, column m of the pilot matrix Y (L, 2M+1), where c_m(theta)[l] =
a_m(theta)^H f_{l,m} is the noiseless unit-gain response of slot l.  The
common amplitude g, the per-subcarrier phases tau_m and the angle theta are
updated in turn: g by scalar least squares on the moduli, tau_m in closed
form, theta by a gradient step with a backtracking line search.  The public
objective, update_gain, update_phases and objective_gradient share refine's
blocks; objective passes exp(j*tau_m) as the phasors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from sys import float_info

import numpy as np

from .physmodel import RayKernel, SystemConfig, precoder_matrix
from .tracker import TrackingObservation, TrackingPlan

__all__ = [
    "CprProblem",
    "CprState",
    "DegenerateGeometryError",
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
    """Observations y_hat (L, 2M+1), the pilot matrix Y itself, and the tracking plan whose slots produced them.

    The solver evaluates the slot responses in closed form through
    ``kernel``, the plan's :class:`RayKernel`, and reuses ``abs_y`` =
    |y_hat|, built on first use for this instance.  ``b_mats``, the dense
    precoders of shape (L, 2M+1, n_bs), is built on first use as an oracle
    view.
    """

    y_hat: np.ndarray
    plan: TrackingPlan

    @property
    def cfg(self) -> SystemConfig:
        return self.plan.cfg

    @property
    def kernel(self) -> RayKernel:
        return self.plan.kernel

    @cached_property
    def b_mats(self) -> np.ndarray:
        return np.stack([precoder_matrix(pc, self.cfg) for pc in self.plan.pairings])

    @cached_property
    def abs_y(self) -> np.ndarray:
        return np.abs(self.y_hat)


def build_cpr_problem(obs: TrackingObservation) -> CprProblem:
    """The CPR problem of a tracking observation: y_hat is obs.y, read-only, with no copy."""
    return CprProblem(obs.y, obs.plan)


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


class DegenerateGeometryError(ValueError):
    """Every slot response vanishes at the angle, so the amplitude fit is undefined."""


_EPS = float_info.epsilon
# cap on refine's trial angle step, and the step its line search restarts from
_MAX_STEP = 1e-2


def _residual_matrix(prob: CprProblem, c: np.ndarray, model: np.ndarray) -> np.ndarray:
    return prob.y_hat - model * c


def _sum_sq(r: np.ndarray) -> float:
    return float(np.vdot(r, r).real)


def _gain(prob: CprProblem, amp: np.ndarray) -> float:
    """Modulus-fit amplitude from the real amplitudes ``amp`` of the responses (|c| = |amp|)."""
    abs_amp = np.abs(amp)
    # below n_bs^2*eps a closed-form response is rounding error of an exact zero
    if abs_amp.max() < prob.cfg.n_bs**2 * _EPS:
        raise DegenerateGeometryError("degenerate geometry: all slot responses vanish at this angle")
    return float(np.vdot(prob.abs_y, abs_amp) / np.vdot(amp, amp))


def _phases(prob: CprProblem, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inner products z_m = c_m^H y_hat_m and their phasors exp(j*tau_m) = z_m/|z_m|.

    A vanished z_m has tau_m = angle(0) = 0, so its phasor is 1.
    """
    z = np.einsum("lm,lm->m", c.conj(), prob.y_hat)
    abs_z = np.abs(z)
    if np.count_nonzero(abs_z) == abs_z.size:
        return z, z / abs_z
    zero = abs_z == 0.0
    abs_z[zero] = 1.0
    phasors = z / abs_z
    phasors[zero] = 1.0
    return z, phasors


def objective(prob: CprProblem, theta: float, g: float, taus: np.ndarray) -> float:
    """Sum of squared residuals of the single-ray fit at the given parameters."""
    return _sum_sq(_residual_matrix(prob, prob.kernel(theta), g * np.exp(1j * taus)))


def modulus_objective(prob: CprProblem, theta: float, g: float) -> float:
    """Phase-blind objective sum_m || |y_hat_m| - g*|c_m(theta)| ||^2."""
    c = prob.kernel(theta)
    d = prob.abs_y - g * np.abs(c)
    return float(np.sum(d**2))


def update_gain(prob: CprProblem, state: CprState) -> float:
    """Scalar least-squares amplitude of the modulus fit at the current angle.

    g = sum_m <|y_hat_m|, |c_m|> / sum_m ||c_m||^2; nonnegative because both
    factors in the numerator are.
    """
    return _gain(prob, prob.kernel.evaluate(state.theta).amp)


def update_phases(prob: CprProblem, state: CprState) -> np.ndarray:
    """Closed-form per-subcarrier phases tau_m = angle(c_m^H y_hat_m).

    A zero inner product leaves tau_m = 0.
    """
    return np.angle(_phases(prob, prob.kernel(state.theta))[0])


def _gradient(r: np.ndarray, model: np.ndarray, dc: np.ndarray) -> float:
    """d(residual)/d(theta) from the residual matrix r: 2*Re sum conj(r) * dr/dtheta with dr/dtheta = -model*dc."""
    return float(-2.0 * np.vdot(r, model * dc).real)


def objective_gradient(prob: CprProblem, state: CprState) -> float:
    """Derivative of the residual with respect to the angle at the current state."""
    ev = prob.kernel.evaluate(state.theta)
    model = state.g * np.exp(1j * state.taus)
    return _gradient(_residual_matrix(prob, ev.c, model), model, prob.kernel.slope(ev))


def refine(
    prob: CprProblem,
    theta_init: float,
    max_iter: int = 50,
    tol: float = 1e-10,
    trace: list | None = None,
) -> CprState:
    """Alternating refinement from a coarse angle: amplitude, phases, gradient step.

    Each iteration updates g and tau_m in closed form, then moves theta
    against the gradient with a backtracking line search (halving until the
    residual decreases).  The trial step is warm-started from the last
    accepted one and capped both at ``_MAX_STEP`` = 1e-2 and at a trust region of a
    quarter beam semi-width per move, which keeps the search short when the
    residual scale is large.  Each kernel call (:meth:`RayKernel.evaluate`)
    holds two line-search angles, the trial step and its half (when the step
    guard admits it), tested in that order, so the half costs an evaluation
    even when the full step is accepted; the accepted angle's evaluation serves the
    next iteration's gain, phases and residual, and only its derivative is
    added.  Each iteration forms the residual once, for both the objective
    and the gradient.  Stops when the squared change of [g, theta]
    drops below ``tol`` or after ``max_iter`` iterations.  If the residual
    grows over five consecutive iterations the best state seen so far is
    returned with ``diverged`` set.
    """
    kernel = prob.kernel
    theta = float(theta_init)
    ev = kernel.evaluate(theta)
    dc = kernel.slope(ev)
    g_prev = 0.0
    # the phases are kept as the inner products z_m, tau_m = angle(z_m); angle(1) = 0 before the first update
    cfg = prob.cfg
    z = np.ones(cfg.n_subcarriers)
    eta = _MAX_STEP
    # largest useful theta move: a fraction of the narrowest beam semi-width (top subcarrier)
    max_move = 0.5 * cfg.f_c / (cfg.n_bs * cfg.f_high)
    best: tuple[float, float, float, np.ndarray] | None = None
    prev_eps = np.inf
    grow_streak = 0
    eps = _sum_sq(prob.y_hat)
    iterations = 0
    converged = False
    diverged = False

    for it in range(1, max_iter + 1):
        iterations = it
        # ev and dc belong to theta: the start's, or the last accepted candidate's
        g = _gain(prob, ev.amp)
        z, phasors = _phases(prob, ev.c)
        # the model's per-subcarrier factor g*exp(j*tau_m), a row against the (L, 2M+1) responses
        model = g * phasors
        r = _residual_matrix(prob, ev.c, model)
        eps = _sum_sq(r)
        grad = _gradient(r, model, dc)

        # backtracking line search on theta, simple-decrease criterion; stop
        # once the first-order decrease eta*grad^2 falls below the float
        # resolution of the objective
        eta = min(_MAX_STEP, 2.0 * eta)
        if grad != 0.0:
            eta = min(eta, max_move / abs(grad))
        theta_new, eps_new = theta, eps
        moved = False
        while not moved and grad != 0.0 and eta * grad * grad > eps * 1e-14:
            # the trial step and, when the guard admits it, its half share one kernel call
            etas = [eta]
            if 0.5 * eta * grad * grad > eps * 1e-14:
                etas.append(0.5 * eta)
            cands = [theta - e * grad for e in etas]
            evs = kernel.evaluate(np.array(cands))
            for k, cand in enumerate(cands):
                eps_c = _sum_sq(_residual_matrix(prob, evs.c[k], model))
                if eps_c < eps:
                    theta_new, eps_new, ev = cand, eps_c, evs.at(k)
                    moved = True
                    break
                eta *= 0.5
        if moved:
            # the derivative is needed only at accepted angles; it reuses the
            # candidate's evaluation
            dc = kernel.slope(ev)
        else:
            # numerically stationary along this direction; a later iteration
            # may move again once the gain/phase blocks shift, so restart the
            # search scale rather than leaving eta microscopic
            eta = _MAX_STEP

        if trace is not None:
            trace.append((it, theta_new, g, eps_new))
        if best is None or eps_new < best[0]:
            best = (eps_new, theta_new, g, z)

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
        eps, theta, g_prev, z = best
    # eps is the objective at (theta, g_prev, taus), up to the rounding of the
    # phasors z_m/|z_m| that stand in for objective()'s exp(j*tau_m)
    return CprState(
        theta=theta,
        g=g_prev,
        taus=np.angle(z),
        residual=eps,
        iterations=iterations,
        converged=converged,
        diverged=diverged,
    )
