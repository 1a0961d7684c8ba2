"""Power-leakage compensation: gridless angle refinement by alternating minimization.

The coarse tracker quantizes the angle to the finite subcarrier-angle grid.
This module removes that bias by fitting the single-ray model

    y_m  ~=  g * exp(j*tau_m) * c_m(theta),      m = -M..M

to y_m, column m of the pilot matrix Y (L, 2M+1) of a
:class:`~thztrack.tracker.TrackingObservation`, where c_m(theta)[l] =
a_m(theta)^H f_{l,m} is the noiseless unit-gain response of slot l, which
the observation's plan evaluates in closed form through its kernel.  The
common amplitude g, the per-subcarrier phases tau_m and the angle theta are
updated in turn: g by scalar least squares on the moduli, tau_m in closed
form, theta by a gradient step with a backtracking line search.  The public
objective and objective_gradient share refine's residual and gradient
blocks; objective passes exp(j*tau_m) as the phasors.
"""

from __future__ import annotations

from dataclasses import dataclass
from sys import float_info

import numpy as np

from .tracker import TrackingObservation

# Not called in this module: kept as its attribute only so that span tracers
# wrapping leakage.precoder_matrix still find it.
from .physmodel import precoder_matrix  # noqa: F401

__all__ = [
    "CprState",
    "DegenerateGeometryError",
    "build_cpr_problem",
    "objective",
    "objective_gradient",
    "refine",
]


def build_cpr_problem(obs: TrackingObservation) -> TrackingObservation:
    """The observation itself, which CPR refines."""
    # the frame core calls this only so that span tracers wrapping
    # harness.build_cpr_problem see the CPR stage
    return obs


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


def _residual_matrix(obs: TrackingObservation, c: np.ndarray, model: np.ndarray) -> np.ndarray:
    return obs.y - model * c


def _sum_sq(r: np.ndarray) -> float:
    return float(np.vdot(r, r).real)


def _gain(obs: TrackingObservation, abs_y: np.ndarray, amp: np.ndarray) -> float:
    """Modulus-fit amplitude <|Y|, |c|> / ||c||^2, nonnegative, from ``abs_y`` = |Y| and the real amplitudes ``amp``."""
    abs_amp = np.abs(amp)
    # below n_bs^2*eps a closed-form response is rounding error of an exact zero
    if abs_amp.max() < obs.plan.cfg.n_bs**2 * _EPS:
        raise DegenerateGeometryError("degenerate geometry: all slot responses vanish at this angle")
    return float(np.vdot(abs_y, abs_amp) / np.vdot(amp, amp))


def _phases(obs: TrackingObservation, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inner products z_m = c_m^H y_m and their phasors exp(j*tau_m) = z_m/|z_m|.

    A vanished z_m has tau_m = angle(0) = 0, so its phasor is 1.
    """
    z = np.einsum("lm,lm->m", c.conj(), obs.y)
    abs_z = np.abs(z)
    if np.count_nonzero(abs_z) == abs_z.size:
        return z, z / abs_z
    zero = abs_z == 0.0
    abs_z[zero] = 1.0
    phasors = z / abs_z
    phasors[zero] = 1.0
    return z, phasors


def objective(obs: TrackingObservation, theta: float, g: float, taus: np.ndarray) -> float:
    """Sum of squared residuals of the single-ray fit at the given parameters."""
    return _sum_sq(_residual_matrix(obs, obs.plan.kernel(theta), g * np.exp(1j * taus)))


def _gradient(r: np.ndarray, model: np.ndarray, dc: np.ndarray) -> float:
    """d(residual)/d(theta) from the residual matrix r: 2*Re sum conj(r) * dr/dtheta with dr/dtheta = -model*dc."""
    return float(-2.0 * np.vdot(r, model * dc).real)


def objective_gradient(obs: TrackingObservation, state: CprState) -> float:
    """Derivative of the residual with respect to the angle at the current state."""
    ev = obs.plan.kernel.evaluate(state.theta)
    model = state.g * np.exp(1j * state.taus)
    return _gradient(_residual_matrix(obs, ev.c, model), model, obs.plan.kernel.slope(ev))


def refine(
    obs: TrackingObservation,
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
    returned with ``diverged`` set.  So ``max_iter=1`` returns the closed-form
    amplitude and phases at ``theta_init`` as ``g`` and ``taus``.
    """
    kernel = obs.plan.kernel
    # every iteration's amplitude fit reads |Y|
    abs_y = np.abs(obs.y)
    theta = float(theta_init)
    ev = kernel.evaluate(theta)
    dc = kernel.slope(ev)
    g_prev = 0.0
    # the phases are kept as the inner products z_m, tau_m = angle(z_m); angle(1) = 0 before the first update
    cfg = obs.plan.cfg
    z = np.ones(cfg.n_subcarriers)
    eta = _MAX_STEP
    # largest useful theta move: a fraction of the narrowest beam semi-width (top subcarrier)
    max_move = 0.5 * cfg.f_c / (cfg.n_bs * cfg.f_high)
    best: tuple[float, float, float, np.ndarray] | None = None
    prev_eps = np.inf
    grow_streak = 0
    eps = _sum_sq(obs.y)
    iterations = 0
    converged = False
    diverged = False

    for it in range(1, max_iter + 1):
        iterations = it
        # ev and dc belong to theta: the start's, or the last accepted candidate's
        g = _gain(obs, abs_y, ev.amp)
        z, phasors = _phases(obs, ev.c)
        # the model's per-subcarrier factor g*exp(j*tau_m), a row against the (L, 2M+1) responses
        model = g * phasors
        r = _residual_matrix(obs, ev.c, model)
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
                eps_c = _sum_sq(_residual_matrix(obs, evs.c[k], model))
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
