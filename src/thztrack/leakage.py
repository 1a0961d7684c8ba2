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

import numpy as np

from .physmodel import SubcarrierGrid, SystemConfig, precoder_matrix, PrecoderConfig
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
    """Stacked observations y_hat (2M+1, L), precoders b_mats (2M+1, n_bs, L)."""

    y_hat: np.ndarray
    b_mats: np.ndarray
    grid: SubcarrierGrid
    cfg: SystemConfig

    def __post_init__(self):
        # (2M+1, n_bs) matrix R with a_m(theta) = exp(-j*pi*theta*R), cached
        ratios = self.grid.frequencies / self.cfg.f_c
        ramp = np.pi * np.outer(ratios, np.arange(self.cfg.n_bs))
        object.__setattr__(self, "_ratios", ratios)
        object.__setattr__(self, "_ramp", ramp)

    @property
    def n_slots(self) -> int:
        return self.y_hat.shape[1]


def build_cpr_problem(obs: TrackingObservation) -> CprProblem:
    """Reshape a tracking observation into per-subcarrier stacks.

    y_hat[m, l] equals obs.y[l, m] exactly; column l of b_mats[m] is the
    precoder of slot l at subcarrier m.
    """
    cfg = obs.plan.cfg
    grid = SubcarrierGrid.from_config(cfg)
    n_sub = len(grid)
    b = np.empty((n_sub, cfg.n_bs, obs.plan.slots), dtype=complex)
    for l, pc in enumerate(obs.plan.pairings):
        b[:, :, l] = precoder_matrix(PrecoderConfig(pc.psi, pc.t_aux), grid, cfg)
    return CprProblem(y_hat=obs.y.T.copy(), b_mats=b, grid=grid, cfg=cfg)


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


def _steering_all(prob: CprProblem, theta: float) -> np.ndarray:
    """Steering vectors of all subcarriers at one angle, shape (2M+1, n_bs).

    Row m holds powers of one unit complex number, so a cumulative product
    needs only 2M+1 transcendentals instead of (2M+1)*n_bs (entrywise error
    ~1e-13, well below every tolerance used here).
    """
    u = np.exp(-1j * np.pi * theta * prob._ratios)
    n_sub, n_bs = prob._ramp.shape
    a = np.empty((n_sub, n_bs), dtype=complex)
    a[:, 0] = 1.0
    np.cumprod(np.broadcast_to(u[:, None], (n_sub, n_bs - 1)), axis=1, out=a[:, 1:])
    return a


def _response(prob: CprProblem, a: np.ndarray) -> np.ndarray:
    """Per-slot responses c[m, l] = a_m^H f_{l,m} for stacked steering rows."""
    return np.matmul(a.conj()[:, None, :], prob.b_mats)[:, 0, :]


def _residual_matrix(prob: CprProblem, c: np.ndarray, g: float, taus: np.ndarray) -> np.ndarray:
    return prob.y_hat - (g * np.exp(1j * taus))[:, None] * c


def _sq_residual(prob: CprProblem, c: np.ndarray, g: float, taus: np.ndarray) -> float:
    return float(np.sum(np.abs(_residual_matrix(prob, c, g, taus)) ** 2))


def _gain(prob: CprProblem, c: np.ndarray) -> float:
    den = float(np.sum(np.abs(c) ** 2))
    if den == 0.0:
        raise ValueError("degenerate geometry: all slot responses vanish at this angle")
    return float(np.sum(np.abs(prob.y_hat) * np.abs(c))) / den


def _phases(prob: CprProblem, c: np.ndarray) -> tuple[np.ndarray, bool]:
    """Phases tau_m = angle(c_m^H y_hat_m) and whether any inner product vanished."""
    z = np.sum(c.conj() * prob.y_hat, axis=1)
    return np.angle(z), bool(np.any(z == 0))


def objective(prob: CprProblem, theta: float, g: float, taus: np.ndarray) -> float:
    """Sum of squared residuals of the single-ray fit at the given parameters."""
    return _sq_residual(prob, _response(prob, _steering_all(prob, theta)), g, taus)


def modulus_objective(prob: CprProblem, theta: float, g: float) -> float:
    """Phase-blind objective sum_m || |y_hat_m| - g*|c_m(theta)| ||^2."""
    c = _response(prob, _steering_all(prob, theta))
    d = np.abs(prob.y_hat) - g * np.abs(c)
    return float(np.sum(d**2))


def update_gain(prob: CprProblem, state: CprState) -> float:
    """Scalar least-squares amplitude of the modulus fit at the current angle.

    g = sum_m <|y_hat_m|, |c_m|> / sum_m ||c_m||^2; nonnegative because both
    factors in the numerator are.
    """
    return _gain(prob, _response(prob, _steering_all(prob, state.theta)))


def update_phases(prob: CprProblem, state: CprState) -> np.ndarray:
    """Closed-form per-subcarrier phases tau_m = angle(c_m^H y_hat_m).

    A zero inner product leaves tau_m = 0 (flagged by refine as degenerate).
    """
    return _phases(prob, _response(prob, _steering_all(prob, state.theta)))[0]


def _gradient(prob: CprProblem, a: np.ndarray, c: np.ndarray, g: float, taus: np.ndarray) -> float:
    """d(residual)/d(theta): 2*Re sum conj(r) * dr/dtheta, a real number."""
    da = (-1j * prob._ramp) * a
    dc = _response(prob, da)
    r = _residual_matrix(prob, c, g, taus)
    dr = -(g * np.exp(1j * taus))[:, None] * dc
    return float(2.0 * np.real(np.sum(r.conj() * dr)))


def objective_gradient(prob: CprProblem, state: CprState) -> float:
    """Derivative of the residual with respect to the angle at the current state."""
    a = _steering_all(prob, state.theta)
    c = _response(prob, a)
    return _gradient(prob, a, c, state.g, state.taus)


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
    a = _steering_all(prob, theta)
    c = _response(prob, a)
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
        grad = _gradient(prob, a, c, g, taus)

        # backtracking line search on theta, simple-decrease criterion; stop
        # once the first-order decrease eta*grad^2 falls below the float
        # resolution of the objective
        eta = min(step, 2.0 * eta)
        if grad != 0.0:
            eta = min(eta, max_move / abs(grad))
        theta_new, a_new, c_new, eps_new = theta, a, c, eps
        moved = False
        while grad != 0.0 and eta * grad * grad > eps * 1e-14:
            cand = theta - eta * grad
            a_c = _steering_all(prob, cand)
            c_c = _response(prob, a_c)
            eps_c = _sq_residual(prob, c_c, g, taus)
            if eps_c < eps:
                theta_new, a_new, c_new, eps_new = cand, a_c, c_c, eps_c
                moved = True
                break
            eta *= 0.5
        if not moved:
            # numerically stationary along this direction; a later iteration
            # may move again once the gain/phase blocks shift, so restart the
            # search scale rather than leaving eta microscopic
            eta = step

        if trace is not None:
            trace.append((it, theta_new, g, eps_new))
        if best is None or eps_new < best[0]:
            best = (eps_new, theta_new, g, taus.copy())

        delta = (g - g_prev) ** 2 + (theta_new - theta) ** 2
        theta, a, c = theta_new, a_new, c_new
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
