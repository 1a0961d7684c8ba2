"""Forward/backward subcarrier-angle pairing and the closed-form searching-radius bounds.

A pairing maps the 2M+1 subcarriers onto a searched interval
[theta0 - alpha, theta0 + alpha].  Forward pairing sends the lowest frequency
to the lowest angle; backward pairing reverses the order, which enlarges the
tolerable radius for positive central angles.  The bound family below covers
the plain per-mode limits, the combined policy, the single-slot
interference-free forward radius, the enhanced large-angle limit and the
fixed/quasi-fixed radii used when the radius must not depend on the angle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .beampattern import dirichlet
from .physmodel import PrecoderConfig, SystemConfig

__all__ = [
    "FORWARD",
    "BACKWARD",
    "PairingConfig",
    "RadiusBounds",
    "make_pairing",
    "resolve_mode",
    "pairing_slopes",
    "mode_bound",
    "forward_bound",
    "backward_bound",
    "forward_backward_bound",
    "forward_single_slot_bound",
    "large_angle_bound",
    "fixed_radius",
    "quasi_fixed_radius",
    "radius_bounds",
    "window_sidelobe_level",
    "window_mainlobe_inverse",
    "sidelobe_mainlobe_frequency",
    "inter_fraction_ok",
]

FORWARD = "forward"
BACKWARD = "backward"

# window-function argument (times p) whose gain equals the first sinc sidelobe
# level ~0.2172; enters the large-angle radius bound
_SIDELOBE_CROSSING = 1.620
# |theta0| at which the quasi-fixed radius steps up: the directions of 30 and 60 degrees
_STEP_30_DEG = 0.5
_STEP_60_DEG = 0.866


@dataclass(frozen=True)
class PairingConfig(PrecoderConfig):
    """One subcarrier-angle pairing: the precoder slopes, its mode and searched interval.

    A pairing is the precoder of its slot, so every function that takes
    slopes takes it as it is.  ``over_bound`` is the one report of a radius
    beyond :func:`mode_bound`; tracking with such a config may fail, but it is
    allowed (useful for demonstrating diffusion).
    """

    mode: str
    theta0: float
    alpha: float
    over_bound: bool = False


def make_pairing(theta0: float, alpha: float, cfg: SystemConfig, mode: str = "auto") -> PairingConfig:
    """Pairing for the interval [theta0 - alpha, theta0 + alpha].

    ``mode`` is "forward", "backward" or "auto" (:func:`resolve_mode`).  The
    slopes, :func:`pairing_slopes`, solve the two edge-mapping conditions:

        forward:  psi = theta0 + r*alpha,  t = theta0 + alpha/r
        backward: psi = theta0 - r*alpha,  t = theta0 - alpha/r

    with r = m_half*f_d/f_c.  A theta0 outside [-1, 1] or an alpha not in (0, inf), nan included, raises.
    """
    mode = resolve_mode(theta0, mode)
    # written so that nan fails them too
    if not abs(theta0) <= 1:
        raise ValueError("theta0 must lie in [-1, 1]")
    if not 0 < alpha < np.inf:
        raise ValueError("alpha must be positive and finite")
    psi, t_aux = pairing_slopes(theta0, alpha, mode, cfg)
    return PairingConfig(
        psi=psi,
        t_aux=t_aux,
        mode=mode,
        theta0=theta0,
        alpha=alpha,
        over_bound=alpha > mode_bound(theta0, mode, cfg),
    )


def resolve_mode(theta0: float, mode: str) -> str:
    """The mode a ``mode`` pairing centered at theta0 uses: "auto" is backward for theta0 >= 0, else forward."""
    if mode == "auto":
        return BACKWARD if theta0 >= 0 else FORWARD
    if mode in (FORWARD, BACKWARD):
        return mode
    raise ValueError(f"unknown pairing mode {mode!r}")


def pairing_slopes(theta0: float, alpha: float, mode: str, cfg: SystemConfig) -> tuple[float, float]:
    """Slopes (psi, t_aux) of the pairing of radius ``alpha`` at ``theta0``, as in :func:`make_pairing`.

    ``mode`` is resolved, "forward" or "backward" (:func:`resolve_mode`); any other raises.
    """
    r = cfg.edge_ratio
    if mode == FORWARD:
        return theta0 + r * alpha, theta0 + alpha / r
    if mode == BACKWARD:
        return theta0 - r * alpha, theta0 - alpha / r
    raise ValueError(f"unknown pairing mode {mode!r}")


def mode_bound(theta0: float, mode: str, cfg: SystemConfig) -> float:
    """Radius limit of a ``mode`` pairing centered at theta0.

    The enhanced :func:`large_angle_bound` holds for the mode the "auto" rule
    picks: backward for theta0 >= 0 and, by its symmetry, forward for
    theta0 <= 0.  A mode forced against the sign of theta0 gets its plain
    limit, :func:`forward_bound` or :func:`backward_bound`.
    """
    if mode == FORWARD:
        return large_angle_bound(theta0, cfg) if theta0 <= 0 else forward_bound(theta0, cfg)
    if mode == BACKWARD:
        return large_angle_bound(theta0, cfg) if theta0 >= 0 else backward_bound(theta0, cfg)
    raise ValueError(f"unknown pairing mode {mode!r}")


def forward_bound(theta0: float, cfg: SystemConfig) -> float:
    """Radius limit of forward pairing, 1/p - (m_half*f_d/f_c)*theta0 (signed theta0)."""
    return 1.0 / cfg.p - cfg.edge_ratio * theta0


def backward_bound(theta0: float, cfg: SystemConfig) -> float:
    """Radius limit of backward pairing, 1/p + (m_half*f_d/f_c)*theta0 (signed theta0)."""
    return 1.0 / cfg.p + cfg.edge_ratio * theta0


def forward_backward_bound(theta0: float, cfg: SystemConfig) -> float:
    """Radius limit of the combined policy: 1/p + (m_half*f_d/f_c)*|theta0|."""
    return max(forward_bound(theta0, cfg), backward_bound(theta0, cfg))


def forward_single_slot_bound(cfg: SystemConfig) -> float:
    """Angle-independent forward radius keeping all beam sidelobes outside the interval.

    Requires the beam period to exceed the searched width at every subcarrier,
    giving f_c / (f_high * p).  Valid for single-timeslot tracking only.
    """
    return cfg.f_c / (cfg.f_high * cfg.p)


def large_angle_bound(theta0: float, cfg: SystemConfig) -> float:
    """Enhanced backward-pairing radius limit, tight for large central angles.

    Minimum of the inter-fraction constraint (window sidelobes of neighboring
    timeslots) and the intra-fraction constraint (replica beams inside the
    window mainlobe); |theta0| is used so the negative axis is covered by
    symmetry.
    """
    t0 = abs(theta0)
    r = cfg.edge_ratio
    inter = _SIDELOBE_CROSSING / cfg.p + r * t0
    intra = 2.0 / cfg.p + _extra_term(cfg) + r / 2 * t0
    return min(inter, intra)


def _extra_term(cfg: SystemConfig) -> float:
    """The radius bounds' small extra term e^2/(p*(f_c^2 - e^2)) = e^2/(p*f_low*f_high), e = m_half*f_d."""
    edge = cfg.m_half * cfg.f_d
    return edge**2 / (cfg.p * (cfg.f_c**2 - edge**2))


def fixed_radius(cfg: SystemConfig) -> float:
    """Angle-independent searching radius 1/p."""
    return 1.0 / cfg.p


def quasi_fixed_radius(
    theta0: float,
    cfg: SystemConfig,
    include_extra: bool = False,
) -> float:
    """Piecewise quasi-angle-independent radius: 1/p, 1.620/p, then 2/p.

    The branches switch at directions of 30 and 60 degrees.  The small
    additive term on the last branch is off by default.
    """
    t0 = abs(theta0)
    if t0 < _STEP_30_DEG:
        return 1.0 / cfg.p
    if t0 < _STEP_60_DEG:
        return _SIDELOBE_CROSSING / cfg.p
    out = 2.0 / cfg.p
    if include_extra:
        out += _extra_term(cfg)
    return out


@dataclass(frozen=True)
class RadiusBounds:
    """All closed-form radius bounds evaluated at one central angle."""

    forward: float
    backward: float
    fb: float
    forward_single_slot: float
    large_angle: float
    fixed: float
    quasi_fixed: float


def radius_bounds(theta0: float, cfg: SystemConfig, include_extra: bool = False) -> RadiusBounds:
    return RadiusBounds(
        forward=forward_bound(theta0, cfg),
        backward=backward_bound(theta0, cfg),
        fb=forward_backward_bound(theta0, cfg),
        forward_single_slot=forward_single_slot_bound(cfg),
        large_angle=large_angle_bound(theta0, cfg),
        fixed=fixed_radius(cfg),
        quasi_fixed=quasi_fixed_radius(theta0, cfg, include_extra=include_extra),
    )


@lru_cache(maxsize=None)
def window_sidelobe_level(p: int) -> float:
    """Maximum sidelobe level of the p-element window kernel, computed numerically.

    Exact for small p; converges to the sinc first-sidelobe level ~0.2172 as p
    grows.
    """
    a = np.linspace(2.0 / p, 1.0, 200001)
    return float(np.max(dirichlet(p, a)))


def window_mainlobe_inverse(p: int, level: float) -> float:
    """Argument in the window mainlobe where the kernel drops to ``level``.

    Bisection on [0, 2/p], where the kernel decreases monotonically from 1 to 0.
    """
    if not 0 < level < 1:
        raise ValueError("level must lie strictly between 0 and 1")
    lo, hi = 0.0, 2.0 / p
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if dirichlet(p, mid) > level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sidelobe_mainlobe_frequency(pairing: PairingConfig, cfg: SystemConfig) -> float:
    """Frequency whose mapped beam lands on the high-band window replica.

    For a backward pairing the replica of the highest subcarrier coincides
    with the mapped angle of f' = p*f_low*f_high^2 / (p*f_low*f_high +
    2*m_half*f_d*f_c/alpha).  Tends to f_high as alpha grows.
    """
    if pairing.mode != BACKWARD:
        raise ValueError("defined for backward pairings")
    if pairing.alpha <= 0:
        raise ValueError("alpha must be positive")
    f_low, f_high = cfg.f_low, cfg.f_high
    num = cfg.p * f_low * f_high**2
    den = cfg.p * f_low * f_high + 2 * cfg.m_half * cfg.f_d * cfg.f_c / pairing.alpha
    return num / den


def inter_fraction_ok(pairing: PairingConfig, cfg: SystemConfig) -> bool:
    """Whether neighboring-timeslot window sidelobes stay below the in-slot gain.

    True iff the window kernel at (m_half*f_d/f_c)*theta0 - alpha exceeds the
    maximum window sidelobe level; at alpha slightly past
    1.620/p + (m_half*f_d/f_c)*theta0 this turns false.
    """
    arg = cfg.edge_ratio * pairing.theta0 - pairing.alpha
    return bool(dirichlet(cfg.p, arg) > window_sidelobe_level(cfg.p))
