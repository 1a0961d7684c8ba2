"""Multi-timeslot frequency-scanning tracking: slot planning, pilot simulation, selection.

A searched interval of radius alpha is split into L contiguous fractions; each
timeslot scans one fraction with its own pairing, whose mode follows the sign
of the fraction center.  The strongest received cell over all (slot,
subcarrier) pairs yields the coarse angle estimate through the angle map.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import pairing as pairing_mod
from .beampattern import angle_map
from .codebook import JointCodebook, quantized_pairing
from .pairing import BACKWARD, PairingConfig
from .physmodel import ChannelResponse, PrecoderConfig, SystemConfig

# Not called in this module: kept as its attributes only so that span tracers
# wrapping tracker.forward_bound, tracker.large_angle_bound and
# tracker.precoder_matrix still find them.
from .pairing import forward_bound, large_angle_bound  # noqa: F401
from .physmodel import precoder_matrix  # noqa: F401

__all__ = [
    "TrackingPlan",
    "TrackingObservation",
    "TrackingEstimate",
    "plan_tracking",
    "run_tracking",
    "select_strongest",
    "estimate_angle",
    "coarse_estimate",
]


@dataclass(frozen=True)
class TrackingPlan:
    """Per-slot pairings covering [theta0 - alpha, theta0 + alpha] in L fractions."""

    theta0: float
    alpha: float
    slots: int
    slot_centers: np.ndarray
    slot_radius: float
    pairings: tuple[PairingConfig, ...]
    cfg: SystemConfig


@dataclass(frozen=True)
class TrackingObservation:
    """Received pilot matrix, shape (L, 2M+1), along with the plan that produced it."""

    y: np.ndarray
    plan: TrackingPlan


@dataclass(frozen=True)
class TrackingEstimate:
    """Strongest-cell indices and the coarse angle."""

    l_hat: int
    m_hat: int
    theta_hat: float


def plan_tracking(
    theta0: float,
    alpha: float,
    slots: int,
    cfg: SystemConfig,
    codebook: JointCodebook | None = None,
    pairing_mode: str = "auto",
) -> TrackingPlan:
    """Split [theta0 - alpha, theta0 + alpha] into ``slots`` fractions and pair each.

    ``pairing_mode`` is "auto" (sign-of-center rule), "forward"/"backward"
    (forced, for baselines), or "sweep" (one beam per slot).  Slot radii beyond
    the applicable bound only warn; tracking with them may fail.
    """
    if slots < 1:
        raise ValueError("slots must be a positive integer")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if abs(theta0) + alpha > 1 + 1e-12:
        raise ValueError(f"searched interval [{theta0 - alpha}, {theta0 + alpha}] leaves [-1, 1]")
    l = np.arange(1, slots + 1)
    centers = theta0 - alpha + (2 * l - 1) * alpha / slots
    radius = alpha / slots
    pairings = []
    for c in centers:
        if pairing_mode == "sweep":
            # one beam per slot: both slopes point at the fraction center, so
            # every subcarrier maps to the same angle
            pc = PairingConfig(mode=BACKWARD, theta0=float(c), alpha=0.0, psi=float(c), t_aux=float(c))
        else:
            pc = pairing_mod.make_pairing(float(c), radius, cfg, pairing_mode)
            if pc.over_bound:
                bound = pairing_mod.mode_bound(pc.theta0, pc.mode, cfg)
                warnings.warn(
                    f"slot radius {radius:.4g} exceeds the {pc.mode} bound {bound:.4g} "
                    f"at center {pc.theta0:.3f}; tracking may fail",
                    RuntimeWarning,
                    stacklevel=2,
                )
        if codebook is not None:
            pc = quantized_pairing(pc, codebook)
        pairings.append(pc)
    return TrackingPlan(
        theta0=theta0,
        alpha=alpha,
        slots=slots,
        slot_centers=centers,
        slot_radius=radius,
        pairings=tuple(pairings),
        cfg=cfg,
    )


def run_tracking(
    plan: TrackingPlan,
    channel: ChannelResponse,
    noise_std: float = 0.0,
    rng: np.random.Generator | int | None = None,
) -> TrackingObservation:
    """Simulate the received pilot matrix Y, one row per slot, unit pilots.

    Y[l, m] is h_m^H f_{l,m} (closed form, :meth:`ChannelResponse.precoded`)
    plus circular complex noise of variance noise_std**2; reproducible for a
    given seed.
    """
    cfg = plan.cfg
    if channel.cfg != cfg:
        raise ValueError("channel was built for a different system config than the plan")
    if not 0.0 <= noise_std < np.inf:
        raise ValueError(f"noise_std must be finite and nonnegative, got {noise_std!r}")
    psi = [pc.psi for pc in plan.pairings]
    t_aux = [pc.t_aux for pc in plan.pairings]
    y = channel.precoded(psi, t_aux).T.copy()
    if noise_std > 0:
        gen = np.random.default_rng(rng)
        noise = gen.standard_normal((plan.slots, cfg.n_subcarriers, 2))
        noise *= noise_std / np.sqrt(2.0)
        # each (re, im) pair of draws is read as one complex sample
        y += noise.view(complex)[..., 0]
    return TrackingObservation(y=y, plan=plan)


def select_strongest(obs: TrackingObservation) -> tuple[int, int]:
    """Indices (l_hat, m_hat) of the largest |Y|^2 cell.

    Slots are 1-based, subcarriers signed (-M..M); ties break to the smaller
    slot, then the smaller subcarrier.
    """
    if obs.y.size == 0:
        raise ValueError("empty observation")
    power = np.abs(obs.y) ** 2
    flat = int(np.argmax(power))  # first occurrence: smallest l, then smallest m
    n_sub = obs.y.shape[1]
    i, j = divmod(flat, n_sub)
    m_half = (n_sub - 1) // 2
    return i + 1, j - m_half


def estimate_angle(obs: TrackingObservation, l_hat: int, m_hat: int) -> float:
    """Coarse angle from the selected cell via the angle map of its slot pairing.

    Clipped to [-1, 1]: codebook-snapped slopes can map an edge subcarrier just past it.
    """
    if not 1 <= l_hat <= obs.plan.slots:
        raise ValueError("slot index out of range")
    if abs(m_hat) > obs.plan.cfg.m_half:
        raise ValueError("subcarrier index out of range")
    pc = obs.plan.pairings[l_hat - 1]
    theta = float(angle_map(m_hat, PrecoderConfig(pc.psi, pc.t_aux), obs.plan.cfg))
    return min(max(theta, -1.0), 1.0)


def coarse_estimate(obs: TrackingObservation) -> TrackingEstimate:
    """Strongest-cell selection and angle estimate in one step."""
    l_hat, m_hat = select_strongest(obs)
    return TrackingEstimate(l_hat=l_hat, m_hat=m_hat, theta_hat=estimate_angle(obs, l_hat, m_hat))
