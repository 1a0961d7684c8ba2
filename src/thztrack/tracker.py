"""Multi-timeslot frequency-scanning tracking: slot planning, pilot simulation, selection.

A searched interval of radius alpha is split into L contiguous fractions; each
timeslot scans one fraction with its own pairing, whose mode follows the sign
of the fraction center.  The strongest received cell over all (slot,
subcarrier) pairs yields the coarse angle estimate through the angle map.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import pairing as pairing_mod
from .beampattern import angle_map
from .codebook import JointCodebook, quantized_pairing
from .pairing import BACKWARD, PairingConfig
from .physmodel import ChannelResponse, RayKernel, SystemConfig

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
    "pilot_normals",
    "run_tracking",
    "observe",
    "coarse_estimate",
]


@dataclass(frozen=True)
class TrackingPlan:
    """Per-slot pairings covering [theta0 - alpha, theta0 + alpha] in L fractions.

    Each slot's center and radius are its pairing's ``theta0`` and ``alpha``
    (``alpha / slots``, or 0 in "sweep" mode); ``slots`` is
    ``len(pairings)``.  ``kernel``, the
    :class:`RayKernel` over the pairings' slopes, is built on first use:
    :func:`run_tracking` and the refinement use it, while a batch of frames
    (:func:`~thztrack.harness.run_trial`) makes its pilots with one kernel
    over every frame's slopes.
    """

    theta0: float
    alpha: float
    pairings: tuple[PairingConfig, ...]
    cfg: SystemConfig

    @property
    def slots(self) -> int:
        return len(self.pairings)

    @property
    def slopes(self) -> tuple[list[float], list[float]]:
        """The slots' phase slopes psi and delay slopes t_aux, in slot order."""
        return [pc.psi for pc in self.pairings], [pc.t_aux for pc in self.pairings]

    @cached_property
    def kernel(self) -> RayKernel:
        return RayKernel(*self.slopes, self.cfg)


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
    (forced, for baselines), or "sweep" (one beam per slot).  A slot radius
    beyond its pairing's :func:`~thztrack.pairing.mode_bound` is allowed and
    flagged by the pairing's ``over_bound``; tracking with it may fail.
    """
    if slots < 1:
        raise ValueError("slots must be a positive integer")
    # written so that nan fails them too
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if not abs(theta0) + alpha <= 1 + 1e-12:
        raise ValueError(f"searched interval [{theta0 - alpha}, {theta0 + alpha}] leaves [-1, 1]")
    l = np.arange(1, slots + 1)
    centers = theta0 - alpha + (2 * l - 1) * alpha / slots
    radius = alpha / slots
    pairings = []
    for c in centers:
        if pairing_mode == "sweep":
            # one beam per slot: both slopes point at the fraction center, so
            # every subcarrier maps to the same angle
            pc = PairingConfig(psi=float(c), t_aux=float(c), mode=BACKWARD, theta0=float(c), alpha=0.0)
        else:
            pc = pairing_mod.make_pairing(float(c), radius, cfg, pairing_mode)
        if codebook is not None:
            pc = quantized_pairing(pc, codebook)
        pairings.append(pc)
    return TrackingPlan(theta0=theta0, alpha=alpha, pairings=tuple(pairings), cfg=cfg)


def pilot_normals(rng: np.random.Generator | int | list[int], slots: int, n_subcarriers: int) -> np.ndarray:
    """Standard normals of the pilot noise, shape (slots, n_subcarriers, 2): one (re, im) pair per cell.

    ``rng`` is a generator or a seed; None, which would draw unseeded
    noise, raises.  The fill order is row-major, so the first L slabs of a
    draw for more slots equal a draw for L slots from the same generator state.
    """
    if rng is None:
        raise ValueError("pilot normals need a generator or a seed, got None")
    return np.random.default_rng(rng).standard_normal((slots, n_subcarriers, 2))


def run_tracking(
    plan: TrackingPlan,
    channel: ChannelResponse,
    noise_std: float = 0.0,
    normals: np.ndarray | None = None,
) -> TrackingObservation:
    """Simulate the received pilot matrix Y, one row per slot, unit pilots.

    Y[l, m] is h_m^H f_{l,m} (closed form, :meth:`ChannelResponse.precoded` of
    ``plan.kernel``) plus the noise that :func:`observe` adds.
    """
    if channel.cfg != plan.cfg:
        raise ValueError("channel was built for a different system config than the plan")
    return observe(plan, channel.precoded(plan.kernel), noise_std, normals)


def observe(
    plan: TrackingPlan,
    response: np.ndarray,
    noise_std: float = 0.0,
    normals: np.ndarray | None = None,
) -> TrackingObservation:
    """The pilot matrix Y of ``plan`` from its noiseless ``response`` (2M+1, L), h_m^H f_{l,m}.

    Y is the transposed response plus circular complex noise of variance
    noise_std**2, built from ``normals``, the standard normals of
    :func:`pilot_normals`: their first ``plan.slots`` slabs are used and left
    unchanged.  Normals, whenever given, must cover ``plan.slots`` slots of
    2*m_half+1 subcarriers; a noisy call needs them, a noiseless one only
    checks them.
    """
    cfg = plan.cfg
    if response.shape != (cfg.n_subcarriers, plan.slots):
        raise ValueError(f"a response of shape {response.shape} is not one row of 2*m_half+1 = "
                         f"{cfg.n_subcarriers} subcarriers by slots = {plan.slots}")
    if not 0.0 <= noise_std < np.inf:
        raise ValueError(f"noise_std must be finite and nonnegative, got {noise_std!r}")
    if normals is not None:
        normals = np.asarray(normals)
        if normals.shape[1:] != (cfg.n_subcarriers, 2) or len(normals) < plan.slots:
            raise ValueError(f"pilot normals of shape {normals.shape} do not cover slots = {plan.slots} "
                             f"of 2*m_half+1 = {cfg.n_subcarriers} subcarriers")
    y = response.T.copy()
    if noise_std > 0:
        if normals is None:
            raise ValueError("noisy pilots need their standard normals: pass normals=pilot_normals(...)")
        noise = normals[: plan.slots] * (noise_std / np.sqrt(2.0))
        # each (re, im) pair of draws is read as one complex sample
        y += noise.view(complex)[..., 0]
    return TrackingObservation(y=y, plan=plan)


def coarse_estimate(obs: TrackingObservation) -> TrackingEstimate:
    """The largest |Y|^2 cell (l_hat, m_hat) and the coarse angle its slot's pairing maps it to.

    Slots are 1-based, subcarriers signed (-M..M); ties break to the smaller
    slot, then the smaller subcarrier.  The angle is clipped to [-1, 1]:
    codebook-snapped slopes can map an edge subcarrier just past it.
    """
    if obs.y.size == 0:
        raise ValueError("empty observation")
    power = np.abs(obs.y) ** 2
    flat = int(np.argmax(power))  # first occurrence: smallest l, then smallest m
    n_sub = obs.y.shape[1]
    i, j = divmod(flat, n_sub)
    m_hat = j - (n_sub - 1) // 2
    theta = float(angle_map(m_hat, obs.plan.pairings[i], obs.plan.cfg))
    return TrackingEstimate(l_hat=i + 1, m_hat=m_hat, theta_hat=min(max(theta, -1.0), 1.0))
