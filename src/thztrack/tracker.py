"""Multi-timeslot frequency-scanning tracking: slot planning, pilot simulation, selection.

A searched interval of radius alpha is split into L contiguous fractions; each
timeslot scans one fraction with its own pairing, whose mode follows the sign
of the fraction center.  A plan holds the L slots as arrays: their centers
and their two slopes, which one array pass computes and, with a codebook,
snaps.  The strongest received cell over all (slot, subcarrier) pairs yields
the coarse angle estimate through the angle map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .beampattern import angle_map
from .codebook import JointCodebook
from .pairing import BACKWARD, FORWARD, PairingConfig, mode_bound, pairing_slopes
from .physmodel import ChannelResponse, PrecoderConfig, RayKernel, SystemConfig

# Not called in this module: kept as its attributes only so that span tracers
# wrapping tracker.pairing_mod.make_pairing, tracker.quantized_pairing,
# tracker.forward_bound, tracker.large_angle_bound and tracker.precoder_matrix
# still find them.
from . import pairing as pairing_mod  # noqa: F401
from .codebook import quantized_pairing  # noqa: F401
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

_PAIRING_MODES = ("auto", FORWARD, BACKWARD, "sweep")


@dataclass(frozen=True, eq=False)
class TrackingPlan:
    """L slots covering [theta0 - alpha, theta0 + alpha] in L fractions, as read-only (L,) arrays.

    Slot l is centered at ``centers[l]`` with radius ``alpha / slots`` and
    precodes with the slopes ``psi[l]`` and ``t_aux[l]``; ``slots`` is
    ``len(psi)``.  ``pairing_mode`` is the :func:`plan_tracking` mode that
    paired the slots.  Two views are built on first use: ``kernel``, the
    :class:`RayKernel` over the slopes, which :func:`run_tracking` and the
    refinement use (a batch of frames, :func:`~thztrack.harness.run_trial`,
    makes its pilots with one kernel over every frame's slopes), and
    ``pairings``, each slot as a :class:`PairingConfig` with its mode,
    center, radius and ``over_bound`` flag, which no sweep frame builds.
    """

    theta0: float
    alpha: float
    centers: np.ndarray
    psi: np.ndarray
    t_aux: np.ndarray
    cfg: SystemConfig
    pairing_mode: str = "auto"

    @property
    def slots(self) -> int:
        return len(self.psi)

    @cached_property
    def kernel(self) -> RayKernel:
        return RayKernel(self.psi, self.t_aux, self.cfg)

    @cached_property
    def pairings(self) -> tuple[PairingConfig, ...]:
        """Each slot's pairing, equal to its :func:`~thztrack.pairing.make_pairing` (then quantized, with a codebook).

        A "sweep" slot is a backward pairing of radius 0.
        """
        slots = zip(self.centers.tolist(), self.psi.tolist(), self.t_aux.tolist())
        if self.pairing_mode == "sweep":
            return tuple(PairingConfig(psi, t_aux, BACKWARD, center, 0.0) for center, psi, t_aux in slots)
        radius = self.alpha / self.slots
        out = []
        for center, psi, t_aux in slots:
            mode = self.pairing_mode
            if mode == "auto":
                mode = BACKWARD if center >= 0 else FORWARD
            out.append(PairingConfig(psi, t_aux, mode, center, radius, radius > mode_bound(center, mode, self.cfg)))
        return tuple(out)


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


@lru_cache(maxsize=64)
def _slot_offsets(alpha: float, slots: int) -> np.ndarray:
    """Offsets (2l - 1)*alpha/slots, l = 1..slots, of the slot centers from theta0 - alpha; read-only."""
    l = np.arange(1, slots + 1)
    offsets = (2 * l - 1) * alpha / slots
    offsets.flags.writeable = False
    return offsets


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
    (forced, for baselines), or "sweep" (one beam per slot).  All slots are
    paired in one array pass (:func:`~thztrack.pairing.pairing_slopes`) and,
    given a ``codebook``, their slopes snapped in one
    (:meth:`~thztrack.codebook.QuantGrid.nearest`); each slot equals its
    scalar :func:`~thztrack.pairing.make_pairing` and
    :func:`~thztrack.codebook.quantized_pairing` bit for bit.  A slot radius
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
    if pairing_mode not in _PAIRING_MODES:
        raise ValueError(f"unknown pairing mode {pairing_mode!r}")
    centers = theta0 - alpha + _slot_offsets(alpha, slots)
    if pairing_mode == "sweep":
        # one beam per slot: both slopes point at the fraction center, so
        # every subcarrier maps to the same angle
        psi = t_aux = centers
    else:
        # the centers ascend, so the two ends are the widest
        if not (abs(centers[0]) <= 1 and abs(centers[-1]) <= 1):
            raise ValueError("slot centers must lie in [-1, 1]")
        if pairing_mode == "auto":
            # -1 where centers >= 0: a sum of a float and a positive offset is never -0.0
            sign = np.copysign(1.0, -centers)
        else:
            sign = 1.0 if pairing_mode == FORWARD else -1.0
        psi, t_aux = pairing_slopes(centers, alpha / slots, sign, cfg)
    if codebook is not None:
        psi, t_aux = codebook.psi_grid.nearest(psi), codebook.t_grid.nearest(t_aux)
    for row in (centers, psi, t_aux):
        row.setflags(write=False)
    return TrackingPlan(theta0, alpha, centers, psi, t_aux, cfg, pairing_mode)


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
    n_sub, slots = plan.cfg.n_subcarriers, len(plan.psi)
    if response.shape != (n_sub, slots):
        raise ValueError(f"a response of shape {response.shape} is not one row of 2*m_half+1 = "
                         f"{n_sub} subcarriers by slots = {slots}")
    if not 0.0 <= noise_std < math.inf:
        raise ValueError(f"noise_std must be finite and nonnegative, got {noise_std!r}")
    if normals is not None:
        normals = np.asarray(normals)
        if normals.shape[1:] != (n_sub, 2) or len(normals) < slots:
            raise ValueError(f"pilot normals of shape {normals.shape} do not cover slots = {slots} "
                             f"of 2*m_half+1 = {n_sub} subcarriers")
    y = response.T.copy()
    if noise_std > 0:
        if normals is None:
            raise ValueError("noisy pilots need their standard normals: pass normals=pilot_normals(...)")
        # each (re, im) pair of draws is read as one complex sample
        y += (normals[:slots] * (noise_std / math.sqrt(2.0))).view(complex)[..., 0]
    return TrackingObservation(y, plan)


def coarse_estimate(obs: TrackingObservation) -> TrackingEstimate:
    """The largest |Y|^2 cell (l_hat, m_hat) and the coarse angle its slot's slopes map it to.

    Slots are 1-based, subcarriers signed (-M..M); ties break to the smaller
    slot, then the smaller subcarrier.  The angle is clipped to [-1, 1]:
    codebook-snapped slopes can map an edge subcarrier just past it.
    """
    y, plan = obs.y, obs.plan
    if y.size == 0:
        raise ValueError("empty observation")
    n_sub = y.shape[1]
    # first occurrence: smallest l, then smallest m
    i, j = divmod(int((np.abs(y) ** 2).argmax()), n_sub)
    m_hat = j - (n_sub - 1) // 2
    theta = angle_map(m_hat, PrecoderConfig(plan.psi.item(i), plan.t_aux.item(i)), plan.cfg)
    return TrackingEstimate(i + 1, m_hat, min(max(theta, -1.0), 1.0))
