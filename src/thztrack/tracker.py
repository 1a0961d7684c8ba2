"""Multi-timeslot frequency-scanning tracking: slot planning, pilot simulation, selection.

A searched interval of radius alpha is split into L contiguous fractions; each
timeslot scans one fraction with its own pairing, whose mode follows the sign
of the fraction center.  A plan computes each slot as Python floats, since
few slots (L = 2, 4 and 8 in the benchmark's workloads) cost less in scalar
calls than in numpy calls, and holds them as arrays: centers and two slopes.
The strongest received cell over all (slot, subcarrier) pairs yields the
coarse angle estimate through the angle map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .beampattern import angle_map
from .codebook import JointCodebook, snap
from .pairing import BACKWARD, PairingConfig, mode_bound, pairing_slopes, resolve_mode
from .physmodel import ChannelResponse, PrecoderConfig, RayKernel, SystemConfig, _is_int, precoder_matrix

# Not called in this module: kept as its attributes only so that span tracers
# wrapping tracker.pairing_mod.make_pairing, tracker.quantized_pairing,
# tracker.forward_bound and tracker.large_angle_bound still find them (the
# pairings view calls mode_bound, which looks its bounds up in pairing).
from . import pairing as pairing_mod  # noqa: F401
from .codebook import quantized_pairing  # noqa: F401
from .pairing import forward_bound, large_angle_bound  # noqa: F401

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


@dataclass(frozen=True, eq=False)
class TrackingPlan:
    """L slots covering [theta0 - alpha, theta0 + alpha] in L fractions, as read-only (L,) arrays.

    Slot l is centered at ``centers[l]``, which lies in [-1, 1], with radius
    ``alpha / slots`` and precodes with the slopes ``psi[l]`` and ``t_aux[l]``,
    which :func:`plan_tracking` computes slot by slot as floats; ``slots`` is
    ``len(psi)`` and ``pairing_mode`` the mode that paired the slots.  Two
    views are built on first use: ``kernel``, the :class:`RayKernel` over the
    slopes, which :func:`run_tracking` and the refinement use (a batch of
    frames, :func:`~thztrack.harness.run_trial`, makes its pilots with one
    kernel over every frame's slopes), and ``pairings``, each slot as a
    :class:`PairingConfig` whose mode and ``over_bound`` flag are
    :func:`~thztrack.pairing.make_pairing`'s, which no sweep frame builds, so
    no frame evaluates a radius bound.
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
        """Each slot's pairing with the plan's (maybe snapped) slopes, radius alpha/slots and :func:`mode_bound` flag.

        It equals the slot's :func:`~thztrack.pairing.make_pairing` with the plan's slopes.  A "sweep"
        slot is a backward pairing of radius 0.
        """
        slots = zip(self.centers.tolist(), self.psi.tolist(), self.t_aux.tolist())
        if self.pairing_mode == "sweep":
            return tuple(PairingConfig(psi, t_aux, BACKWARD, center, 0.0) for center, psi, t_aux in slots)
        radius = self.alpha / self.slots
        pairings = []
        for center, psi, t_aux in slots:
            mode = resolve_mode(center, self.pairing_mode)
            over_bound = radius > mode_bound(center, mode, self.cfg)
            pairings.append(PairingConfig(psi, t_aux, mode, center, radius, over_bound))
        return tuple(pairings)


@dataclass(frozen=True)
class TrackingObservation:
    """Received pilot matrix, shape (L, 2M+1), along with the plan that produced it: what CPR refines.

    ``b_mats``, the dense precoders of shape (L, 2M+1, n_bs), is an oracle
    view built on first use for this instance.
    """

    y: np.ndarray
    plan: TrackingPlan

    @cached_property
    def b_mats(self) -> np.ndarray:
        return np.stack([precoder_matrix(pc, self.plan.cfg) for pc in self.plan.pairings])


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

    ``pairing_mode`` is "auto" (:func:`~thztrack.pairing.resolve_mode`), "forward"/"backward" (forced,
    for baselines), or "sweep" (one beam per slot); a ``slots`` that is not an int >= 1, a bool
    included, raises a ValueError naming it.  Each slot is three Python floats: its center, then its
    slopes from :func:`~thztrack.pairing.pairing_slopes` and, given a ``codebook``,
    :func:`~thztrack.codebook.snap`, so it equals its scalar :func:`~thztrack.pairing.make_pairing`
    and :func:`~thztrack.codebook.quantized_pairing` bit for bit.  This is the one check that the
    interval lies in [-1, 1], to within 1e-12 (``beam-pattern`` plans its interval as one slot), and
    every mode clips the slot centers to [-1, 1].  A slot radius beyond its pairing's
    :func:`~thztrack.pairing.mode_bound` is allowed and flagged by its ``over_bound``; tracking with
    it may fail.
    """
    if not _is_int(slots) or slots < 1:
        raise ValueError(f"slots must be a positive integer, got {slots!r}")
    # written so that nan fails them too; a subnormal alpha can leave a slot radius of 0
    radius = alpha / slots
    if not radius > 0:
        raise ValueError("alpha must be positive, and so must its slot radius alpha / slots")
    if not abs(theta0) + alpha <= 1 + 1e-12:
        raise ValueError(f"the searched interval [{theta0 - alpha:.15g}, {theta0 + alpha:.15g}] leaves [-1, 1]")
    centers = [theta0 - alpha + (2 * l - 1) * alpha / slots for l in range(1, slots + 1)]
    # within the 1e-12 slack a center can round past +-1, so every mode clips them; they ascend, so check the ends
    if centers[0] < -1 or centers[-1] > 1:
        centers = [min(max(c, -1.0), 1.0) for c in centers]
    if pairing_mode == "sweep":
        # one beam per slot: both slopes point at the fraction center, so
        # every subcarrier maps to the same angle
        psi = t_aux = centers
    else:
        psi, t_aux = zip(*[pairing_slopes(c, radius, resolve_mode(c, pairing_mode), cfg) for c in centers])
    if codebook is not None:
        psi = [snap(v, codebook.psi_grid) for v in psi]
        t_aux = [snap(v, codebook.t_grid) for v in t_aux]
    # the three rows as slices of one read-only array: one conversion and one flag
    flat = np.array([*centers, *psi, *t_aux], dtype=float)
    flat.setflags(write=False)
    return TrackingPlan(theta0, alpha, flat[:slots], flat[slots:-slots], flat[-slots:], cfg, pairing_mode)


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

    Y[l, m] is h_m^H f_{l,m}, :meth:`ChannelResponse.received` of ``plan.kernel`` at the ray's
    direction, plus the noise that :func:`observe` adds.  A channel on another system config raises.
    """
    if channel.cfg != plan.cfg:
        raise ValueError("channel was built for a different system config than the plan")
    return observe(plan, channel.received(plan.kernel(channel.path.direction)), noise_std, normals)


def observe(
    plan: TrackingPlan,
    response: np.ndarray,
    noise_std: float = 0.0,
    normals: np.ndarray | None = None,
) -> TrackingObservation:
    """The pilot matrix Y (L, 2M+1) of ``plan`` from its noiseless ``response`` h_m^H f_{l,m}, in Y's order.

    Y is the response plus circular complex noise of variance noise_std**2, built from ``normals``,
    the standard normals of :func:`pilot_normals`: their first ``plan.slots`` slabs are used and
    left unchanged, and nothing is drawn.  Normals, whenever given, must cover ``plan.slots`` slots
    of 2*m_half+1 subcarriers; a noisy call needs them, a noiseless one only checks them.  A response
    or normals of another shape raise a ValueError naming ``slots`` and ``m_half``.  Y is read-only;
    a noiseless Y is a view of the response.
    """
    n_sub, slots = plan.cfg.n_subcarriers, len(plan.psi)
    if response.shape != (slots, n_sub):
        raise ValueError(f"a response of shape {response.shape} is not one row of 2*m_half+1 = {n_sub} "
                         f"subcarriers for each of slots = {slots}")
    if not 0.0 <= noise_std < math.inf:
        raise ValueError(f"noise_std must be finite and nonnegative, got {noise_std!r}")
    if noise_std > 0 and normals is None:
        raise ValueError("noisy pilots need their standard normals: pass normals=pilot_normals(...)")
    if normals is not None:
        normals = np.asarray(normals)
        if normals.shape[1:] != (n_sub, 2) or len(normals) < slots:
            raise ValueError(f"pilot normals of shape {normals.shape} do not cover slots = {slots} "
                             f"of 2*m_half+1 = {n_sub} subcarriers")
    if noise_std > 0:
        # each (re, im) pair of draws is read as one complex sample
        y = response + (normals[:slots] * (noise_std / math.sqrt(2.0))).view(complex)[..., 0]
    else:
        y = response.view()
    y.setflags(write=False)
    return TrackingObservation(y, plan)


def coarse_estimate(obs: TrackingObservation) -> TrackingEstimate:
    """The largest |Y|^2 cell (l_hat, m_hat) and the coarse angle its slot's slopes map it to.

    Slots are 1-based, subcarriers signed (-M..M); ties break to the smaller slot, then the smaller
    subcarrier.  The angle, from one :func:`angle_map` call on Python floats, is clipped to [-1, 1]:
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
