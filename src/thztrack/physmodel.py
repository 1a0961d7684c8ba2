"""Array/RF configuration, subcarrier grid, LoS channel synthesis and the pilot signal model.

The transmitter is a uniform linear array of ``n_bs`` antennas driven through
``n_ttd`` true-time-delay lines, each feeding ``p`` phase shifters.  All angles
are spatial directions in [-1, 1] (normalized sine of the physical angle).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "SystemConfig",
    "SubcarrierGrid",
    "PathComponent",
    "ChannelResponse",
    "PrecoderConfig",
    "default_config",
    "steering_vector",
    "channel_response",
    "RayEval",
    "RayKernel",
    "precoder_matrix",
    "to_physical",
    "from_physical",
]


@dataclass(frozen=True)
class SystemConfig:
    """Array and frequency-plan parameters.

    ``n_ttd * p == n_bs`` must hold (each delay line drives ``p`` shifters).
    The ``2*m_half + 1`` subcarriers sit at ``f_c + m*f_d`` for
    ``m = -m_half..m_half``, with spacing ``f_d = bandwidth / (2*m_half)``.
    ``f_d``, ``frequencies``, ``f_low`` and ``f_high`` are the one derivation
    of that plan; every other module reads them.
    """

    n_bs: int
    n_ttd: int
    p: int
    f_c: float
    bandwidth: float
    m_half: int

    def __post_init__(self):
        if min(self.n_bs, self.n_ttd, self.p, self.m_half) <= 0:
            raise ValueError("array and subcarrier counts must be positive")
        if self.n_ttd * self.p != self.n_bs:
            raise ValueError(f"n_ttd*p = {self.n_ttd * self.p} != n_bs = {self.n_bs}")
        if self.f_c <= 0 or self.bandwidth <= 0:
            raise ValueError("f_c and bandwidth must be positive")
        if self.m_half * self.f_d >= self.f_c:
            raise ValueError("half-band m_half*f_d must stay below the carrier f_c")

    @cached_property
    def f_d(self) -> float:
        """Subcarrier spacing bandwidth/(2*m_half); read-only, as the instance is frozen."""
        return self.bandwidth / (2 * self.m_half)

    @property
    def n_subcarriers(self) -> int:
        return 2 * self.m_half + 1

    @property
    def m_indices(self) -> np.ndarray:
        return np.arange(-self.m_half, self.m_half + 1)

    @property
    def frequencies(self) -> np.ndarray:
        """Subcarrier frequencies f_c + m*f_d, ascending in m (2M+1,)."""
        return self.f_c + self.m_indices * self.f_d

    @property
    def f_low(self) -> float:
        """Lowest subcarrier frequency f_c - m_half*f_d."""
        return self.f_c - self.m_half * self.f_d

    @property
    def f_high(self) -> float:
        """Highest subcarrier frequency f_c + m_half*f_d."""
        return self.f_c + self.m_half * self.f_d

    @cached_property
    def edge_ratio(self) -> float:
        """Ratio of the extreme baseband offset to the carrier, m_half*f_d/f_c."""
        return self.m_half * self.f_d / self.f_c

    @cached_property
    def _ratios(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-subcarrier f_m/f_c, f_b/f_c and (pi/2)*f_m/f_c as read-only columns (2M+1, 1), shared by every kernel."""
        rho = (self.frequencies / self.f_c)[:, None]
        ratios = rho, (self.m_indices * self.f_d / self.f_c)[:, None], 0.5 * np.pi * rho
        for r in ratios:
            r.setflags(write=False)
        return ratios


def default_config() -> SystemConfig:
    """256-antenna, 16-TTD reference setup at 100 GHz with a 10 GHz band."""
    return SystemConfig(n_bs=256, n_ttd=16, p=16, f_c=100e9, bandwidth=10e9, m_half=64)


# No library code builds this grid; SystemConfig owns the subcarrier plan.  It
# stays only for the set-up probe, which calls harness.SubcarrierGrid.from_config.
@dataclass(frozen=True)
class SubcarrierGrid:
    """Up-converted and baseband frequencies for all 2M+1 subcarriers, ascending in m."""

    frequencies: np.ndarray
    baseband: np.ndarray
    m_indices: np.ndarray

    @classmethod
    def from_config(cls, cfg: SystemConfig) -> "SubcarrierGrid":
        m = cfg.m_indices
        return cls(frequencies=cfg.frequencies, baseband=m * cfg.f_d, m_indices=m)

    def __len__(self) -> int:
        return len(self.m_indices)


@dataclass(frozen=True)
class PathComponent:
    """The line-of-sight ray: complex gain and spatial direction."""

    gain: complex
    direction: float

    def __post_init__(self):
        if abs(self.direction) > 1.0:
            raise ValueError("direction must lie in [-1, 1]")


@dataclass(frozen=True)
class ChannelResponse:
    """One ray on the subcarrier grid of ``cfg``.

    Only the ray is stored: :meth:`precoded` evaluates the pilot response
    in closed form.  ``h``, the dense per-subcarrier channel matrix of shape
    (2M+1, n_bs), is built on first use and serves as the brute-force oracle.
    """

    path: PathComponent
    cfg: SystemConfig

    @cached_property
    def h(self) -> np.ndarray:
        """Dense channel vectors h_m as rows (2M+1, n_bs); the oracle of :meth:`precoded`."""
        cfg = self.cfg
        return self.path.gain * steering_vector(cfg.frequencies, self.path.direction, cfg.n_bs, cfg.f_c)

    def precoded(self, kernel: "RayKernel") -> np.ndarray:
        """Received responses h_m^H f_{l,m} against the slots of ``kernel``; shape (2M+1, L)."""
        return self.received(kernel(self.path.direction))

    def received(self, c: np.ndarray) -> np.ndarray:
        """Received responses from ``c``, a kernel's responses at this ray's direction: conj(gain) * c."""
        return self.path.gain.conjugate() * c


@dataclass(frozen=True)
class PrecoderConfig:
    """Equivalent-model analog precoder: per-antenna phase slope and delay slope.

    ``psi`` sets the DFT-style phase ramp across antennas; ``t_aux`` is the
    dimensionless delay slope (twice the carrier frequency times the physical
    per-line delay step).
    """

    psi: float
    t_aux: float


def steering_vector(f_m, psi: float, n: int, f_c: float) -> np.ndarray:
    """Frequency-dependent ULA steering vector of length n at spatial direction psi.

    Entry k is exp(-j*pi*(f_m/f_c)*k*psi); all entries are unit modulus.  An
    array of frequencies ``f_m`` gives one vector per frequency, stacked as
    rows (len(f_m), n).
    """
    ratio = np.asarray(f_m, dtype=float) / f_c
    if np.any(ratio <= 0):
        raise ValueError("subcarrier frequency must be positive")
    k = np.arange(n)
    return np.exp(-1j * np.pi * ratio[..., None] * k * psi)


def channel_response(path: PathComponent, cfg: SystemConfig) -> ChannelResponse:
    """Frequency response of the ray ``path`` on every subcarrier: its gain times its steering vector."""
    return ChannelResponse(path=path, cfg=cfg)


# |n*u| below which the derivative of the Dirichlet ratio D_n(u) = sin(n*u)/sin(u)
# is summed term by term.  The quotient-rule derivative cancels there (it is
# O(u) from terms of size n) and loses ~eps/|n*u| relative.
_NEAR_SINGULAR = 0.5


class _Dirichlet(NamedTuple):
    """D_n(u) at u = pi*z/2 with z reduced to [-1, 1], plus what its slope reuses."""

    z: np.ndarray
    u: np.ndarray
    nu: np.ndarray
    sin_u: np.ndarray
    ratio: np.ndarray


def _dirichlet(n: int, z: np.ndarray) -> _Dirichlet:
    """Real amplitude D_n(u), u = pi*z/2, of G_n(z) = sum_{i<n} exp(j*pi*z*i) = exp(j*pi*(n-1)*z/2) * D_n(u).

    G_n has period 2, so z is first reduced to [-1, 1], where only z = 0 is
    singular.  The quotient sin(n*u)/sin(u) keeps a few ulps of relative
    accuracy down to the smallest u (both sines are accurate to an ulp
    relative), so only u = 0 itself needs its limit D_n(0) = n.
    """
    z = z - 2.0 * np.rint(0.5 * z)
    u = 0.5 * np.pi * z
    nu = n * u
    sin_u = np.sin(u)
    ratio = np.sin(nu)
    if np.count_nonzero(sin_u) == sin_u.size:
        ratio /= sin_u
        return _Dirichlet(z, u, nu, sin_u, ratio)
    zero = sin_u == 0.0
    sin_u[zero] = 1.0  # placeholder; the limit is set below
    ratio /= sin_u
    ratio[zero] = n
    return _Dirichlet(z, u, nu, sin_u, ratio)


@lru_cache(maxsize=16)
def _pair_offsets(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Offsets j = n-1, n-3, ... > 0 of D_n's symmetric cosine pairs, and the slope weights -2*j."""
    j = np.arange(n - 1, 0, -2, dtype=float)
    weights = -2.0 * j
    j.flags.writeable = weights.flags.writeable = False
    return j, weights


def _dirichlet_slope(n: int, d: _Dirichlet) -> np.ndarray:
    """dD_n/du from an evaluated ratio.

    Where |n*u| < _NEAR_SINGULAR the quotient rule cancels, so the slope is
    summed over the symmetric offset pairs +-j of D_n = sum_j cos(j*u),
    j = 1-n, 3-n, ..., n-1: dD_n/du = -2 * sum_{j>0} j*sin(j*u).
    """
    slope = np.cos(d.nu)
    slope *= n
    inner = np.cos(d.u)
    inner *= d.ratio
    slope -= inner
    # sin_u holds no zeros (see _dirichlet); the near entries are replaced below
    slope /= d.sin_u
    near = np.abs(d.u) < _NEAR_SINGULAR / n
    if np.count_nonzero(near):
        j, weights = _pair_offsets(n)
        slope[near] = np.sin(d.u[near][:, None] * j) @ weights
    return slope


class RayEval(NamedTuple):
    """One closed-form evaluation: the responses ``c`` = rot * amp and the factors :meth:`RayKernel.slope` reuses.

    A vector of K angles, or a batch of U kernels, gives every array a
    leading axis; :meth:`at` picks one angle's or kernel's evaluation.
    """

    c: np.ndarray
    amp: np.ndarray
    rot: np.ndarray
    window: _Dirichlet
    beam: _Dirichlet

    def at(self, k: int) -> "RayEval":
        """Entry ``k`` of the leading axis of a vector or batch evaluation, as views of its arrays."""
        return RayEval(
            self.c[k], self.amp[k], self.rot[k],
            _Dirichlet(*[a[k] for a in self.window]), _Dirichlet(*[a[k] for a in self.beam]),
        )


class RayKernel:
    """Closed-form responses of one ray against fixed slot slopes ``psi``, ``t_aux`` ([...,] L).

    The n_bs-term inner product c[m, l] = a_m(theta)^H f_{l,m} factors into a
    p-element phase-shifter window and an n_ttd-element delay beam,

        c = G_p(x) * G_{n_ttd}(p*(x - (f_b/f_c)*t_aux)),  x = (f_m/f_c)*theta - psi,

    so an evaluation costs O(L*(2M+1)).  The kernel holds the terms that do
    not depend on theta; :meth:`evaluate` keeps the factors of c so that
    :meth:`slope` adds dc/dtheta without evaluating c again.

    With 1-D slopes, ``theta`` is a scalar or a 1-D array of K angles; K
    angles give (K, 2M+1, L) arrays.  Slopes with leading axes, say (U, L),
    are U kernels at once: their leading shape broadcasts against the
    angle's, so U angles give (U, 2M+1, L) arrays whose row u is kernel u at
    angle u.  Either way a slice equals the call of its own slopes at its own
    angle bit for bit, as every element gets the same arithmetic.
    """

    def __init__(self, psi, t_aux, cfg: SystemConfig):
        psi = np.array(psi, dtype=float, ndmin=1)
        t_aux = np.array(t_aux, dtype=float, ndmin=1)
        if psi.shape != t_aux.shape:
            raise ValueError(f"slot slope length mismatch: psi {psi.shape} vs t_aux {t_aux.shape}")
        self._rho, fb_ratio, self._slope_scale = cfg._ratios
        self.cfg = cfg
        # a subcarrier axis before the slot axis: ([...,] 1, L) and ([...,] 2M+1, L)
        self._psi = psi[..., None, :]
        self._delay = fb_ratio * t_aux[..., None, :]

    def _factors(self, theta: float | np.ndarray) -> tuple[_Dirichlet, _Dirichlet]:
        """The window and beam Dirichlet ratios at ``theta`` (see the class for its shapes)."""
        cfg, psi = self.cfg, self._psi
        theta = np.asarray(theta, dtype=float)
        if theta.ndim > 1 and psi.ndim == 2:
            raise ValueError(f"theta must be a scalar or a 1-D array of angles, got shape {theta.shape}")
        try:
            x = self._rho * theta[..., None, None] - psi
        except ValueError:
            raise ValueError(
                f"angles of shape {theta.shape} do not broadcast against slopes of leading shape {psi.shape[:-2]}"
            ) from None
        window = _dirichlet(cfg.p, x)
        # reducing x moves the beam argument by a multiple of 2*p, a period of G_{n_ttd}
        return window, _dirichlet(cfg.n_ttd, cfg.p * (window.z - self._delay))

    def amplitude(self, theta: float | np.ndarray) -> np.ndarray:
        """Real amplitude D_p * D_N ([...,] 2M+1, L) of c at ``theta``: |c| = |amplitude|, without the rotation."""
        window, beam = self._factors(theta)
        return window.ratio * beam.ratio

    def evaluate(self, theta: float | np.ndarray) -> RayEval:
        """Responses c ([...,] 2M+1, L) at ``theta``, with their factors."""
        cfg = self.cfg
        window, beam = self._factors(theta)
        # the two phase centers exp(j*pi*(n-1)*z/2) combine into one rotation
        phase = (cfg.p - 1) * window.z
        phase += (cfg.n_ttd - 1) * beam.z
        phase *= 0.5 * np.pi
        rot = np.empty(phase.shape, dtype=complex)
        np.cos(phase, out=rot.real)
        np.sin(phase, out=rot.imag)
        amp = window.ratio * beam.ratio
        return RayEval(rot * amp, amp, rot, window, beam)

    def slope(self, ev: RayEval) -> np.ndarray:
        """dc/dtheta at the angle of ``ev``, a single-angle evaluation or :meth:`RayEval.at` of a vector one.

        dc/dtheta = (f_m/f_c) * (G_p' G_N + p G_p G_N'); the phase-center
        terms add up to j*(n_bs - 1) * D_p * D_N.
        """
        cfg = self.cfg
        d_window = _dirichlet_slope(cfg.p, ev.window)
        d_beam = _dirichlet_slope(cfg.n_ttd, ev.beam)
        # the real part D_p' D_N + p D_p D_N' and the imaginary part (n_bs - 1) D_p D_N
        inner = np.empty(ev.c.shape, dtype=complex)
        d_window *= ev.beam.ratio
        d_beam *= cfg.p * ev.window.ratio
        np.add(d_window, d_beam, out=inner.real)
        np.multiply(ev.amp, cfg.n_bs - 1, out=inner.imag)
        out = self._slope_scale * ev.rot
        out *= inner
        return out

    def __call__(self, theta: float | np.ndarray) -> np.ndarray:
        """c ([...,] 2M+1, L) at ``theta``."""
        return self.evaluate(theta).c


def precoder_matrix(pc: PrecoderConfig, cfg: SystemConfig) -> np.ndarray:
    """Analog precoders for every subcarrier, unit-modulus rows (2M+1, n_bs).

    Antenna k in delay-line group q carries phase
    -pi*(k*psi + (f_b/f_c)*p*q*t_aux), i.e. a DFT ramp plus the baseband part
    of the per-group delay.
    """
    k = np.arange(cfg.n_bs)
    q = k // cfg.p
    fb_ratios = cfg._ratios[1]
    phase = k[None, :] * pc.psi + fb_ratios * (cfg.p * q) * pc.t_aux
    return np.exp(-1j * np.pi * phase)


def to_physical(pc: PrecoderConfig, cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Expand the two slopes into per-antenna PS phases and per-line real delays.

    Returns (phi, t_hat): phi has length n_bs, t_hat has length n_ttd (seconds).
    """
    psi_vec = np.arange(cfg.n_bs) * pc.psi
    t_vec = cfg.p * np.arange(cfg.n_ttd) * pc.t_aux
    phi = psi_vec - np.repeat(t_vec, cfg.p)
    t_hat = t_vec / (2 * cfg.f_c)
    return phi, t_hat


def from_physical(phi: np.ndarray, t_hat: np.ndarray, cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`to_physical`: recover the equivalent phase and delay ramps."""
    t_vec = 2 * cfg.f_c * np.asarray(t_hat, dtype=float)
    psi_vec = np.asarray(phi, dtype=float) + np.repeat(t_vec, cfg.p)
    return psi_vec, t_vec

