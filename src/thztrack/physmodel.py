"""Array/RF configuration, subcarrier grid, LoS channel synthesis and the pilot signal model.

The transmitter is a uniform linear array of ``n_bs`` antennas driven through
``n_ttd`` true-time-delay lines, each feeding ``p`` phase shifters.  All angles
are spatial directions in [-1, 1] (normalized sine of the physical angle).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

__all__ = [
    "SystemConfig",
    "SubcarrierGrid",
    "PathComponent",
    "ChannelResponse",
    "PrecoderConfig",
    "default_config",
    "make_rng",
    "steering_vector",
    "steering_matrix",
    "channel_response",
    "ray_response",
    "assemble_precoder",
    "precoder_matrix",
    "to_physical",
    "from_physical",
    "simulate_rx",
]


@dataclass(frozen=True)
class SystemConfig:
    """Array and frequency-plan parameters.

    ``n_ttd * p == n_bs`` must hold (each delay line drives ``p`` shifters).
    The ``2*m_half + 1`` subcarriers sit at ``f_c + m*f_d`` for
    ``m = -m_half..m_half``; ``f_d`` is derived as ``bandwidth / (2*m_half)``
    when not given explicitly.
    """

    n_bs: int
    n_ttd: int
    p: int
    f_c: float
    bandwidth: float
    m_half: int
    f_d: float | None = None

    def __post_init__(self):
        if min(self.n_bs, self.n_ttd, self.p, self.m_half) <= 0:
            raise ValueError("array and subcarrier counts must be positive")
        if self.n_ttd * self.p != self.n_bs:
            raise ValueError(f"n_ttd*p = {self.n_ttd * self.p} != n_bs = {self.n_bs}")
        if self.f_c <= 0 or self.bandwidth <= 0:
            raise ValueError("f_c and bandwidth must be positive")
        derived = self.bandwidth / (2 * self.m_half)
        if self.f_d is None:
            object.__setattr__(self, "f_d", derived)
        elif abs(self.f_d - derived) > 1e-9 * derived:
            raise ValueError(f"f_d = {self.f_d} inconsistent with bandwidth/(2*m_half) = {derived}")
        if self.m_half * self.f_d >= self.f_c:
            raise ValueError("half-band m_half*f_d must stay below the carrier f_c")

    @property
    def n_subcarriers(self) -> int:
        return 2 * self.m_half + 1

    @property
    def m_indices(self) -> np.ndarray:
        return np.arange(-self.m_half, self.m_half + 1)

    @property
    def edge_ratio(self) -> float:
        """Ratio of the extreme baseband offset to the carrier, m_half*f_d/f_c."""
        return self.m_half * self.f_d / self.f_c


def default_config() -> SystemConfig:
    """256-antenna, 16-TTD reference setup at 100 GHz with a 10 GHz band."""
    return SystemConfig(n_bs=256, n_ttd=16, p=16, f_c=100e9, bandwidth=10e9, m_half=64)


@dataclass(frozen=True)
class SubcarrierGrid:
    """Up-converted and baseband frequencies for all 2M+1 subcarriers, ascending in m."""

    frequencies: np.ndarray
    baseband: np.ndarray
    m_indices: np.ndarray

    @classmethod
    def from_config(cls, cfg: SystemConfig) -> "SubcarrierGrid":
        m = cfg.m_indices
        baseband = m * cfg.f_d
        return cls(frequencies=cfg.f_c + baseband, baseband=baseband, m_indices=m)

    def __len__(self) -> int:
        return len(self.m_indices)


@dataclass(frozen=True)
class PathComponent:
    """Single propagation ray: complex gain, spatial direction and excess delay."""

    gain: complex
    direction: float
    delay: float = 0.0

    def __post_init__(self):
        if abs(self.direction) > 1.0:
            raise ValueError("direction must lie in [-1, 1]")
        if self.delay < 0:
            raise ValueError("delay must be nonnegative")


@dataclass(frozen=True)
class ChannelResponse:
    """A ray channel on the subcarrier grid of ``cfg``.

    Only the rays are stored: :meth:`precoded` evaluates the pilot response
    in closed form.  ``h``, the dense per-subcarrier channel matrix of shape
    (2M+1, n_bs), is built on first use and serves as the brute-force oracle.
    """

    paths: tuple[PathComponent, ...]
    grid: SubcarrierGrid
    cfg: SystemConfig

    @cached_property
    def h(self) -> np.ndarray:
        """Dense channel vectors h_m as rows (2M+1, n_bs); the oracle of :meth:`precoded`."""
        h = np.zeros((len(self.grid), self.cfg.n_bs), dtype=complex)
        for path in self.paths:
            steering = steering_matrix(self.grid, path.direction, self.cfg)
            h += (path.gain * self._delay_phase(path))[:, None] * steering
        return h

    def _delay_phase(self, path: PathComponent) -> np.ndarray:
        return np.exp(-2j * np.pi * self.grid.baseband * path.delay)

    def precoded(self, psi, t_aux) -> np.ndarray:
        """Received responses h_m^H f_{l,m} for slot slopes ``psi``, ``t_aux`` (L,); shape (2M+1, L).

        Each ray adds conj(gain * exp(-j*2*pi*f_b*delay)) times its
        :func:`ray_response`.
        """
        out = np.zeros((len(self.grid), np.size(psi)), dtype=complex)
        for path in self.paths:
            weight = np.conj(path.gain * self._delay_phase(path))
            out += weight[:, None] * ray_response(path.direction, psi, t_aux, self.cfg)
        return out


@dataclass(frozen=True)
class PrecoderConfig:
    """Equivalent-model analog precoder: per-antenna phase slope and delay slope.

    ``psi`` sets the DFT-style phase ramp across antennas; ``t_aux`` is the
    dimensionless delay slope (twice the carrier frequency times the physical
    per-line delay step).
    """

    psi: float
    t_aux: float


def make_rng(rng: np.random.Generator | int | Sequence[int] | None) -> np.random.Generator:
    """Coerce a seed or generator into a numpy Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def steering_vector(f_m: float, psi: float, n: int, f_c: float) -> np.ndarray:
    """Frequency-dependent ULA steering vector of length n at spatial direction psi.

    Entry k is exp(-j*pi*(f_m/f_c)*k*psi); all entries are unit modulus.
    """
    if f_m <= 0:
        raise ValueError("subcarrier frequency must be positive")
    k = np.arange(n)
    return np.exp(-1j * np.pi * (f_m / f_c) * k * psi)


def steering_matrix(grid: SubcarrierGrid, psi: float, cfg: SystemConfig) -> np.ndarray:
    """Steering vectors for every subcarrier, stacked as rows (2M+1, n_bs)."""
    ratios = grid.frequencies / cfg.f_c
    k = np.arange(cfg.n_bs)
    return np.exp(-1j * np.pi * psi * np.outer(ratios, k))


def channel_response(
    paths: PathComponent | Sequence[PathComponent],
    grid: SubcarrierGrid,
    cfg: SystemConfig,
) -> ChannelResponse:
    """Frequency response of a ray channel on every subcarrier.

    Each ray contributes gain * exp(-j*2*pi*f_b*delay) times its steering
    vector, with f_b the baseband subcarrier offset.
    """
    if isinstance(paths, PathComponent):
        paths = [paths]
    return ChannelResponse(paths=tuple(paths), grid=grid, cfg=cfg)


# |n*u| below which the Dirichlet ratio D_n(u) = sin(n*u)/sin(u) and its
# derivative are summed term by term.  The quotient-rule derivative cancels
# there (it is O(u) from terms of size n) and loses ~eps/|n*u| relative.
_NEAR_SINGULAR = 0.5


def _dirichlet_ratio(n: int, z: np.ndarray, derivative: bool):
    """Real amplitude D_n(u), u = pi*z/2, of G_n(z) = sum_{i<n} exp(j*pi*z*i) = exp(j*pi*(n-1)*z/2) * D_n(u).

    G_n has period 2, so z is first reduced to [-1, 1], where only z = 0 is
    singular.  Returns the reduced z, D_n(u) and, with ``derivative``,
    dD_n/du.  Near z = 0, D_n = sum_j cos(j*u) and D_n' = -sum_j j*sin(j*u)
    over the n offsets j = 1-n, 3-n, ..., n-1; these sums do not cancel and
    give D_n(0) = n.
    """
    z = z - 2.0 * np.rint(0.5 * z)
    u = 0.5 * np.pi * z
    near = np.abs(u) < _NEAR_SINGULAR / n
    any_near = near.any()
    sin_u = np.sin(u)
    if any_near:
        sin_u[near] = 1.0  # placeholder; these entries are summed directly below
    ratio = np.sin(n * u) / sin_u
    d_ratio = (n * np.cos(n * u) - ratio * np.cos(u)) / sin_u if derivative else None
    if any_near:
        j = np.arange(1 - n, n, 2)
        ju = u[near][:, None] * j
        ratio[near] = np.sum(np.cos(ju), axis=1)
        if derivative:
            d_ratio[near] = -np.sum(j * np.sin(ju), axis=1)
    return z, ratio, d_ratio


@lru_cache(maxsize=16)
def _subcarrier_ratios(cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-subcarrier f_m/f_c and f_b/f_c as read-only columns (2M+1, 1), shared by every caller."""
    grid = SubcarrierGrid.from_config(cfg)
    ratios = (grid.frequencies / cfg.f_c)[:, None], (grid.baseband / cfg.f_c)[:, None]
    for r in ratios:
        r.flags.writeable = False
    return ratios


def ray_response(theta: float, psi, t_aux, cfg: SystemConfig, derivative: bool = False):
    """Unit-gain responses c[m, l] = a_m(theta)^H f_{l,m} of one ray, shape (2M+1, L).

    ``psi`` and ``t_aux`` hold the L slot slopes.  The n_bs-term inner product
    factors into a p-element phase-shifter window and an n_ttd-element delay
    beam,

        c = G_p(x) * G_{n_ttd}(p*(x - (f_b/f_c)*t_aux)),  x = (f_m/f_c)*theta - psi,

    so the cost is O(L*(2M+1)).  With ``derivative`` the pair (c, dc/dtheta)
    is returned.
    """
    rho, fb_ratio = _subcarrier_ratios(cfg)
    psi = np.atleast_1d(np.asarray(psi, dtype=float))
    t_aux = np.atleast_1d(np.asarray(t_aux, dtype=float))
    x = rho * theta - psi
    # reducing x moves the beam argument by a multiple of 2*p, a period of G_{n_ttd}
    x, window, d_window = _dirichlet_ratio(cfg.p, x, derivative)
    z, beam, d_beam = _dirichlet_ratio(cfg.n_ttd, cfg.p * (x - fb_ratio * t_aux), derivative)
    # the two phase centers exp(j*pi*(n-1)*z/2) combine into one rotation
    rot = np.exp(0.5j * np.pi * ((cfg.p - 1) * x + (cfg.n_ttd - 1) * z))
    c = rot * (window * beam)
    if not derivative:
        return c
    # dc/dtheta = (f_m/f_c) * (G_p' G_N + p G_p G_N'); the phase-center terms
    # add up to j*(n_bs - 1) * D_p * D_N
    dc = (0.5 * np.pi * rho) * rot * (
        d_window * beam + cfg.p * window * d_beam + 1j * (cfg.n_bs - 1) * window * beam
    )
    return c, dc


def assemble_precoder(pc: PrecoderConfig, f_m: float, cfg: SystemConfig) -> np.ndarray:
    """Analog precoder at one subcarrier, unit-modulus entries of length n_bs.

    Antenna k in delay-line group q carries phase
    -pi*(k*psi + (f_b/f_c)*p*q*t_aux), i.e. a DFT ramp plus the baseband part
    of the per-group delay.
    """
    k = np.arange(cfg.n_bs)
    q = k // cfg.p
    fb_ratio = (f_m - cfg.f_c) / cfg.f_c
    phase = k * pc.psi + fb_ratio * cfg.p * q * pc.t_aux
    return np.exp(-1j * np.pi * phase)


def precoder_matrix(pc: PrecoderConfig, grid: SubcarrierGrid, cfg: SystemConfig) -> np.ndarray:
    """Precoders for every subcarrier, stacked as rows (2M+1, n_bs)."""
    k = np.arange(cfg.n_bs)
    q = k // cfg.p
    fb_ratios = grid.baseband / cfg.f_c
    phase = k[None, :] * pc.psi + np.outer(fb_ratios, cfg.p * q) * pc.t_aux
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


def simulate_rx(
    h_vec: np.ndarray,
    f_vec: np.ndarray,
    pilot: complex = 1.0,
    noise_std: float = 0.0,
    rng: np.random.Generator | int | None = None,
) -> complex:
    """One received pilot sample: h^H f * pilot plus circular complex noise.

    The noise has total variance noise_std**2 (split evenly between the real
    and imaginary parts); the result is deterministic for a given seed.
    """
    h_vec = np.asarray(h_vec)
    f_vec = np.asarray(f_vec)
    if h_vec.shape != f_vec.shape:
        raise ValueError(f"channel/precoder length mismatch: {h_vec.shape} vs {f_vec.shape}")
    if noise_std < 0:
        raise ValueError("noise_std must be nonnegative")
    y = np.vdot(h_vec, f_vec) * pilot
    if noise_std > 0:
        gen = make_rng(rng)
        re, im = gen.standard_normal(2)
        y += noise_std / np.sqrt(2.0) * (re + 1j * im)
    return complex(y)
