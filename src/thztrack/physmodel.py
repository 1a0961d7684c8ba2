"""Array/RF configuration, subcarrier grid, LoS channel synthesis and the pilot signal model.

The transmitter is a uniform linear array of ``n_bs`` antennas driven through
``n_ttd`` true-time-delay lines, each feeding ``p`` phase shifters.  All angles
are spatial directions in [-1, 1] (normalized sine of the physical angle).
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Per-subcarrier frequency-domain channel vectors, shape (2M+1, n_bs)."""

    h: np.ndarray


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
    h = np.zeros((len(grid), cfg.n_bs), dtype=complex)
    for path in paths:
        phase = np.exp(-2j * np.pi * grid.baseband * path.delay)
        h += path.gain * phase[:, None] * steering_matrix(grid, path.direction, cfg)
    return ChannelResponse(h=h)


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
