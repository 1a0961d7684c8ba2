"""Quantized codeword grids for the phase slope and delay slope, with snapping.

Beamforming alone needs both slopes quantized over [-1, 1] at step 2/n_bs.
Tracking with a fixed radius of 1/p additionally needs delay slopes out to
+-f_c/(m_half*f_d*p), covered at the coarser step 2/p.  The joint delay grid
is the union of the inner beamforming segment and the two outer tracking
segments.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .pairing import PairingConfig
from .physmodel import SystemConfig

__all__ = ["QuantGrid", "JointCodebook", "build_codebook", "snap", "quantized_pairing"]


@dataclass(frozen=True)
class QuantGrid:
    """Codewords ``values``, sorted ascending and distinct.

    ``points`` holds the same values as a list of floats, built on first use,
    which :func:`snap` bisects.
    """

    values: np.ndarray

    @cached_property
    def points(self) -> list[float]:
        return self.values.tolist()


def _uniform_closed(lo: float, hi: float, step: float) -> np.ndarray:
    """Uniform grid from lo with the given step (> 0), always including hi (> lo)."""
    n = int(np.floor((hi - lo) / step + 1e-9))
    pts = lo + step * np.arange(n + 1)
    if hi - pts[-1] > 1e-9 * step:
        pts = np.append(pts, hi)
    else:
        pts[-1] = hi
    return pts


@dataclass(frozen=True)
class JointCodebook:
    """Phase-slope and delay-slope codeword sets supporting beamforming and tracking."""

    psi_grid: QuantGrid
    t_grid: QuantGrid


@lru_cache(maxsize=16)
def build_codebook(cfg: SystemConfig) -> JointCodebook:
    """Joint codebook: psi over [-1,1] at 2/n_bs; t adds outer segments at 2/p.

    The delay-grid extremes are +-f_c/(m_half*f_d*p); when that value is <= 1
    the outer segments are empty and the delay grid reduces to the inner one.
    One codebook is built per config and shared by every caller, so its
    codeword arrays are read-only.
    """
    inner = _uniform_closed(-1.0, 1.0, 2.0 / cfg.n_bs)
    t_values = inner
    t_max = cfg.f_c / (cfg.m_half * cfg.f_d * cfg.p)
    if t_max > 1.0:
        # build the positive side and mirror it so the grid is exactly symmetric
        pos = _uniform_closed(1.0, t_max, 2.0 / cfg.p)
        # the sorted segments share at most +-1.0, which pos lacks when t_max is within 1e-9 steps of 1
        if pos[0] == 1.0:
            pos = pos[1:]
        t_values = np.concatenate([-pos[::-1], inner, pos])
    inner.flags.writeable = t_values.flags.writeable = False
    return JointCodebook(psi_grid=QuantGrid(inner), t_grid=QuantGrid(t_values))


def snap(value: float, grid: QuantGrid) -> float:
    """Nearest codeword to ``value``; ties break toward the smaller codeword.

    Values outside the grid range clamp to the extreme codeword; nan, which
    has no nearest codeword, and an empty grid raise ``ValueError``.
    """
    v = grid.points
    if not v:
        raise ValueError("grid is empty")
    if math.isnan(value):
        raise ValueError("cannot snap nan to a codeword")
    i = bisect_left(v, value)
    if i == 0:
        return v[0]
    if i == len(v):
        return v[-1]
    left, right = v[i - 1], v[i]
    if value - left <= right - value:
        return left
    return right


def quantized_pairing(pairing: PairingConfig, cb: JointCodebook) -> PairingConfig:
    """Pairing with both slopes replaced by their nearest codewords."""
    # built directly: dataclasses.replace costs several times the constructor
    return PairingConfig(snap(pairing.psi, cb.psi_grid), snap(pairing.t_aux, cb.t_grid),
                         pairing.mode, pairing.theta0, pairing.alpha, pairing.over_bound)
