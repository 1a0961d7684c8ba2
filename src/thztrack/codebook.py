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


def _uniform_steps(lo: float, hi: float, step: float) -> tuple[int, bool]:
    """Whole steps n from lo toward hi (> lo), and whether hi lies past lo + n*step, so that the grid appends it."""
    n = math.floor((hi - lo) / step + 1e-9)
    return n, hi - (lo + step * n) > 1e-9 * step


def _uniform_closed(lo: float, hi: float, step: float) -> np.ndarray:
    """Uniform grid from lo with the given step (> 0), always including hi (> lo)."""
    n, append_hi = _uniform_steps(lo, hi, step)
    pts = lo + step * np.arange(n + 1)
    if append_hi:
        pts = np.append(pts, hi)
    else:
        pts[-1] = hi
    return pts


def _t_max(cfg: SystemConfig) -> float:
    """The delay grid's extreme f_c/(m_half*f_d*p); inf for a band too narrow for a float ratio."""
    width = cfg.m_half * cfg.f_d * cfg.p
    return cfg.f_c / width if width > 0 else math.inf


def _grid_sizes(cfg: SystemConfig) -> tuple[int, int | float]:
    """The codeword counts of :func:`build_codebook`'s psi and t grids, counted without building them.

    The t count is inf when its outer segments have no float count.
    """
    n, append_hi = _uniform_steps(-1.0, 1.0, 2.0 / cfg.n_bs)
    inner = n + 1 + append_hi
    t_max = _t_max(cfg)
    if not t_max > 1.0:
        return inner, inner
    if (t_max - 1.0) * cfg.p / 2 >= 2**53:  # past any cap, and inf, which math.floor cannot take
        return inner, math.inf
    # each outer segment is _uniform_closed(1, t_max, 2/p) less its first point 1.0, which a one-point segment lacks
    n, append_hi = _uniform_steps(1.0, t_max, 2.0 / cfg.p)
    return inner, inner + 2 * max(n + append_hi, 1)


# Most codewords a codebook may hold, both grids together, from a budget of about 50 MB: a codebook of
# 1,000,000 codewords (the reference system with a 200.1 kHz band) raised peak RSS by 15.7 MB to build and
# by 46.5 MB once snapped to, whose lists of floats cost about 32 B more per codeword (2-core x86 VM).
_MAX_CODEWORDS = 1_000_000


def _check_size(cfg: SystemConfig) -> None:
    """Raise a ValueError naming the keys when ``cfg``'s codebook would hold more than ``_MAX_CODEWORDS``."""
    n_psi, n_t = _grid_sizes(cfg)
    if n_psi + n_t > _MAX_CODEWORDS:
        raise ValueError(f"n_bs, p, f_c and bandwidth give a codebook of {n_psi + n_t:,} codewords "
                         f"(about 2*n_bs + 2*f_c/bandwidth), more than {_MAX_CODEWORDS:,}")


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
    codeword arrays are read-only.  A config whose codebook would hold more
    than 1,000,000 codewords raises a ValueError naming its keys, before
    anything is built.
    """
    _check_size(cfg)
    inner = _uniform_closed(-1.0, 1.0, 2.0 / cfg.n_bs)
    t_values = inner
    t_max = _t_max(cfg)
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
