"""Closed-form array gain, lobe geometry, the subcarrier-angle map and brute-force peak oracles.

The array gain of the delay-aided precoder factors into two normalized
Dirichlet kernels: a P-element "window" set by the phase-shifter ramp and an
N_TTD-element "beam" set by the baseband delay ramp.  The window envelope
selects which periodic beam peak dominates, which is what makes
frequency-scanning tracking possible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .physmodel import PrecoderConfig, SystemConfig, _dirichlet

__all__ = [
    "LobeGeometry",
    "PeakMap",
    "dirichlet",
    "array_gain",
    "lobe_geometry",
    "angle_map",
    "peak_map",
    "sidelobe_locations",
]


def dirichlet(n: int, a) -> np.ndarray | float:
    """Normalized Dirichlet kernel |sin(n*pi*a/2)| / (n*|sin(pi*a/2)|).

    Even, 2-periodic, bounded in [0, 1]; the removable singularities at even
    integers evaluate to 1.  The ratio is the one the ray kernel of ``physmodel`` uses.
    """
    a = np.asarray(a, dtype=float)
    ratio = _dirichlet(n, np.atleast_1d(a)).ratio
    out = np.minimum(np.abs(ratio) / n, 1.0).reshape(a.shape)
    return float(out) if out.ndim == 0 else out


def array_gain(f_m: float, theta, pc: PrecoderConfig, cfg: SystemConfig):
    """Normalized gain |a(f_m, theta)^H f| / n_bs of the two-slope precoder.

    Equals the product of the window kernel at (f_m/f_c)*theta - psi and the
    beam kernel at p times that argument shifted by the baseband delay term.
    """
    x = (f_m / cfg.f_c) * np.asarray(theta, dtype=float) - pc.psi
    fb_ratio = (f_m - cfg.f_c) / cfg.f_c
    return dirichlet(cfg.p, x) * dirichlet(cfg.n_ttd, cfg.p * (x - fb_ratio * pc.t_aux))


@dataclass(frozen=True)
class LobeGeometry:
    """Period, mainlobe semi-width and peak location of the window and beam kernels."""

    t1: float
    w1: float
    theta_c1: float
    t2: float
    w2: float
    theta_c2: float


def lobe_geometry(f_m: float, pc: PrecoderConfig, cfg: SystemConfig) -> LobeGeometry:
    """Lobe geometry of both kernels viewed as functions of the spatial angle.

    The window period is 2*f_c/f_m and its semi-width 2*f_c/(p*f_m); the beam
    period equals the window semi-width, so exactly two beam peaks can sit
    inside the window mainlobe.
    """
    if f_m <= 0:
        raise ValueError("subcarrier frequency must be positive")
    scale = cfg.f_c / f_m
    fb = f_m - cfg.f_c
    return LobeGeometry(
        t1=2 * scale,
        w1=2 * scale / cfg.p,
        theta_c1=scale * pc.psi,
        t2=2 * scale / cfg.p,
        w2=2 * scale / cfg.n_bs,
        theta_c2=scale * pc.psi + (fb / f_m) * pc.t_aux,
    )


def angle_map(m, pc: PrecoderConfig, cfg: SystemConfig):
    """Angle of maximum gain at subcarrier index m: (f_c*psi + m*f_d*t)/f_m.

    Monotone in m (increasing when t_aux > psi, decreasing when t_aux < psi),
    which is the subcarrier-to-angle pairing used for tracking.
    """
    if isinstance(m, (int, float)):  # a scalar: Python-float arithmetic, the same IEEE operations
        fb = m * cfg.f_d
        return float((cfg.f_c * pc.psi + fb * pc.t_aux) / (cfg.f_c + fb))
    m = np.asarray(m, dtype=float)
    fb = m * cfg.f_d
    out = (cfg.f_c * pc.psi + fb * pc.t_aux) / (cfg.f_c + fb)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class PeakMap:
    """Per-subcarrier argmax direction and gain over a uniform angle grid."""

    m_indices: np.ndarray
    angles: np.ndarray
    gains: np.ndarray
    grid_step: float


def peak_map(pc: PrecoderConfig, cfg: SystemConfig, grid_step: float = 1e-4) -> PeakMap:
    """Brute-force per-subcarrier argmax of the gain over theta in [-1, 1].

    Ties resolve to the smallest angle.  Note that for f_m > f_c the gain is
    periodic in theta with period 2*f_c/f_m < 2, so a grating replica of the
    peak can re-enter near the opposite edge at extreme angles.
    """
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    n = int(round(2.0 / grid_step)) + 1
    thetas = np.linspace(-1.0, 1.0, n)
    step = thetas[1] - thetas[0]
    angles = np.empty(cfg.n_subcarriers)
    gains = np.empty(cfg.n_subcarriers)
    for i, f_m in enumerate(cfg.frequencies):
        g = array_gain(f_m, thetas, pc, cfg)
        j = int(np.argmax(g))
        angles[i] = thetas[j]
        gains[i] = g[j]
    return PeakMap(m_indices=cfg.m_indices, angles=angles, gains=gains, grid_step=step)


def sidelobe_locations(pairing, cfg: SystemConfig) -> tuple[float, float, float]:
    """Window-replica peak angles at the band edges and the joint-pattern center.

    For a backward pairing the replica at the lowest subcarrier sits at
    theta0 + alpha - 2*f_c/(p*f_low), the one at the highest subcarrier at
    theta0 - alpha + 2*f_c/(p*f_high), and the all-frequency pattern peaks at
    theta_c = theta0 - (M*f_d/f_c)*alpha.  The two replicas always straddle
    theta_c (their frequency-weighted mean equals it exactly).
    """
    if getattr(pairing, "mode", None) != "backward":
        raise ValueError("sidelobe geometry is defined for backward pairings")
    theta0, alpha = pairing.theta0, pairing.alpha
    side_minus = theta0 + alpha - 2 * cfg.f_c / (cfg.p * cfg.f_low)
    side_plus = theta0 - alpha + 2 * cfg.f_c / (cfg.p * cfg.f_high)
    theta_c = theta0 - cfg.edge_ratio * alpha
    return side_minus, side_plus, theta_c
