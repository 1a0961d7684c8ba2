"""Experiment orchestration: mobility model, Monte Carlo sweeps, NMSE/gain metrics.

Each trial tracks one user whose direction moved by a bounded random step
since the previous frame: the tracker searches
[theta_prev - zeta_max, theta_prev + zeta_max] with L timeslots, optionally
refines the estimate, and reports the angle error and the beamforming gain of
a precoder aligned to the estimate.

Trial randomness is keyed by (seed, trial, user) only, never by the sweep
axis, so runs at different SNRs or slot counts share their channel and noise
draws (common random numbers) and sweeps are bit-reproducible.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .codebook import build_codebook, snap
from .leakage import DegenerateGeometryError, build_cpr_problem, refine
from .physmodel import (
    ChannelResponse,
    PathComponent,
    RayKernel,
    SubcarrierGrid,
    SystemConfig,
    channel_response,
    default_config,
)
from .tracker import coarse_estimate, plan_tracking, run_tracking

# Not called in this module: kept as its attribute only so that span tracers
# wrapping harness.precoder_matrix still find it.
from .physmodel import precoder_matrix  # noqa: F401

__all__ = [
    "SCHEMES",
    "ScenarioConfig",
    "TrialRecord",
    "MetricsReport",
    "CONFIG_KEYS",
    "write_table",
    "load_key_values",
    "scenario_from_file",
    "scenario_from_mapping",
    "run_trial",
    "nmse",
    "nmse_db",
    "beamforming_gain",
    "sweep",
]

SCHEMES = ("forward_backward", "forward_only", "exhaustive_sweep")
_NMSE_DB_FLOOR = -120.0
_DIRECTION_CAP = 0.99


@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment description; list-valued fields are sweep axes."""

    system: SystemConfig = field(default_factory=default_config)
    users: int = 4
    snr_db: tuple[float, ...] = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
    slots: tuple[int, ...] = (4,)
    trials: int = 500
    zeta_max: float = 0.2
    mobility: str = "uniform"
    scheme: str = "forward_backward"
    compensation: bool = False
    codebook: bool = False
    gain_sigma: float = 0.0
    theta_grid: tuple[float, ...] = ()
    seed: int = 0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if self.mobility != "uniform":
            raise ValueError("only the uniform mobility distribution is implemented")
        if not 0 < self.zeta_max < 1:
            raise ValueError("zeta_max must lie in (0, 1)")
        if self.trials < 1 or self.users < 1:
            raise ValueError("trials and users must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.gain_sigma < 0:
            raise ValueError("gain_sigma must be nonnegative")

    @property
    def center_cap(self) -> float:
        """Largest |center| keeping the searched interval inside [-1, 1]."""
        return min(1.0 - self.zeta_max, _DIRECTION_CAP)


@dataclass(frozen=True)
class TrialRecord:
    """Per-user outcome of one tracking frame.

    The refinement outcome: ``iterations`` run, whether it ``converged`` or
    ``diverged``, and whether the geometry was ``degenerate`` (every slot
    response vanished, so the coarse estimate was kept).  All stay at their
    defaults without compensation.
    """

    trial: int
    user: int
    theta_r: float
    theta_hat: float
    theta_refined: float | None
    gain: float
    iterations: int = 0
    converged: bool = False
    diverged: bool = False
    degenerate: bool = False

    @property
    def theta_final(self) -> float:
        return self.theta_hat if self.theta_refined is None else self.theta_refined


def _scheme_mode(scheme: str) -> str:
    return {"forward_backward": "auto", "forward_only": "forward", "exhaustive_sweep": "sweep"}[scheme]


def _clamp(value: float, bound: float) -> float:
    """``value`` clipped to [-bound, bound]."""
    return float(min(max(value, -bound), bound))


def _draw_gain(rng: np.random.Generator, sigma: float) -> complex:
    phase = rng.uniform(0.0, 2 * np.pi)
    if sigma == 0.0:
        return complex(np.exp(1j * phase))
    re, im = rng.standard_normal(2)
    return complex(np.exp(1j * phase) + sigma / np.sqrt(2.0) * (re + 1j * im))


def run_trial(
    scn: ScenarioConfig,
    trial_index: int,
    snr_db: float | None,
    n_slots: int,
    theta_target: float | None = None,
    _codebook=None,
    _grid: SubcarrierGrid | None = None,
) -> list[TrialRecord]:
    """One Monte Carlo frame for every user; deterministic in (seed, trial, user).

    ``snr_db`` is the post-beamforming SNR at perfect alignment (None means
    noiseless).  When ``theta_target`` is given the true direction is pinned
    to it and the previous direction is back-generated from the mobility step.
    """
    cfg = scn.system
    grid = _grid if _grid is not None else SubcarrierGrid.from_config(cfg)
    cb = _codebook
    if scn.codebook and cb is None:
        cb = build_codebook(cfg)
    cap = scn.center_cap
    noise_std = 0.0
    if snr_db is not None:
        # post-beamforming SNR rho = n_bs/sigma^2 with the 1/sqrt(n_bs)-scaled
        # precoder; pilots here use the unit-modulus precoder, so scale up
        noise_std = cfg.n_bs / np.sqrt(10.0 ** (snr_db / 10.0))

    records = []
    for user in range(scn.users):
        rng = np.random.default_rng([scn.seed, trial_index, user])
        g = _draw_gain(rng, scn.gain_sigma)
        zeta = rng.uniform(-scn.zeta_max, scn.zeta_max)
        if theta_target is None:
            theta_prev = _clamp(rng.uniform(-cap, cap), cap)
            theta_r = _clamp(theta_prev + zeta, _DIRECTION_CAP)
        else:
            theta_r = _clamp(theta_target, _DIRECTION_CAP)
            theta_prev = _clamp(theta_r - zeta, cap)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            plan = plan_tracking(
                theta_prev,
                scn.zeta_max,
                n_slots,
                cfg,
                codebook=cb if scn.codebook else None,
                pairing_mode=_scheme_mode(scn.scheme),
            )
        channel = channel_response(PathComponent(g, theta_r, 0.0), grid, cfg)
        obs = run_tracking(plan, channel, noise_std, rng)
        est = coarse_estimate(obs)
        theta_refined = None
        outcome = {}
        if scn.compensation:
            prob = build_cpr_problem(obs)
            try:
                if noise_std == 0.0:
                    # noiseless data supports convergence to machine precision
                    state = refine(prob, est.theta_hat, max_iter=200, tol=1e-18)
                else:
                    state = refine(prob, est.theta_hat)
            except DegenerateGeometryError:
                outcome = {"degenerate": True}
            else:
                theta_refined = float(state.theta)
                outcome = {
                    "iterations": state.iterations,
                    "converged": state.converged,
                    "diverged": state.diverged,
                }
        theta_final = theta_refined if theta_refined is not None else est.theta_hat
        aim = snap(theta_final, cb.psi_grid) if scn.codebook else theta_final
        gain = beamforming_gain(channel, aim, cfg)
        records.append(
            TrialRecord(
                trial=trial_index,
                user=user,
                theta_r=theta_r,
                theta_hat=est.theta_hat,
                theta_refined=theta_refined,
                gain=gain,
                **outcome,
            )
        )
    return records


def nmse(theta_hat, theta_r) -> tuple[float, int]:
    """Mean of |error|^2 / |theta_r|^2; records with theta_r == 0 are excluded.

    Returns (linear NMSE, number of excluded records) and warns when any
    record is dropped.
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    theta_r = np.asarray(theta_r, dtype=float)
    if theta_hat.shape != theta_r.shape:
        raise ValueError("estimate/truth length mismatch")
    keep = theta_r != 0.0
    excluded = int(np.sum(~keep))
    if excluded:
        warnings.warn(f"excluded {excluded} records with theta_r == 0", RuntimeWarning, stacklevel=2)
    if not np.any(keep):
        return 0.0, excluded
    ratio = (theta_hat[keep] - theta_r[keep]) ** 2 / theta_r[keep] ** 2
    return float(np.mean(ratio)), excluded


def nmse_db(linear: float) -> float:
    """NMSE in dB with a -120 dB floor standing in for exact zeros."""
    if linear <= 0.0:
        return _NMSE_DB_FLOOR
    return max(float(10.0 * np.log10(linear)), _NMSE_DB_FLOOR)


def beamforming_gain(channel: ChannelResponse, theta_hat: float, cfg: SystemConfig) -> float:
    """Average over subcarriers of |h_m^H w_m|^2 for the estimate-aligned precoder.

    Both slopes point at theta_hat and the precoder carries the 1/sqrt(n_bs)
    power normalization, so the gain is mean_m |h_m^H f_m|^2 / n_bs.  A
    single ray needs only the real amplitude of its closed-form response
    (:meth:`RayKernel.amplitude`); several rays interfere, so they go through
    :meth:`ChannelResponse.precoded`.
    """
    if channel.cfg != cfg:
        raise ValueError("channel was built for a different system config")
    if len(channel.paths) == 1:
        # |h_m^H f_m| = |gain| * |D_p * D_N|: the rotation and the delay phasor drop out
        (path,) = channel.paths
        amp = RayKernel(theta_hat, theta_hat, cfg).amplitude(path.direction)
        return abs(path.gain) ** 2 * float(np.vdot(amp, amp)) / amp.size / cfg.n_bs
    inner = channel.precoded([theta_hat], [theta_hat])
    return float(np.mean(np.abs(inner) ** 2)) / cfg.n_bs


def write_table(path, header, rows) -> int:
    """Write a CSV file: the header line, then one line per row; returns the row count.

    Floats are written with ``repr`` (round-trip exact), every other cell with ``str``.
    """
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")
    return len(lines) - 1


@dataclass
class MetricsReport:
    """Aggregated sweep output: one row per axis point, optional raw records."""

    axis: str
    rows: list[dict]
    records: dict | None = None

    def write_csv(self, path):
        cols = [
            "axis",
            "value",
            "scheme",
            "compensation",
            "nmse_linear",
            "nmse_db",
            "nmse_coarse_linear",
            "nmse_coarse_db",
            "mean_gain",
            "n_records",
            "n_excluded",
            "mean_iterations",
            "n_unconverged",
            "n_diverged",
            "n_degenerate",
        ]
        write_table(path, cols, ([row[c] for c in cols] for row in self.rows))

    def write_json(self, path, full: bool = False):
        payload = {"axis": self.axis, "rows": self.rows}
        if full and self.records is not None:
            payload["records"] = {
                str(value): [asdict(r) for r in recs] for value, recs in self.records.items()
            }
        Path(path).write_text(json.dumps(payload, indent=2, default=str) + "\n")


def _axis_values(scn: ScenarioConfig, axis: str, values=None):
    if values is not None:
        return list(values)
    if axis == "snr":
        return list(scn.snr_db)
    if axis == "slots":
        return list(scn.slots)
    if axis == "theta":
        if not scn.theta_grid:
            raise ValueError("theta sweep requires theta_grid values")
        return list(scn.theta_grid)
    raise ValueError(f"unknown sweep axis {axis!r}")


def sweep(scn: ScenarioConfig, axis: str, values=None, keep_records: bool = False) -> MetricsReport:
    """Monte Carlo sweep along one axis ("snr", "slots" or "theta").

    Off-axis parameters take the first entry of their scenario list.  Rows
    carry the NMSE of the reported estimate and, when compensation is on, of
    the coarse estimate as well, plus how the refinements ended: the mean
    iteration count and the numbers that ran out of iterations, diverged, or
    kept the coarse estimate on a degenerate geometry.
    """
    vals = _axis_values(scn, axis, values)
    base_snr = scn.snr_db[0] if scn.snr_db else 10.0
    base_slots = scn.slots[0] if scn.slots else 4
    grid = SubcarrierGrid.from_config(scn.system)
    cb = build_codebook(scn.system) if scn.codebook else None
    rows = []
    all_records: dict = {}
    for value in vals:
        snr = value if axis == "snr" else base_snr
        n_slots = _as_int("slots", value if axis == "slots" else base_slots)
        target = float(value) if axis == "theta" else None
        records: list[TrialRecord] = []
        for trial in range(scn.trials):
            records.extend(
                run_trial(scn, trial, snr, n_slots, theta_target=target, _codebook=cb, _grid=grid)
            )
        finals = [r.theta_final for r in records]
        coarse = [r.theta_hat for r in records]
        truths = [r.theta_r for r in records]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            lin, excluded = nmse(finals, truths)
            lin_coarse, _ = nmse(coarse, truths)
        rows.append(
            {
                "axis": axis,
                "value": value,
                "scheme": scn.scheme,
                "compensation": scn.compensation,
                "nmse_linear": lin,
                "nmse_db": nmse_db(lin),
                "nmse_coarse_linear": lin_coarse,
                "nmse_coarse_db": nmse_db(lin_coarse),
                "mean_gain": float(np.mean([r.gain for r in records])),
                "n_records": len(records),
                "n_excluded": excluded,
                "mean_iterations": float(np.mean([r.iterations for r in records])),
                "n_unconverged": sum(
                    r.theta_refined is not None and not (r.converged or r.diverged) for r in records
                ),
                "n_diverged": sum(r.diverged for r in records),
                "n_degenerate": sum(r.degenerate for r in records),
            }
        )
        if keep_records:
            all_records[value] = records
    return MetricsReport(axis=axis, rows=rows, records=all_records if keep_records else None)


# --- configuration files ---------------------------------------------------

_SYSTEM_KEYS = ("n_bs", "n_ttd", "p", "f_c", "bandwidth", "m_half", "f_d")
_SCENARIO_KEYS = (
    "users",
    "snr_db",
    "slots",
    "trials",
    "zeta_max",
    "mobility",
    "scheme",
    "compensation",
    "codebook",
    "gain_sigma",
    "theta_grid",
    "seed",
)
CONFIG_KEYS = _SYSTEM_KEYS + _SCENARIO_KEYS
_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def load_key_values(path) -> dict:
    """Parse a ``key = value`` text file; values are JSON literals or bare strings."""
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


def _as_bool(key: str, value) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, str)) and str(value) in _BOOL_WORDS:
        return _BOOL_WORDS[str(value)]
    raise ValueError(f"config key {key!r} must be true/false, yes/no or 0/1, got {value!r}")


def _as_int(key: str, value) -> int:
    """An integral config value: an int, an integral float or an integer string."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            return int(value.strip())
        except ValueError:
            pass
    raise ValueError(f"{key!r} must be an integer, got {value!r}")


def _as_float(key: str, value) -> float:
    """A finite real config value: an int, a float or a numeric string, never a bool."""
    number = math.nan
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        number = float(value)
    elif isinstance(value, str):
        try:
            number = float(value.strip())
        except ValueError:
            pass
    if not math.isfinite(number):
        raise ValueError(f"{key!r} must be a finite number, got {value!r}")
    return number


def _as_tuple(value, kind) -> tuple:
    return tuple(kind(x) for x in (value if isinstance(value, (list, tuple)) else [value]))


def scenario_from_mapping(data: dict) -> ScenarioConfig:
    """Build a scenario from a flat mapping of config keys.

    System keys overlay the reference setup of :func:`default_config`;
    ``f_d`` is derived from ``bandwidth`` and ``m_half`` unless given, and a
    given ``f_d`` must agree with them.
    """
    unknown = set(data) - set(CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    sys_kwargs = asdict(default_config())
    del sys_kwargs["f_d"]
    sys_kwargs.update({k: data[k] for k in _SYSTEM_KEYS if k in data})
    for k in ("n_bs", "n_ttd", "p", "m_half"):
        sys_kwargs[k] = _as_int(k, sys_kwargs[k])
    for k in ("f_c", "bandwidth", "f_d"):
        if sys_kwargs.get(k) is not None:
            sys_kwargs[k] = _as_float(k, sys_kwargs[k])
    scn_kwargs = {k: data[k] for k in _SCENARIO_KEYS if k in data}
    for k in ("snr_db", "theta_grid"):
        if k in scn_kwargs:
            scn_kwargs[k] = _as_tuple(scn_kwargs[k], lambda v, k=k: _as_float(k, v))
    for k in ("zeta_max", "gain_sigma"):
        if k in scn_kwargs:
            scn_kwargs[k] = _as_float(k, scn_kwargs[k])
    if "slots" in scn_kwargs:
        scn_kwargs["slots"] = _as_tuple(scn_kwargs["slots"], lambda v: _as_int("slots", v))
    for k in ("users", "trials", "seed"):
        if k in scn_kwargs:
            scn_kwargs[k] = _as_int(k, scn_kwargs[k])
    for k in ("compensation", "codebook"):
        if k in scn_kwargs:
            scn_kwargs[k] = _as_bool(k, scn_kwargs[k])
    return ScenarioConfig(system=SystemConfig(**sys_kwargs), **scn_kwargs)


def scenario_from_file(path, overrides: dict | None = None) -> ScenarioConfig:
    """Scenario from a key-value file, with optional override mapping on top."""
    data = load_key_values(path)
    if overrides:
        data.update({k: v for k, v in overrides.items() if v is not None})
    return scenario_from_mapping(data)
