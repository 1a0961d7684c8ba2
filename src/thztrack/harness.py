"""Experiment orchestration: mobility model, Monte Carlo sweeps, NMSE/gain metrics.

Each trial tracks one user whose direction moved by a bounded random step
since the previous frame: the tracker searches
[theta_prev - zeta_max, theta_prev + zeta_max] with L timeslots, optionally
refines the estimate, and reports the angle error and the beamforming gain of
a precoder aligned to the estimate.

Besides its draws, a frame reads its inputs from its scenario: the first
entry of each list key (``snr_db``, ``slots``, ``theta_grid``).  A sweep
runs each point of its axis as the scenario with the axis's key set to that
point alone.

Trial randomness is keyed by (seed, trial, user) only, never by the sweep
axis, so runs at different SNRs or slot counts share their channel and noise
draws (common random numbers) and sweeps are bit-reproducible.
:func:`draw_frame` makes a frame's draws (:class:`FrameDraws`), which
carry that key and are the frame's only entry (:func:`run_frame`); a sweep
runs trial by trial, every axis point of a trial before the next trial, and
makes each (trial, user)'s draws once for all of its points.
:func:`run_trial` runs a trial's frames as batches that share their kernel
calls, and :func:`run_frame` is the batch of one.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .codebook import _check_size, build_codebook, snap
from .leakage import CprState, DegenerateGeometryError, build_cpr_problem, refine
from .physmodel import (
    _COUNT_RULE, _MAX_COUNT, _SYSTEM_DOMAIN, ChannelResponse, PathComponent, RayKernel, SystemConfig, _check_domain,
    _is_count, _is_int, _is_real, channel_response, default_config,
)
from .tracker import (
    TrackingEstimate, TrackingObservation, coarse_estimate, observe, pilot_normals, plan_tracking,
)

# Not called in this module: kept as its attributes only so that span tracers
# wrapping harness.precoder_matrix and harness.run_tracking, and the set-up
# probe calling harness.SubcarrierGrid.from_config, still find them.
from .physmodel import SubcarrierGrid, precoder_matrix  # noqa: F401
from .tracker import run_tracking  # noqa: F401

__all__ = [
    "SCHEMES",
    "ScenarioConfig",
    "TrialRecord",
    "MetricsReport",
    "CONFIG_PARSERS",
    "SWEEP_AXES",
    "write_table",
    "load_key_values",
    "scenario_from_file",
    "scenario_from_mapping",
    "pilot_noise_std",
    "FrameDraws",
    "draw_frame",
    "Frame",
    "run_frame",
    "run_trial",
    "nmse",
    "nmse_db",
    "beamforming_gain",
    "sweep",
]

# each scheme's plan_tracking pairing mode
_SCHEME_MODES = {"forward_backward": "auto", "forward_only": "forward", "exhaustive_sweep": "sweep"}
SCHEMES = tuple(_SCHEME_MODES)
_NMSE_DB_FLOOR = -120.0
_DIRECTION_CAP = 0.99


def _is_list_of(test, min_size: int = 0):
    """Test of a list key: a tuple or list of >= ``min_size`` entries that pass ``test``, none repeated."""
    def is_list(value) -> bool:
        # a sweep keys its records by axis value, so a repeated entry would collide
        return (isinstance(value, (tuple, list)) and len(value) >= min_size and all(map(test, value))
                and len(set(value)) == len(value))
    return is_list


_BOOL_RULE = "True or False (true/false, yes/no or 1/0 in files)"

# Each scenario key's (test, rule), in field order.  With physmodel's system keys
# this is every config key's one domain: ScenarioConfig and SystemConfig check
# it, and so does each key's parser (CONFIG_PARSERS) for files and flags.
_SCENARIO_DOMAIN = {
    "users": (_is_count, _COUNT_RULE),
    "snr_db": (_is_list_of(_is_real, 1), "a non-empty list of distinct numbers (finite in files and flags)"),
    "slots": (_is_list_of(_is_count, 1), f"a non-empty list of distinct entries, each {_COUNT_RULE}"),
    "trials": (_is_count, _COUNT_RULE),
    "zeta_max": (lambda v: _is_real(v) and 0 < v < 1, "a number in (0, 1)"),
    "scheme": (lambda v: isinstance(v, str) and v in _SCHEME_MODES, f"one of {', '.join(SCHEMES)}"),
    "compensation": (lambda v: isinstance(v, bool), _BOOL_RULE),
    "codebook": (lambda v: isinstance(v, bool), _BOOL_RULE),
    # written so that nan fails it too
    "gain_sigma": (lambda v: _is_real(v) and 0 <= v < math.inf, "a finite number >= 0"),
    "theta_grid": (
        _is_list_of(lambda t: _is_real(t) and abs(t) <= _DIRECTION_CAP),
        f"a list of distinct numbers in [-{_DIRECTION_CAP}, {_DIRECTION_CAP}]",
    ),
    "seed": (lambda v: _is_int(v) and v >= 0, "an integer >= 0 (as a float, at most 2**53)"),
}
_CONFIG_DOMAIN = {**_SYSTEM_DOMAIN, **_SCENARIO_DOMAIN}


@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment description; list-valued fields are sweep axes."""

    system: SystemConfig = field(default_factory=default_config)
    users: int = 4
    snr_db: tuple[float, ...] = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
    slots: tuple[int, ...] = (4,)
    trials: int = 500
    zeta_max: float = 0.2
    scheme: str = "forward_backward"
    compensation: bool = False
    codebook: bool = False
    gain_sigma: float = 0.0
    theta_grid: tuple[float, ...] = ()
    seed: int = 0

    def __post_init__(self):
        _check_domain(self, _SCENARIO_DOMAIN)
        if self.codebook:
            _check_size(self.system)
        # a huge SNR overflows the power ratio, a hugely negative one underflows it to 0
        with np.errstate(divide="ignore", over="ignore"):
            for snr in self.snr_db:
                if snr == math.inf:  # the noiseless frame: pilot noise exactly 0
                    continue
                with contextlib.suppress(OverflowError):
                    if 0 < pilot_noise_std(snr, self.system) < math.inf:
                        continue
                raise ValueError(f"snr_db entry {snr!r} gives a pilot noise that is not finite and positive")

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


def _clamp(value: float, bound: float) -> float:
    """``value`` clipped to [-bound, bound]."""
    return float(min(max(value, -bound), bound))


def _draw_gain(rng: np.random.Generator, sigma: float) -> complex:
    phase = rng.uniform(0.0, 2 * np.pi)
    if sigma == 0.0:
        return complex(np.exp(1j * phase))
    re, im = rng.standard_normal(2)
    return complex(np.exp(1j * phase) + sigma / np.sqrt(2.0) * (re + 1j * im))


def pilot_noise_std(snr_db: float, cfg: SystemConfig) -> float:
    """Pilot noise standard deviation giving a post-beamforming SNR of ``snr_db`` at perfect alignment."""
    # post-beamforming SNR rho = n_bs/sigma^2 with the 1/sqrt(n_bs)-scaled
    # precoder; pilots here use the unit-modulus precoder, so scale up
    return cfg.n_bs / np.sqrt(10.0 ** (snr_db / 10.0))


@dataclass(frozen=True)
class FrameDraws:
    """The random inputs of frame (``seed``, ``trial``, ``user``), in the order they are drawn.

    The key names the frame: its record carries ``trial`` and ``user``.
    ``gain`` is the ray gain, ``zeta`` the mobility step, ``prev`` the
    previous-direction draw (None when ``theta_grid`` pins the target) and
    ``normals`` the pilot noise's standard normals for ``max(slots)`` slots
    (:func:`~thztrack.tracker.pilot_normals`), of which a frame with L slots
    uses the first L slabs.
    """

    seed: int
    trial: int
    user: int
    gain: complex
    zeta: float
    prev: float | None
    normals: np.ndarray


def draw_frame(scn: ScenarioConfig, trial: int, user: int) -> FrameDraws:
    """The draws of frame (``scn.seed``, ``trial``, ``user``), the same at every point of a sweep of ``scn``.

    The one place that seeds a frame's generator, with [seed, trial, user].  The normals are drawn
    for a noiseless frame too; nothing is drawn after them, so no other value depends on the SNR.
    """
    rng = np.random.default_rng([scn.seed, trial, user])
    gain = _draw_gain(rng, scn.gain_sigma)
    zeta = rng.uniform(-scn.zeta_max, scn.zeta_max)
    prev = None if scn.theta_grid else rng.uniform(-scn.center_cap, scn.center_cap)
    normals = pilot_normals(rng, max(scn.slots), scn.system.n_subcarriers)
    return FrameDraws(scn.seed, trial, user, gain, zeta, prev, normals)


def _check_draws(scn: ScenarioConfig, draws: FrameDraws) -> None:
    """Raise a ValueError naming the config key that ``draws`` do not fit; ``observe`` checks the normals."""
    if draws.seed != scn.seed:
        raise ValueError(f"draws of seed {draws.seed!r} do not fit a scenario of seed {scn.seed!r}")
    if (draws.prev is None) != bool(scn.theta_grid):
        raise ValueError(
            "a previous-direction draw is needed exactly when theta_grid is empty, "
            f"got prev={draws.prev!r} with theta_grid={scn.theta_grid!r}"
        )


@dataclass(frozen=True)
class Frame:
    """One tracking frame: its record, pilots (with their plan), coarse estimate and CPR ``state``.

    ``state`` is None without compensation or on a degenerate geometry.
    """

    record: TrialRecord
    obs: TrackingObservation
    estimate: TrackingEstimate
    state: CprState | None


# Users per frame-core call in run_trial, which also bounds a trial's arrays.
# Measured cost per user of one call on a 2-vCPU x86 VM, in microseconds, at
# 1/2/4/8/16/32 users: 127/89/72/59/55/58 (64 antennas, M = 16, codebook,
# L = 4) and 174/125/110/99/93/113 (256 antennas, M = 64, L = 4): 8 users
# cost within 7 % of the cheapest block, 16, and 32 cost more again.
_USER_BLOCK = 8


def _frames(
    scn: ScenarioConfig, draws: list[FrameDraws], center: float | None = None, trace: list | None = None,
) -> list[tuple]:
    """The frames of ``draws`` (:func:`run_frame`) as one batch, in order, each as its :class:`Frame` fields.

    Every frame is planned first; one kernel over the plans' slope arrays,
    stacked, then gives every frame's noiseless pilots, and one :func:`beamforming_gain`
    call every frame's gain.  The channel, noise, coarse estimate and refinement run frame by frame, so a
    one-user frame without refinement builds two :class:`RayKernel` (pilots, gain) and calls ``observe``
    and ``angle_map`` once each; refinement adds only ``plan.kernel``.
    """
    cfg = scn.system
    cb = build_codebook(cfg) if scn.codebook else None
    cap = scn.center_cap
    noise_std = pilot_noise_std(scn.snr_db[0], cfg)
    # noiseless data supports convergence to machine precision
    limits = {"max_iter": 200, "tol": 1e-18} if noise_std == 0.0 else {}
    mode = _SCHEME_MODES[scn.scheme]
    slots = scn.slots[0]
    target = float(scn.theta_grid[0]) if scn.theta_grid else None
    truths, plans = [], []
    for d in draws:
        _check_draws(scn, d)
        if target is None:
            theta_prev = _clamp(d.prev, cap)
            truths.append(_clamp(theta_prev + d.zeta, _DIRECTION_CAP))
        else:
            theta_prev = _clamp(target - d.zeta, cap)
            truths.append(target)
        plans.append(plan_tracking(theta_prev if center is None else center, scn.zeta_max, slots, cfg, cb, mode))
    responses = RayKernel([plan.psi for plan in plans], [plan.t_aux for plan in plans], cfg)(truths)
    channels, aims, parts = [], [], []
    for d, plan, theta_r, response in zip(draws, plans, truths, responses):
        # built just before the frame's selection: span tracers pair each coarse
        # estimate with the last channel built
        channel = channel_response(PathComponent(d.gain, theta_r), cfg)
        obs = observe(plan, channel.received(response), noise_std, d.normals)
        est = coarse_estimate(obs)
        theta_final = est.theta_hat
        state, theta_refined, outcome = None, None, ()
        if scn.compensation:
            try:
                state = refine(build_cpr_problem(obs), theta_final, trace=trace, **limits)
            except DegenerateGeometryError:
                outcome = (0, False, False, True)
            else:
                theta_final = theta_refined = float(state.theta)
                outcome = (state.iterations, state.converged, state.diverged)
        channels.append(channel)
        aims.append(theta_final if cb is None else snap(theta_final, cb.psi_grid))
        parts.append((d, theta_r, theta_refined, outcome, obs, est, state))
    return [
        (TrialRecord(d.trial, d.user, theta_r, est.theta_hat, theta_refined, gain, *outcome), obs, est, state)
        for (d, theta_r, theta_refined, outcome, obs, est, state), gain
        in zip(parts, beamforming_gain(channels, aims))
    ]


def run_frame(scn: ScenarioConfig, draws: FrameDraws, center: float | None = None, trace: list | None = None) -> Frame:
    """Frame (seed, trial, user) of ``draws``: plan, pilots, coarse estimate, refinement, gain.

    The random inputs are ``draws`` (:func:`draw_frame`), whose key the
    record carries; draws that do not fit the scenario raise a ValueError
    naming the key.  The other inputs are the first entries of the
    scenario's lists: the post-beamforming SNR at perfect alignment
    ``snr_db[0]`` (+inf is noiseless), the slot count ``slots[0]`` and, when
    ``theta_grid`` is not empty, the true direction ``theta_grid[0]``.
    Without it the previous direction is drawn and the true one is a
    mobility step from it; with it the previous one is back-generated.  The
    searched interval is centred on the previous direction, or on ``center``
    when given.  With compensation the coarse estimate is refined (``trace``
    collects the iterates); a degenerate geometry keeps the coarse estimate.
    The frame is the batch of one of :func:`run_trial`'s frame core.
    """
    return Frame(*_frames(scn, [draws], center, trace)[0])


def run_trial(scn: ScenarioConfig, draws: list[FrameDraws]) -> list[TrialRecord]:
    """The records of the frames of ``draws`` (:func:`run_frame`), in order: one trial's draws for each user.

    The frames run as batches of up to ``_USER_BLOCK``; each record equals
    its frame's :func:`run_frame` record bit for bit.
    """
    return [frame[0] for i in range(0, len(draws), _USER_BLOCK) for frame in _frames(scn, draws[i : i + _USER_BLOCK])]


def nmse(theta_hat, theta_r) -> tuple[float, int]:
    """Mean of |error|^2 / |theta_r|^2; records whose |theta_r|^2 is 0 (|theta_r| below about 1e-162) are excluded.

    Returns (linear NMSE, number of excluded records); the NMSE is +inf when an error over a tiny |theta_r|^2 overflows.
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    theta_r = np.asarray(theta_r, dtype=float)
    if theta_hat.shape != theta_r.shape:
        raise ValueError("estimate/truth length mismatch")
    keep = theta_r ** 2 != 0.0
    kept = int(np.count_nonzero(keep))
    excluded = keep.size - kept
    if not kept:
        return 0.0, excluded
    if excluded:
        theta_hat, theta_r = theta_hat[keep], theta_r[keep]
    with np.errstate(over="ignore"):
        return _mean((theta_hat - theta_r) ** 2 / theta_r ** 2), excluded


def _mean(values: np.ndarray) -> float:
    """``np.mean`` of a float array: the same sum over the same division, without its Python-level overhead."""
    return float(values.sum() / values.size)


def nmse_db(linear: float) -> float:
    """NMSE in dB with a -120 dB floor standing in for exact zeros."""
    if linear <= 0.0:
        return _NMSE_DB_FLOOR
    return max(float(10.0 * np.log10(linear)), _NMSE_DB_FLOOR)


def beamforming_gain(channels: list[ChannelResponse], aims: list[float]) -> list[float]:
    """Per channel, the average over subcarriers of |h_m^H w_m|^2 for the precoder aligned to its entry of ``aims``.

    Both slopes point at the aim and the precoder, on the channels' system
    config, carries the 1/sqrt(n_bs) power normalization, so the gain is
    mean_m |h_m^H f_m|^2 / n_bs.  Only the real amplitude of each ray's
    closed-form response is needed: one :meth:`RayKernel.amplitude` call
    gives every channel's, and each gain sums its own squares.  There is one aim per channel, on
    one system config, or a ValueError names what differs; no channels give no gains.
    """
    if len(aims) != len(channels):
        raise ValueError(f"{len(aims)} aims for {len(channels)} channels: each channel needs one aim")
    if not channels:
        return []
    cfg = channels[0].cfg
    for ch in channels[1:]:
        if ch.cfg != cfg:
            raise ValueError("the channels were built for different system configs")
    slopes = np.asarray(aims, dtype=float)[:, None]
    # |h_m^H f_m| = |gain| * |D_p * D_N|: the rotation drops out
    amps = RayKernel(slopes, slopes, cfg).amplitude([ch.path.direction for ch in channels])
    return [abs(ch.path.gain) ** 2 * float(np.vdot(amp, amp)) / amp.size / cfg.n_bs for ch, amp in zip(channels, amps)]


def write_table(path, header, rows) -> int:
    """Write a CSV file: the header line, then one line per row as ``rows`` yields it; returns the row count.

    Every cell is written with ``str``, which for a float is its round-trip exact ``repr``.  The file
    is opened before the first row is made, so a caller checks its inputs before the call.
    """
    n_rows = 0
    with open(path, "w") as out:
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(map(str, row)) + "\n")
            n_rows += 1
    return n_rows


@dataclass
class MetricsReport:
    """Aggregated sweep output: one row per axis point and the per-trial records of each point."""

    axis: str
    rows: list[dict]
    records: dict

    def write_csv(self, path):
        """One line per row; the columns are the row keys, in the order ``sweep`` builds them."""
        write_table(path, list(self.rows[0]), (row.values() for row in self.rows))

    def write_json(self, path):
        """The rows and the per-trial records."""
        records = {str(value): [asdict(r) for r in recs] for value, recs in self.records.items()}
        payload = {"axis": self.axis, "rows": self.rows, "records": records}
        Path(path).write_text(json.dumps(payload, indent=2, default=str) + "\n")


# each sweep axis and the config key that lists its points
SWEEP_AXES = {"snr": "snr_db", "slots": "slots", "theta": "theta_grid"}


def sweep(scn: ScenarioConfig, axis: str) -> MetricsReport:
    """Monte Carlo sweep along one axis ("snr", "slots" or "theta").

    The points are the list of the axis's config key (:data:`SWEEP_AXES`).
    Each point runs as the scenario with that key set to the point alone, so
    every frame reads the first entry of each list key, on and off the axis
    (:func:`run_frame`).  Rows carry the NMSE of the reported estimate and,
    when compensation is on, of the coarse estimate as well, plus how the
    refinements ended: the mean iteration count and the numbers that ran out
    of iterations, diverged, or kept the coarse estimate on a degenerate
    geometry.  The report keeps every point's records, in trial order.

    Every point's scenario is built before any frame runs.  The frames run
    trial by trial: each (trial, user)'s :func:`draw_frame` is made once and
    passed to that frame at every point.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}")
    key = SWEEP_AXES[axis]
    if not getattr(scn, key):
        raise ValueError(f"a {axis} sweep needs {key}")
    points = {value: replace(scn, **{key: (value,)}) for value in getattr(scn, key)}
    all_records: dict = {value: [] for value in points}
    for trial in range(scn.trials):
        draws = [draw_frame(scn, trial, user) for user in range(scn.users)]
        for value, point in points.items():
            all_records[value].extend(run_trial(point, draws))
    rows = [
        {"axis": axis, "value": value, "scheme": scn.scheme, "compensation": scn.compensation, **_row_metrics(records)}
        for value, records in all_records.items()
    ]
    return MetricsReport(axis=axis, rows=rows, records=all_records)


def _row_metrics(records: list[TrialRecord]) -> dict:
    """A sweep row's metric columns over a point's ``records``, in CSV order.

    The records' truths, estimates, gains and iteration counts become one
    array first; each column equals :func:`nmse`, :func:`nmse_db` or
    ``np.mean`` over the records' own values bit for bit.
    """
    truths, coarse, finals, gains, iterations = np.array(
        [(r.theta_r, r.theta_hat, r.theta_final, r.gain, r.iterations) for r in records], dtype=float,
    ).T.copy()  # one contiguous row per field, summed as np.mean sums the array of a list
    lin, excluded = nmse(finals, truths)
    lin_coarse, _ = nmse(coarse, truths)
    return {
        "nmse_linear": lin,
        "nmse_db": nmse_db(lin),
        "nmse_coarse_linear": lin_coarse,
        "nmse_coarse_db": nmse_db(lin_coarse),
        "mean_gain": _mean(gains),
        "n_records": len(records),
        "n_excluded": excluded,
        "mean_iterations": _mean(iterations),
        "n_unconverged": sum(r.theta_refined is not None and not (r.converged or r.diverged) for r in records),
        "n_diverged": sum(r.diverged for r in records),
        "n_degenerate": sum(r.degenerate for r in records),
    }


# --- configuration files ---------------------------------------------------

_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def load_key_values(path) -> dict:
    """Parse a ``key = value`` UTF-8 text file; values are JSON literals or bare strings, each key set once."""
    out = {}
    line_of = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line {lineno}: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in line_of:
            raise ValueError(f"config key {key!r} is set twice, on lines {line_of[key]} and {lineno}")
        line_of[key] = lineno
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


def _as_bool(value):
    """The bool that ``value`` spells (true/false, yes/no or 1/0, bare or quoted), else ``value`` itself."""
    return _BOOL_WORDS.get(str(value), value) if isinstance(value, (int, str)) else value


def _as_float(value) -> float:
    """A finite number: an int, a float or a numeric string, never a bool."""
    if isinstance(value, (int, float, str, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            if math.isfinite(number := float(value)):
                return number
        except (ValueError, OverflowError):
            pass
    raise ValueError(f"must be a finite number, got {value!r}")


def _as_int(value) -> int:
    """An integral value: an int, an integral float, or a string of either ("2" or "2.0").

    An exact integer is read at any size, but a float only up to 2**53 in
    magnitude: beyond that a float no longer names one integer.
    """
    if isinstance(value, (int, str, np.integer)) and not isinstance(value, bool):
        with contextlib.suppress(ValueError):
            return int(value)  # exact at any size
    number = _as_float(value)
    if not (number.is_integer() and abs(number) <= _MAX_COUNT):
        raise ValueError(f"not an integer within 2**53: {value!r}")
    return int(number)


def _list_of(parse):
    """Reader of a list key: a list, a comma-separated string or a single value."""
    def parse_list(value) -> tuple:
        items = value.split(",") if isinstance(value, str) else value
        return tuple(map(parse, items if isinstance(items, (list, tuple, range, np.ndarray)) else [items]))
    return parse_list


# how a file's or a flag's value is read, by the type its dataclass field is annotated with
_READERS = {"int": _as_int, "float": _as_float, "bool": _as_bool, "str": str,
            "tuple[int, ...]": _list_of(_as_int), "tuple[float, ...]": _list_of(_as_float)}
_KINDS = {f.name: f.type for cls in (SystemConfig, ScenarioConfig) for f in fields(cls) if f.name in _CONFIG_DOMAIN}


def _parser(read, test, rule):
    """Parser of a file's or a flag's value: ``read`` it and check it with ``test``, else raise the ``rule``."""
    def parse(value):
        try:
            if test(parsed := read(value)):
                return parsed
        except ValueError:
            pass
        raise ValueError(f"must be {rule}, got {value!r}")
    return parse


# Every config key and the parser of its value as a file or its one flag gives it;
# scenario_from_mapping names the key of a value it rejects, argparse the flag.
CONFIG_PARSERS = {key: _parser(_READERS[_KINDS[key]], *domain) for key, domain in _CONFIG_DOMAIN.items()}


# the system keys of default_config(), which a mapping's system keys overlay
_REFERENCE_SYSTEM = {f.name: getattr(default_config(), f.name) for f in fields(SystemConfig)}


def scenario_from_mapping(data: dict) -> ScenarioConfig:
    """Build a scenario from a flat mapping of config keys; a value outside its key's domain raises naming the key.

    System keys overlay the reference setup of :func:`default_config`.
    """
    unknown = set(data) - set(CONFIG_PARSERS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    values = {}
    for key, value in data.items():
        try:
            values[key] = CONFIG_PARSERS[key](value)
        except ValueError as exc:
            raise ValueError(f"{key} {exc}") from None
    system = {key: values.pop(key) for key in _REFERENCE_SYSTEM if key in values}
    return ScenarioConfig(system=SystemConfig(**{**_REFERENCE_SYSTEM, **system}), **values)


def scenario_from_file(path, overrides: dict | None = None) -> ScenarioConfig:
    """Scenario from a key-value file (none when ``path`` is None), with optional override mapping on top."""
    data = {} if path is None else load_key_values(path)
    if overrides:
        data.update({k: v for k, v in overrides.items() if v is not None})
    return scenario_from_mapping(data)
