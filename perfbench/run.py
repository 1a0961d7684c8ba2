"""Frame-throughput benchmark of thztrack.

Usage (from the repository root):

    python3 perfbench/run.py --workload comp-snr --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload comp-snr --seed 0 --seconds 40 --trace 1
    python3 perfbench/run.py ... --held-out      # frames from the held-out seed pool

A frame is one (trial, user) tracking frame.  With ``--trace 0`` the run
measures the end-to-end metrics: full sweeps through ``thztrack.cli.main``
(frames_per_s), single-user ``harness.run_trial`` calls (frame_ms_p50/p90),
fresh-interpreter set-up (setup_s) and the peak RSS of this process; the
times are scaled to a reference host speed (``HostSpeed``).  With
``--trace 1`` it alternates plain and traced CLI sweeps and reports the
per-layer metrics of ``tracing.py``.  Every sweep's rows are checked against
the reference rows of ``reference/``; a frame in a mismatching row, or one
whose ``run_trial`` raised, counts as failed.  Human-readable lines come
first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "_out"
sys.path.insert(0, str(BENCH_DIR))

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import DEFAULT_POOL, HELD_OUT_POOL, WORKLOADS, load_reference, pool_seed, rows_match  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 15
MIN_PAIRS = 3
MIN_CYCLES = 3
MAX_TRACEBACKS = 5
# calibration-loop seconds at the reference host speed, the fastest state of
# the 2-vCPU Xeon VM the baseline was measured on
REFERENCE_CAL_S = 7.5e-3


class FrameLog:
    """Cursor over the run's scenario seeds plus the attempted/failed frame counts."""

    def __init__(self, reference: dict, pool: tuple[int, ...], bench_seed: int):
        self.reference = reference
        self.pool = pool
        self.bench_seed = bench_seed
        self.k = 0
        self.attempted = 0
        self.failed = 0
        self.tracebacks: list[str] = []

    def next_seed(self) -> int:
        seed = pool_seed(self.pool, self.bench_seed, self.k)
        self.k += 1
        return seed

    def error(self):
        if len(self.tracebacks) < MAX_TRACEBACKS:
            self.tracebacks.append(traceback.format_exc())

    def check(self, kind: str, seed: int, rows: list[dict], frames_per_row: int):
        """Compare a sweep's rows with the reference rows of ``kind`` at ``seed``."""
        table = self.reference.get(kind) or self.reference["sweep"]
        expected = table[str(seed)]
        ok = rows_match(self.reference["columns"], expected, rows)
        self.attempted += frames_per_row * len(expected)
        self.failed += frames_per_row * ok.count(False)


@contextlib.contextmanager
def timed_run_trial(frames: FrameLog, times: list[float]):
    """Time every ``harness.run_trial`` call; a call that raises counts as no records."""
    from thztrack import harness

    original = harness.run_trial

    def timed(*args, **kwargs):
        t0 = perf_counter()
        try:
            return original(*args, **kwargs)
        except Exception:
            frames.error()
            return []
        finally:
            times.append(perf_counter() - t0)

    harness.run_trial = timed
    try:
        yield
    finally:
        harness.run_trial = original


def sweep_rows(workload, seed: int, out_dir: Path, timer=None) -> tuple[list[dict], float]:
    """One sweep through ``thztrack.cli.main``: (CSV rows, wall seconds); raises if it fails.

    ``timer`` is an optional context manager entered around the sweep.
    """
    from thztrack import cli

    config = workload.write_config(out_dir / f"{workload.name}.cfg", seed)
    out = out_dir / f"{workload.name}.csv"
    out.unlink(missing_ok=True)
    t0 = perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), timer or contextlib.nullcontext():
        code = cli.main(workload.cli_args(config, seed, out))
    elapsed = perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"thztrack {workload.command} exited with {code}")
    with open(out, newline="") as fh:
        return list(csv.DictReader(fh)), elapsed


def cli_sweep(workload, frames: FrameLog, seed: int, kind: str = "sweep",
              times: list[float] | None = None) -> float:
    """Sweep one scenario seed and check its rows against ``kind``; returns wall seconds.

    With ``times`` given, the seconds of every ``run_trial`` call are appended
    to it in sweep order.
    """
    timer = timed_run_trial(frames, times) if times is not None else None
    t0 = perf_counter()
    try:
        rows, elapsed = sweep_rows(workload, seed, OUT_DIR, timer)
    except Exception:
        frames.error()
        rows, elapsed = [], perf_counter() - t0
    frames.check(kind, seed, rows, workload.config["trials"] * workload.users)
    return elapsed


def setup_seconds(config: Path) -> float:
    """Wall time of a fresh interpreter from start until the first frame is ready."""
    t0 = perf_counter()
    with subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "probe_setup.py"), str(config)],
        stdout=subprocess.PIPE, cwd=ROOT,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


class HostSpeed:
    """Scales measured wall seconds to seconds at a reference host speed.

    On the shared-host 2-vCPU Xeon VM the baseline was measured on, the same
    code ran up to 1.8x slower for seconds to minutes at a time (user CPU time
    slowed as much as wall time, there was no steal time, and both vCPUs
    behaved alike), so raw
    timings of runs made minutes apart differ by more than any useful bound.
    A fixed numpy loop shaped like the dense precoder path (complex
    exponential over a (2M+1) x n_bs grid and matrix products) is timed after
    each measured step, and the step's seconds are multiplied by
    ``REFERENCE_CAL_S`` over the mean of the loop times just before and just
    after it.  The loop is defined here, not in ``thztrack``, so a change to
    the program does not move it.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._grid = np.pi * np.linspace(-1.0, 1.0, 129)[:, None] * np.arange(256.0)
        self._ones = np.ones(256, dtype=complex)
        self._loop()  # warm-up
        self.samples = [self._loop()]

    def _loop(self) -> float:
        t0 = perf_counter()
        for _ in range(8):
            a = self._np.exp(1j * self._grid)
            a @ self._ones
            abs(a.conj().T @ a[:, :8])
        return perf_counter() - t0

    def scale(self) -> float:
        """Reference seconds per wall second for the step measured since the last call."""
        self.samples.append(self._loop())
        return REFERENCE_CAL_S / (0.5 * (self.samples[-2] + self.samples[-1]))


def measure(workload, frames: FrameLog, seconds: float) -> dict[str, tuple[float, str]]:
    """End-to-end metrics, tracing off, in seconds at the reference host speed.

    The run walks the seed pool at least ``MIN_CYCLES`` times, timing each
    sweep and each ``run_trial`` call.  With one user per trial those calls
    are the single-frame path; otherwise every sweep is followed by one of the
    one-user variant on the same seed.  Every timing is scaled by
    ``HostSpeed``.  A sweep's and a frame's time is the median over their
    repeats, so every run measures the same frame mix.  Set-up probes are
    spread evenly over the run.
    """
    setup_config = workload.write_config(OUT_DIR / f"{workload.name}.setup.cfg", frames.pool[0])
    setup: list[float] = []
    t_start = perf_counter()
    cli_sweep(workload, frames, frames.next_seed())  # warm-up: lazy imports and caches
    host = HostSpeed()
    single = workload.single_user() if workload.users != 1 else None
    sweep_times: dict[int, list[float]] = defaultdict(list)
    frame_times: dict[tuple[int, int], list[float]] = defaultdict(list)
    n = 0
    t_end = t_start + seconds
    while perf_counter() < t_end or n < MIN_CYCLES * len(frames.pool):
        while len(setup) < min(SETUP_REPEATS, SETUP_REPEATS * (perf_counter() - t_start) / seconds):
            setup.append(setup_seconds(setup_config) * host.scale())
        seed = frames.next_seed()
        times: list[float] = []
        sweep = cli_sweep(workload, frames, seed, times=None if single else times)
        if single:
            cli_sweep(single, frames, seed, "single", times)
        scale = host.scale()
        sweep_times[seed].append(sweep * scale)
        for i, t in enumerate(times):
            frame_times[seed, i].append(t * scale)
        n += 1
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_seconds(setup_config) * host.scale())
    pool_seconds = sum(statistics.median(t) for t in sweep_times.values())
    frame_ms = [1e3 * statistics.median(t) for t in frame_times.values()]
    print(f"  {n} sweeps of {workload.frames_per_sweep} frames"
          f"{f' and {n} one-user sweeps' if single else ''}; {len(frame_ms)} distinct single frames; "
          f"{len(setup)} set-ups")
    print(f"  host speed: calibration loop median {1e3 * statistics.median(host.samples):.3f} ms "
          f"over {len(host.samples)} samples, reference {1e3 * REFERENCE_CAL_S:.3f} ms")
    return {
        "frames_per_s": (workload.frames_per_sweep * len(sweep_times) / pool_seconds, "1/s"),
        "frame_ms_p50": (statistics.median(frame_ms), "ms"),
        "frame_ms_p90": (statistics.quantiles(frame_ms, n=10, method="inclusive")[8], "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def measure_traced(workload, frames: FrameLog, seconds: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from traced sweeps, each paired with an untraced sweep on the same seed."""
    tracer = Tracer()
    cli_sweep(workload, frames, frames.next_seed())  # warm-up
    overhead = []
    t_end = perf_counter() + seconds
    while perf_counter() < t_end or len(overhead) < MIN_PAIRS:
        seed = frames.next_seed()
        times = {}
        for traced in (False, True) if len(overhead) % 2 == 0 else (True, False):
            if traced:
                with tracer.installed():
                    times[traced] = cli_sweep(workload, frames, seed)
                tracer.check()
            else:
                times[traced] = cli_sweep(workload, frames, seed)
        overhead.append(times[False] / times[True] - 1.0)
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_frac"] = (statistics.median(overhead), "1")
    print(f"  {len(overhead)} plain/traced sweep pairs of {workload.frames_per_sweep} frames")
    print("  span                            calls/frame   total ms/frame   self ms/frame")
    by_name = tracer.by_name()
    frames_traced = by_name["tracker.plan_tracking"]["calls"]
    for name, agg in sorted(by_name.items()):
        print(f"  {name:32s}{agg['calls'] / frames_traced:11.3f}{1e3 * agg['total'] / frames_traced:17.4f}"
              f"{1e3 * agg['self'] / frames_traced:16.4f}")
    tracer.write(OUT_DIR / f"spans-{workload.name}.csv")
    return metrics


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})"
    except (TypeError, KeyError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "thztrack").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    git_sha = None  # the benchmark may run from an export that is not a git checkout
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        git_sha = head.read_text().strip()
        ref = ROOT / ".git" / git_sha.removeprefix("ref: ")
        if ref.is_file():
            git_sha = ref.read_text().strip()
    return {
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="draw frames from the held-out scenario-seed pool")
    args = parser.parse_args(argv)

    # pin BLAS/OpenMP to one thread before numpy is first imported; set-up
    # probes inherit the setting
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import thztrack  # noqa: F401
    except ImportError as exc:
        print(f"cannot import thztrack from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)

    workload = WORKLOADS[args.workload]
    pool = HELD_OUT_POOL if args.held_out else DEFAULT_POOL
    frames = FrameLog(load_reference(workload), pool, args.seed)
    env = environment()
    print(f"workload {workload.name} seed {args.seed} ({'held-out' if args.held_out else 'default'} pool) "
          f"trace {args.trace}: {workload.why}")
    print("env " + json.dumps(env))
    if args.trace:
        metrics = measure_traced(workload, frames, args.seconds)
    else:
        metrics = measure(workload, frames, args.seconds)
    for text in frames.tracebacks:
        print(text, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  failed_frac = {frames.failed / frames.attempted:.6g} "
          f"({frames.failed} of {frames.attempted} frames)")
    print(json.dumps({
        "correct": frames.failed == 0,
        "attempted": frames.attempted,
        "failed": frames.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
