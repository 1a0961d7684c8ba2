"""The benchmark's workloads, their scenario-seed pools and the reference rows they are checked against.

A workload is one ``key = value`` scenario file swept along one axis through
the ``thztrack`` CLI.  Frames come from a fixed pool of scenario seeds whose
sweep rows were generated once, by ``make_reference.py`` on the code as first
benchmarked.  A run with
benchmark seed ``n`` sweeps pool seeds ``n, n+1, ...`` (mod the pool size)
and covers the whole pool at least three times, so every run measures the
same frame mix and the seed only sets the order; the same seed always gives
the same inputs.  Frame cost varies about 45 % between comp-snr frames, so a
run that measured a seed-dependent subset of frames would spread by more than
the bounds.  The held-out pool is disjoint from the default one and is meant
for re-checking a claim on inputs its author did not tune to.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

DEFAULT_POOL = tuple(range(1, 11))
HELD_OUT_POOL = tuple(range(1001, 1011))

# Row check: float columns must agree to this relative tolerance, all other
# columns exactly.  Perturbing every pilot sample by 1e-13 (relative) moves
# the rows by at most ~1e-12, so summation-order noise passes, while one
# frame changing its outcome (a flipped argmax near-tie, a refinement that
# stops elsewhere) moves a row mean by far more than 1e-9 and fails.
ROW_RTOL = 1e-9
FLOAT_COLUMNS = frozenset(
    ("value", "nmse_linear", "nmse_db", "nmse_coarse_linear", "nmse_coarse_db", "mean_gain")
)

_DEFAULT_SYSTEM = {"n_bs": 256, "n_ttd": 16, "p": 16, "f_c": 100e9, "bandwidth": 10e9, "m_half": 64}
_SMALL_SYSTEM = {"n_bs": 64, "n_ttd": 8, "p": 8, "f_c": 100e9, "bandwidth": 10e9, "m_half": 16}
_AXIS_KEYS = {"snr": "snr_db", "theta": "theta_grid", "slots": "slots"}


@dataclass(frozen=True)
class Workload:
    """One sweep shape: the CLI subcommand, its axis and the scenario keys."""

    name: str
    command: str
    axis: str
    config: dict
    why: str

    @property
    def users(self) -> int:
        return self.config["users"]

    @property
    def frames_per_sweep(self) -> int:
        """Frames (trial, user pairs) one sweep runs: trials x users x axis points."""
        return self.config["trials"] * self.users * len(self.config[_AXIS_KEYS[self.axis]])

    def single_user(self) -> "Workload":
        """The same sweep with one user per trial, the single-frame path."""
        return Workload(self.name, self.command, self.axis, {**self.config, "users": 1}, self.why)

    def write_config(self, path: Path, seed: int) -> Path:
        lines = [f"{k} = {json.dumps(v)}" for k, v in self.config.items()]
        lines.append(f"seed = {seed}")
        path.write_text("\n".join(lines) + "\n")
        return path

    def cli_args(self, config_path: Path, seed: int, out_csv: Path) -> list[str]:
        return [
            self.command, "--config", str(config_path), "--seed", str(seed),
            "--axis", self.axis, "--out", str(out_csv),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="comp-snr",
            command="sweep-nmse",
            axis="snr",
            config={
                **_DEFAULT_SYSTEM, "users": 1, "snr_db": [-10, 0, 10, 20, 30], "slots": [4],
                "trials": 2, "scheme": "forward_backward", "compensation": True, "codebook": False,
            },
            why="compensated SNR sweep of criterion 8; CPR refinement does most of the work "
            "and its iteration count varies along the SNR axis",
        ),
        Workload(
            name="coarse-theta",
            command="sweep-gain",
            axis="theta",
            config={
                **_DEFAULT_SYSTEM, "users": 1, "snr_db": [20], "slots": [4], "trials": 4,
                "theta_grid": [-0.9, -0.6, -0.3, 0.3, 0.6, 0.9], "scheme": "forward_backward",
                "compensation": False, "codebook": False,
            },
            why="coarse theta sweep of criterion 9; no refinement, the dense pilot and gain "
            "path does all the work and the +-0.9 points hit the large-angle bound",
        ),
        Workload(
            name="codebook-small",
            command="sweep-nmse",
            axis="slots",
            config={
                **_SMALL_SYSTEM, "users": 4, "snr_db": [10], "slots": [2, 4, 8], "trials": 10,
                "scheme": "forward_only", "compensation": False, "codebook": True,
            },
            why="small 64-antenna array with codebook, forced pairing, 4 users and a slots "
            "axis; frames are ~1 ms so per-frame Python overhead is a large share",
        ),
    )
}


def pool_seed(pool: tuple[int, ...], bench_seed: int, k: int) -> int:
    """Scenario seed of the k-th sweep of a run started with ``bench_seed``."""
    return pool[(bench_seed + k) % len(pool)]


def load_reference(workload: Workload) -> dict:
    """Reference rows: {"columns": [...], "sweep": {seed: rows}, "single": {seed: rows}}."""
    return json.loads((REFERENCE_DIR / f"{workload.name}.json").read_text())


def _same(column: str, want: str, got) -> bool:
    if got is None:
        return False
    if column in FLOAT_COLUMNS:
        return math.isclose(float(want), float(got), rel_tol=ROW_RTOL, abs_tol=0.0)
    return want == str(got)


def rows_match(columns: list[str], expected: list[list[str]], rows: list[dict]) -> list[bool]:
    """Per expected row, whether the produced row agrees on every reference column.

    ``expected`` holds CSV cells as the reference code wrote them; ``rows`` are CSV
    rows or ``harness.sweep`` row dicts.  Columns the reference lacks are
    ignored, so appending columns to the sweep output keeps old rows valid.
    """
    if len(rows) != len(expected):
        return [False] * len(expected)
    return [
        all(_same(c, w, row.get(c)) for c, w in zip(columns, want))
        for want, row in zip(expected, rows)
    ]
