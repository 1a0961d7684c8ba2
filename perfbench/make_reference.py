"""Regenerate the reference sweep rows in ``reference/``.

Runs every workload's CLI sweep once per scenario seed of both pools and
stores the CSV cells as written.  Run it only on the code whose rows are the
reference (the rows were generated from the repository's first benchmarked
commit); a later change that moves a row must show up as failed frames, not
as a new reference.

Usage: python3 perfbench/make_reference.py [WORKLOAD ...]
"""

import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from run import THREAD_VARS, sweep_rows  # noqa: E402
from workloads import DEFAULT_POOL, HELD_OUT_POOL, REFERENCE_DIR, WORKLOADS  # noqa: E402


def _dumps(ref: dict) -> str:
    """JSON with one line per scenario seed, so a changed row shows as a one-line diff."""
    parts = [f'"workload": {json.dumps(ref["workload"])}', f'"columns": {json.dumps(ref["columns"])}']
    for kind in ("sweep", "single"):
        if kind in ref:
            seeds = ",\n".join(f"{json.dumps(s)}: {json.dumps(rows)}" for s, rows in ref[kind].items())
            parts.append(f'"{kind}": {{\n{seeds}\n}}')
    return "{\n" + ",\n".join(parts) + "\n}\n"


def build_reference(workload, seeds, out_dir: Path) -> dict:
    """Rows of every seed: "sweep" for the workload, "single" for its one-user variant."""
    kinds = {"sweep": workload}
    if workload.users != 1:
        kinds["single"] = workload.single_user()
    ref: dict = {"workload": workload.name}
    for kind, wl in kinds.items():
        ref[kind] = {}
        for seed in seeds:
            rows, _ = sweep_rows(wl, seed, out_dir)
            ref["columns"] = list(rows[0])
            ref[kind][str(seed)] = [list(row.values()) for row in rows]
    return ref


def main(names: list[str]) -> None:
    out_dir = BENCH_DIR / "_out"
    out_dir.mkdir(exist_ok=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        ref = build_reference(WORKLOADS[name], DEFAULT_POOL + HELD_OUT_POOL, out_dir)
        (REFERENCE_DIR / f"{name}.json").write_text(_dumps(ref))
        print(f"wrote {REFERENCE_DIR / f'{name}.json'}")


if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = "1"
    main(sys.argv[1:])
