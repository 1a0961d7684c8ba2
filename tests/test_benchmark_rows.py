"""The benchmark's row check on every seed of both pools of each workload, so that a moved row fails here too.

Any row the benchmark would count as a failed frame fails here: the
held-out pool is checked as well as the default one, so a row that moves on
inputs no change was tuned for fails too.  The first seed of each pool keeps
its own test; the other seeds share one.

The sweeps run through ``thztrack.cli.main`` with the workload's own
scenario file and arguments, and their CSV rows are compared with the
reference rows by ``perfbench/workloads.py``'s ``rows_match``; the perfbench
modules are loaded read-only, as in ``test_benchmark_contract.py``.
"""

import contextlib
import csv
import io

import pytest
from test_benchmark_contract import _load

from thztrack import cli

workloads = _load("workloads")


def _check_rows(name, seed, tmp_path):
    workload = workloads.WORKLOADS[name]
    reference = workloads.load_reference(workload)
    # a several-user workload also has the one-user reference the frame timings run on
    runs = {"sweep": workload} if workload.users == 1 else {"sweep": workload, "single": workload.single_user()}
    for kind, run in runs.items():
        config = run.write_config(tmp_path / f"{kind}.cfg", seed)
        out = tmp_path / f"{kind}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(run.cli_args(config, seed, out)) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        expected = reference[kind][str(seed)]
        assert workloads.rows_match(reference["columns"], expected, rows) == [True] * len(expected), kind


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_pool_seed_1_rows_match_the_reference(name, tmp_path):
    _check_rows(name, workloads.DEFAULT_POOL[0], tmp_path)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_held_out_seed_1001_rows_match_the_reference(name, tmp_path):
    _check_rows(name, workloads.HELD_OUT_POOL[0], tmp_path)


@pytest.mark.parametrize("seed", workloads.DEFAULT_POOL[1:] + workloads.HELD_OUT_POOL[1:])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_other_pool_seed_rows_match_the_reference(name, seed, tmp_path):
    _check_rows(name, seed, tmp_path)
