"""Fast checks of the benchmark itself, on tiny versions of its workloads.

Run from the repository root:  python3 -m pytest -q perfbench/selftest.py

The file is not named test_*.py, so the repository's own test run does not
collect it: a later change that moves a wrapped function is meant to break
the traced benchmark, not the library's test suite.
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
from make_reference import build_reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
TINY_SYSTEM = {"n_bs": 16, "n_ttd": 4, "p": 4, "f_c": 100e9, "bandwidth": 10e9, "m_half": 8}
POOL = (1, 2)


def tiny(name: str, **overrides):
    """The named workload shrunk to a 16-antenna array and one trial per point."""
    wl = WORKLOADS[name]
    return replace(wl, config={**wl.config, **TINY_SYSTEM, "trials": 1, **overrides})


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    monkeypatch.setattr(run, "MIN_CYCLES", 1)
    return tmp_path


def frame_log(workload, out_dir: Path) -> run.FrameLog:
    return run.FrameLog(build_reference(workload, POOL, out_dir), POOL, bench_seed=0)


def read_spans(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return [
            {"name": r["name"], "start": float(r["start_s"]), "end": float(r["end_s"]),
             "parent": int(r["parent"]), "frame": int(r["frame"])}
            for r in csv.DictReader(fh)
        ]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_end_to_end_metrics_named_with_units(name, out_dir):
    wl = tiny(name)
    frames = frame_log(wl, out_dir)
    metrics = run.measure(wl, frames, seconds=0.05)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {k: u for k, (_, u) in metrics.items()}
    assert all(value > 0 for value, _ in metrics.values())
    assert frames.failed == 0 and frames.attempted > 0


@pytest.mark.parametrize("name, slots, calls", [("comp-snr", 2, 5), ("coarse-theta", 3, 4)])
def test_span_tree_and_exact_counts(name, slots, calls, out_dir):
    wl = tiny(name, slots=[slots])
    frames = frame_log(wl, out_dir)
    metrics = run.measure_traced(wl, frames, seconds=0.05)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {k: u for k, (_, u) in metrics.items()}
    assert frames.failed == 0

    # 2L+1 dense precoders per compensated frame (pilots, CPR problem, gain), L+1 otherwise
    assert metrics["physmodel.precoder_matrix.calls"][0] == calls
    assert (metrics["leakage.refine.iters_mean"][0] > 0) == (name == "comp-snr")

    spans = read_spans(out_dir / f"spans-{wl.name}.csv")
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
            child_time[span["parent"]] += span["end"] - span["start"]
    self_time = [s["end"] - s["start"] - c for s, c in zip(spans, child_time)]
    assert min(self_time) >= -1e-9
    sweep_time = sum(s["end"] - s["start"] for s in spans if s["name"] == "harness.sweep")
    accounted = sum(t for s, t in zip(spans, self_time) if s["name"] != "cli.main")
    assert accounted == pytest.approx(sweep_time, rel=1e-9)
    assert metrics["trace.accounted_frac"][0] == pytest.approx(1.0, rel=1e-9)

    # every frame's spans sit under one run_trial span carrying the same frame id
    frames_seen = {s["frame"] for s in spans if s["name"] == "tracker.plan_tracking"}
    assert len(frames_seen) == sum(1 for s in spans if s["name"] == "tracker.plan_tracking")
    for span in spans:
        if span["name"] == "harness.run_trial":
            assert span["frame"] in frames_seen


def test_missing_wrapped_function_fails_traced_run(out_dir, monkeypatch):
    from thztrack import leakage

    wl = tiny("comp-snr")
    frames = frame_log(wl, out_dir)
    original = leakage.precoder_matrix
    monkeypatch.delattr(leakage, "precoder_matrix")
    with pytest.raises(AttributeError):
        run.measure_traced(wl, frames, seconds=0.05)
    from thztrack import harness, tracker

    # the wrappers installed before the failure were taken out again
    assert not hasattr(harness.run_trial, "__wrapped__")
    assert tracker.precoder_matrix is original


def test_row_mismatch_counts_frames_as_failed(out_dir):
    wl = tiny("codebook-small")
    frames = frame_log(wl, out_dir)
    row = frames.reference["sweep"]["1"][0]
    col = frames.reference["columns"].index("mean_gain")
    row[col] = repr(float(row[col]) * (1 + 1e-8))
    run.cli_sweep(wl, frames, 1)
    per_row = wl.config["trials"] * wl.users
    assert frames.attempted == per_row * len(wl.config["slots"])
    assert frames.failed == per_row


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_raising_frame_counts_as_failed(out_dir, monkeypatch):
    from thztrack import harness

    wl = tiny("coarse-theta")
    frames = frame_log(wl, out_dir)

    def broken(*args, **kwargs):
        raise FloatingPointError("injected")

    monkeypatch.setattr(harness, "beamforming_gain", broken)
    run.cli_sweep(wl, frames, 1, times=[])
    assert frames.failed == frames.attempted > 0
    assert "FloatingPointError: injected" in frames.tracebacks[0]


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric_with_unit(trace, monkeypatch, capsys):
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    monkeypatch.setattr(run, "MIN_CYCLES", 1)
    assert run.main(["--workload", "codebook-small", "--seed", "3", "--seconds", "0.05",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in result["metrics"].items()}
    for m in spec:
        assert any(line.strip().startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines[:-1]), m["name"]


def test_benchmark_spec_matches_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    # ten single-user frames beyond p90 in every run
    assert all(w.single_user().frames_per_sweep * len(run.DEFAULT_POOL) >= 100 for w in WORKLOADS.values())
