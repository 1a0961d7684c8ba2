"""The library names the benchmark in ``perfbench/`` relies on.

Its tracer replaces module attributes by name and its set-up probe calls
``harness`` directly, so renaming or dropping one of them breaks the
benchmark; these tests break first.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

from thztrack import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """A ``perfbench`` module, loaded from its file under a name that shadows nothing."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _owner(mod_name, path):
    owner = importlib.import_module(f"thztrack.{mod_name}")
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def test_tracer_installs_and_removes_every_wrap():
    tracing = _load("tracing")
    targets = [_owner(mod_name, path) for mod_name, path, _, _ in tracing.WRAPS]
    originals = [getattr(owner, attr) for owner, attr in targets]
    # installing raises AttributeError if a wrapped attribute is gone
    with tracing.Tracer().installed():
        wrapped = [getattr(owner, attr) for owner, attr in targets]
    assert all(hasattr(fn, "__wrapped__") for fn in wrapped)
    assert [getattr(owner, attr) for owner, attr in targets] == originals


def test_setup_probe_gets_a_codebook_scenario_ready(tmp_path):
    workload = _load("workloads").WORKLOADS["codebook-small"]
    config = workload.write_config(tmp_path / "scenario.cfg", seed=1)
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "probe_setup.py"), str(config)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ready"


def test_tracer_hooks_run_on_a_compensated_sweep(tmp_path):
    tracer = _load("tracing").Tracer()
    argv = ["sweep-nmse", "--seed", "1", "--trials", "2", "--users", "1", "--snr-db", "10,20",
            "--slots", "2", "--compensation", "--out", str(tmp_path / "sweep.csv")]
    with tracer.installed():
        assert cli.main(argv) == 0
    # a hook that reads a moved attribute fails here, not inside the sweep
    tracer.check()
    assert tracer.by_name()["tracker.plan_tracking"]["calls"] == 2 * 2
