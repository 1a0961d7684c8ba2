"""Set-up probe: a fresh interpreter gets the first frame ready, then prints "ready".

It imports thztrack (and with it numpy), loads the scenario file, builds the
subcarrier grid and, when the scenario uses one, the codebook.  ``run.py``
times it from process start to the "ready" line.

Usage: python3 perfbench/probe_setup.py SCENARIO_FILE
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from thztrack import harness  # noqa: E402

scn = harness.scenario_from_file(sys.argv[1])
harness.SubcarrierGrid.from_config(scn.system)
if scn.codebook:
    harness.build_codebook(scn.system)
print("ready", flush=True)
