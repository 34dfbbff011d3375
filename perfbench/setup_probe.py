"""Set-up probe: import rmtlab and validate one workload's configs, then exit.

run.py times this script from process start to exit in a fresh interpreter:
    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (imports rmtlab)

workloads.WORKLOADS[sys.argv[1]].configs(int(sys.argv[2]), ROOT / ".perfbench_out" / "probe")
