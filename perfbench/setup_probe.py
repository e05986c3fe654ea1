"""Time one workload set-up in a fresh interpreter and print the seconds.

    python3 perfbench/setup_probe.py <workload>

Set-up is importing lenreg and building the workload's inputs (read,
ingest, build_vocab, encode). ``run.py`` starts this several times per run
and reports the median, so the import is measured cold each time.
"""

import sys
from time import perf_counter

t0 = perf_counter()
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (imports lenreg)

workloads.build_inputs(workloads.WORKLOADS[sys.argv[1]], ROOT / "data")
print(repr(perf_counter() - t0))
