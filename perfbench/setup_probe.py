"""Set-up probe, run as a fresh process: time ``import ddiqkd`` and loading
the default config, with the host-speed probe just before and just after.
numpy, the one runtime dependency, is imported first and not timed: its
import cost is the environment's, not the program's.  Prints the three
times in seconds.

    python3 perfbench/setup_probe.py src
"""

import sys
import time

import numpy  # noqa: F401

from hostspeed import python_floats, time_probe

sys.path.insert(0, sys.argv[1])
before = time_probe(python_floats)
start = time.perf_counter()
from ddiqkd.cli import load_config  # noqa: E402

load_config(None, {})
seconds = time.perf_counter() - start
print(seconds, before, time_probe(python_floats))
