"""Set-up probe run in a fresh interpreter by bench/run.py.

Imports acqroc.cli from the checkout's src/ and loads the config given as
the only argument, then prints one JSON line: the CLOCK_MONOTONIC reading
when both were done, and the import and load_config durations.
"""

import os
import sys
from time import perf_counter

t0 = perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import acqroc.cli  # noqa: E402

t1 = perf_counter()
from acqroc.config import load_config  # noqa: E402

load_config(sys.argv[1])
t2 = perf_counter()

import json  # noqa: E402

print(json.dumps({"done": t2, "import_s": t1 - t0, "load_config_ms": (t2 - t1) * 1e3}))
