"""Set-up time of one fresh interpreter: import ``nadescent.cli`` and run one
operation.  Run by ``run.py``; prints the seconds taken and the exit code.

Usage: python3 bench/probe.py SRC_DIR ARG...
"""

import io
import sys
import time

sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
from nadescent import cli  # noqa: E402 - the import is what is timed

saved, sys.stdout = sys.stdout, io.StringIO()
try:
    code = cli.main(sys.argv[2:])
finally:
    sys.stdout = saved
print(time.perf_counter() - start, code)
