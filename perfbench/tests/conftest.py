import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from run import SCRUBBED_ENV  # noqa: E402

# The in-process tests measure with the program's defaults, like the
# runner's workers.
for _name in SCRUBBED_ENV:
    os.environ.pop(_name, None)
