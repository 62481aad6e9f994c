"""Print the seconds this fresh process takes to import hermitia and fill
its cache of connected underlying graphs up to the order given as the only
argument (0: import only).  Run by ``run.py`` to measure setup_s.

The import is timed raw: it is mostly loading files and shared libraries,
which the reference loop of ``clock.py`` does not track.  The cache fill is
pure-Python work and is timed at the clock's reference speed.
"""

import sys
import time
from array import array
from pathlib import Path

from clock import Clock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
order = int(sys.argv[1])
start = time.perf_counter()
import hermitia  # noqa: E402
import hermitia.cli  # noqa: E402,F401

imported = time.perf_counter()
fill = 0.0
if order:
    with Clock() as clock:
        begin = time.perf_counter()
        hermitia.connected_underlying(order)
        span = array("d", (begin, time.perf_counter()))
    fill = clock.durations(span)[0]
print(imported - start + fill)
