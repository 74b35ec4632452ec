"""Child process behind setup_s: the first import of the named modules.

    python perfbench/import_probe.py cdwtunnel [cdwtunnel.cli]

Prints the import's wall seconds and the calibration kernel's seconds,
measured in this same fresh interpreter right after the import.
"""

import sys
import time

t0 = time.perf_counter()
for name in sys.argv[1:]:
    __import__(name)
seconds = time.perf_counter() - t0

from calibration import kernel_seconds  # noqa: E402  (after the timed import)

print(seconds, kernel_seconds())
