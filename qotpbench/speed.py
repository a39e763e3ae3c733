"""Host-speed reference for the end-to-end timings.

A shared host, such as a small cloud VM, can change speed by a quarter or
more for minutes at a time, and every CPU-bound timing moves with it.  So the
benchmark times a fixed pure-Python loop around every timed op and around
every set-up, and scales each timing by ``REFERENCE_S / loop time``: the
figure reported is the time the op would take on a host that runs the loop
in ``REFERENCE_S``.  A change to qotp moves the op and not the loop, so it
shows in full.
"""

from __future__ import annotations

import time

# the loop's usual time on a 2-vCPU x86-64 VM with CPython 3.11
REFERENCE_S = 0.020
REFERENCE_ITERATIONS = 300_000


def reference_loop() -> float:
    """Wall seconds of one run of the fixed reference loop."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


def scaled(seconds: float, reference_s: float) -> float:
    """``seconds`` measured where the loop took ``reference_s``, expressed on
    a host where it takes ``REFERENCE_S``."""
    return seconds * REFERENCE_S / reference_s
