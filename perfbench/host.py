"""What the benchmark measures about the machine and the process, not the layers.

probe_s times a fixed piece of work, so that times measured while the host
runs slower or faster can be scaled to one reference speed; peak_rss_kib
reads the peak resident memory of the calling process.
"""

import gc
import time
from fractions import Fraction

PROBE_TERMS = 1500


def probe_s():
    """Seconds for a fixed sum of Fractions: how fast the machine runs right now.

    The library's own work is mostly exact rational arithmetic, so this loop
    slows and speeds up with the host the way the jobs do. It runs with the
    garbage collector off, so that the size of the jobs' heap does not change
    its time.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = Fraction(0)
        for i in range(1, PROBE_TERMS + 1):
            total += Fraction(i % 13, i % 7 + 1)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def peak_rss_kib():
    """Peak resident memory of this process in KiB.

    VmHWM counts only this process image. ru_maxrss, the fallback, also holds
    the parent's resident size at the time of the spawn on Linux.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
