"""CPU-speed sampler: the reference against which run times are scaled.

    python3 vmfbench/speed.py OUT.json

On this benchmark's 2-vCPU KVM host the speed of one vCPU drifts by up to
2x within seconds, and by +-25 % between 2-second windows, independently on
the two vCPUs (see README.md). A fixed pure-Python spin, timed by its own
CPU time, slows down with it. The sampler runs pinned to the same CPU as the
measured process (the caller pins both) and times SPIN_ITERS iterations every
PERIOD_S seconds, recording (monotonic time, spin CPU seconds) pairs until
SIGTERM, when it writes them to OUT as JSON and exits. It takes about 3 % of
that CPU.

``scaled`` converts an elapsed interval to reference seconds: the interval
times the mean of REF_SPIN_S / spin time over the samples inside it, i.e.
what the interval would have lasted on a CPU that runs the spin in
REF_SPIN_S, about the median on the benchmark's host while a workload runs.
"""

import json
import signal
import sys
import time

SPIN_ITERS = 10000
PERIOD_S = 0.025
REF_SPIN_S = 0.0007


def _spin() -> float:
    s = 0.0
    for i in range(SPIN_ITERS):
        s += i * 0.5
    return s


def scaled(samples, start: float, end: float) -> float:
    """Seconds at the reference speed for the interval [start, end]."""
    inside = [c for t, c in samples if start <= t <= end]
    if not inside:  # shorter than one period: take the nearest sample
        inside = [min(samples, key=lambda s: abs(s[0] - (start + end) / 2))[1]]
    return (end - start) * sum(REF_SPIN_S / c for c in inside) / len(inside)


def main() -> int:
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    samples = []
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    while not stop:
        w0, c0 = time.perf_counter(), time.process_time()
        _spin()
        c1, w1 = time.process_time(), time.perf_counter()
        samples.append(((w0 + w1) / 2, c1 - c0))
        time.sleep(PERIOD_S)
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(samples, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
