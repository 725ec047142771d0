"""Command timing in seconds at a fixed reference speed.

The 2-core machine these figures come from is shared with other tenants,
and its speed swings by up to 2x for several seconds at a time: the same
`extract` read 0.61 s and 1.14 s within one minute. A fixed reference loop
slows down with it. So a timed command is bracketed by runs of that loop,
and a timer runs it again every `TICK_S` while the command runs. The
command's wall time, less the time the loop took inside it, is scaled by
the mean speed of those runs: `seconds = wall * REF_S * mean(1 / loop)`.
The result reads as the command's wall time on a machine that runs the
loop in `REF_S`.
"""

import signal
import time

import numpy as np

REF_S = 0.004  # the loop's wall time on the reference machine, by definition
TICK_S = 0.2  # the loop runs again this often while a command runs

_A = np.random.default_rng(0).random((48, 48))


def reference_loop():
    """A fixed mix of interpreter arithmetic, small allocations and small dense
    products, as the program's own work mixes them; returns its wall time."""
    start = time.perf_counter()
    total = 0
    for i in range(22000):
        total += i * i % 7
    table = {i: (i, str(i)) for i in range(1800)}
    x = _A
    for _ in range(50):
        x = np.tanh(x @ _A * 0.01)
    del table, x
    return time.perf_counter() - start


class timed:
    """Times the body of a `with timed() as t:` block; then `t.seconds` is its
    time at reference speed and `t.wall` its wall time, both in seconds."""

    def __enter__(self):
        self.loops = [reference_loop()]
        self.inside = 0.0
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self.start = time.perf_counter()
        return self

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.loops.append(reference_loop())
        self.inside += time.perf_counter() - start

    def __exit__(self, *exc):
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self.previous)
        self.loops.append(reference_loop())
        self.wall = end - self.start - self.inside
        self.seconds = self.wall * REF_S * float(np.mean([1.0 / t for t in self.loops]))
        return False
