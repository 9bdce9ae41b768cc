"""Machine-speed reference: a fixed loop timed next to the measured work.

On a shared host the speed of this machine changes by up to 1.8x within a
fraction of a second, depending on what its neighbours run. A run's median
then follows the share of time spent in the fast state, and two runs of
unchanged code differ by as much. The reference loop uses no arrangerank
code, so it never changes between commits. Timing it next to the work gives
each measurement a unit that cancels the machine state:

* a single request (a few ms or less) is divided by the mean of the samples
  taken right before and right after it, which share its machine state or,
  when the state changed during the request, bracket it;
* a longer stretch (a pass, or the phase behind a throughput figure) is
  divided by the time-weighted mean of the reference samples taken during
  it, with samples forced at both of its ends;
* a set-up, which calls the library for long stretches between its few
  samples, is divided by the plain mean of the samples taken during it and
  within one second either side of it.
"""
from __future__ import annotations

import math
from time import perf_counter

import numpy as np

_M = np.random.default_rng(0).normal(size=(16, 16)) / 4.0
_V = np.random.default_rng(1).integers(0, 5, size=24).astype(float)

# converts reference units back to seconds for ``setup_s``: the loop's median
# time on the machine the benchmark was built on (see README.md)
NOMINAL_S = 0.29e-3


def reference_loop() -> float:
    """Seconds taken by a fixed mix of the two kinds of work in arrangerank:
    small-array numpy calls (the model's forward pass) and Python-object work
    (the oracles' grouping, sorting and seeded draws). The machine state moves
    the two kinds by different amounts, so the loop times both."""
    t0 = perf_counter()
    x, table = np.ones(16), {}
    for i in range(30):
        x = np.tanh(_M @ x) + 0.1
        table[i % 7] = table.get(i % 7, 0.0) + float(x[0])
    for k in range(2):
        values = _V.tolist()
        groups = [[i for i, v in zip(range(len(_V)), _V) if v == g]
                  for g in sorted(set(values), reverse=True)]
        table[k] = math.prod(math.factorial(len(g)) for g in groups)
        table[k] += int(np.random.default_rng(k).integers(100))
        ranked = {i: values[i] for i in range(len(values))}
        table[k] += sorted(ranked, key=lambda i: (-ranked[i], i))[0]
    return perf_counter() - t0


class Reference:
    def __init__(self, every_s: float = 0.01):
        self.every_s = every_s
        self.samples: list[float] = []      # reference seconds
        self.times: list[float] = []        # when each sample ended
        self.requests: list[float] = []     # request seconds / reference seconds
        self.spent = 0.0                    # seconds spent in the reference loop

    def request(self, seconds: float) -> None:
        """Record a request timed right after the last sample; samples again and
        divides by the mean of the samples on either side of the request."""
        before = self.samples[-1]
        self.sample()
        self.requests.append(seconds / (0.5 * (before + self.samples[-1])))

    def take_requests(self) -> list[float]:
        """The normalised requests recorded since the last call."""
        out, self.requests = self.requests, []
        return out

    def tick(self) -> None:
        """Between timed calls: sample the reference when one is due."""
        if not self.times or perf_counter() - self.times[-1] >= self.every_s:
            self.sample()

    def sample(self) -> None:
        t0 = perf_counter()
        self.samples.append(reference_loop())
        self.times.append(perf_counter())
        self.spent += self.times[-1] - t0

    def window_mean(self, start: float, end: float) -> float:
        """Mean reference over [start, end], trapezoid-weighted by time, from the
        last sample at or before ``start`` to the first at or after ``end``."""
        t, r = np.array(self.times), np.array(self.samples)
        lo = max(int(np.searchsorted(t, start, side="right")) - 1, 0)
        hi = min(int(np.searchsorted(t, end, side="left")), len(t) - 1)
        t, r = t[lo:hi + 1], r[lo:hi + 1]
        if len(t) < 2:
            return float(r.mean())
        return float((np.diff(t) * (r[1:] + r[:-1]) / 2).sum() / (t[-1] - t[0]))

    def around(self, start: float, end: float, pad_s: float = 1.0) -> float:
        """Mean reference over the samples that ended in [start - pad_s, end + pad_s]."""
        t, r = np.array(self.times), np.array(self.samples)
        return float(r[(t >= start - pad_s) & (t <= end + pad_s)].mean())
