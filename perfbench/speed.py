"""Machine-speed probe: reports times at a fixed nominal machine speed.

The shared machine the benchmark was tuned on changes speed while a run
goes on: a fixed loop switched between two speeds 1.3 times apart every
few seconds, and whole 30-second runs were up to 1.6 times slower than
the next.  Raw times therefore spread more between runs than any useful
regression bound.

``SpeedProbe.factor()`` times two fixed kernels that use no finslerlab
code, one of interpreted object work and one of numpy gathers and
``bincount`` like a jet product, and returns how much slower they ran
than their nominal times (1.0 = nominal).  The benchmark runs it before
and after every job and divides the job's time by the mean of the two
factors.  On 25 back-to-back passes, this brought the pass-to-pass spread
(coefficient of variation) from 0.16 to 0.06 on ``dynamics`` and from 0.13
to 0.07 on ``tower``; the log of a job's time and the log of the factor
around it correlated at 0.84-0.89.  A change to finslerlab cannot change
the probe, so it cannot hide behind the scaling.  Garbage collection is
off while the probe runs, so objects a job leaves alive do not slow it.
"""

import gc
from time import perf_counter

import numpy as np

#: nominal kernel times (s): their typical times on the tuning machine
OBJECT_NOMINAL_S = 3.5e-3
NUMPY_NOMINAL_S = 1.0e-3


class _Obj:
    __slots__ = ("x",)

    def __init__(self, x):
        self.x = x

    def plus(self, other):
        return _Obj(self.x + other.x)


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._i = rng.integers(0, 400, size=3000)
        self._j = rng.integers(0, 400, size=3000)
        self._out = np.sort(rng.integers(0, 400, size=3000))
        self._a = rng.normal(size=400)
        self._b = rng.normal(size=400)

    def _objects(self):
        acc = _Obj(0.0)
        for i in range(4000):
            acc = acc.plus(_Obj(i * 0.5))
        return acc.x

    def _numpy(self):
        s = 0.0
        for _ in range(40):
            s += np.bincount(self._out, weights=self._a[self._i] * self._b[self._j], minlength=400)[5]
        return s

    def factor(self):
        """Slowness of the machine now against its nominal speed (1.0)."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            self._objects()
            t1 = perf_counter()
            self._numpy()
            t2 = perf_counter()
        finally:
            if enabled:
                gc.enable()
        return 0.5 * ((t1 - t0) / OBJECT_NOMINAL_S + (t2 - t1) / NUMPY_NOMINAL_S)
