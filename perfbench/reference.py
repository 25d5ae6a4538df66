"""Reference kernel: a fixed piece of pure-Python work that gauges host speed.

The benchmark runs on shared hosts whose speed drifts by 20% and more over
minutes, in CPU time as much as in wall time.  ``run.py`` times this kernel in
its own process, on the CPU the jobs run on, right before and after every timed
sample, and rescales the sample to the speed at which the kernel takes
``NOMINAL_S``.  The kernel does the kind of work kvquad does (sparse products
of truncated series over words, with ``Fraction`` coefficients) but imports
nothing from kvquad, so a change to kvquad cannot change it.
"""

import random
from fractions import Fraction
from time import perf_counter

# The kernel's time at reference speed: about its median on a shared two-vCPU
# Intel Xeon VM with Python 3.11.7.  Only a scale; any constant would do.
NOMINAL_S = 0.150

ORDER = 8


def _series(rng: random.Random, size: int) -> dict[bytes, Fraction]:
    terms = {}
    while len(terms) < size:
        word = bytes(rng.randrange(3) for _ in range(rng.randint(0, 4)))
        terms[word] = Fraction(rng.randint(1, 50) * rng.choice((-1, 1)), rng.randint(1, 60))
    return terms


def _mul(a: dict, b: dict) -> dict:
    out = {}
    for u, cu in a.items():
        for v, cv in b.items():
            if len(u) + len(v) <= ORDER:
                w = u + v
                c = out.get(w, 0) + cu * cv
                if c:
                    out[w] = c
                else:
                    out.pop(w, None)
    return out


_RNG = random.Random(20090920)
_A = _series(_RNG, 60)
_B = _series(_RNG, 60)


def kernel_s() -> float:
    """Wall seconds of one run of the kernel."""
    t0 = perf_counter()
    _mul(_mul(_A, _B), _A)
    return perf_counter() - t0
