"""Times the benchmark's steps at a fixed reference pace.

A shared virtual machine runs the same code up to twice as slowly in
phases that last seconds to minutes, so raw wall times of two runs of
one commit differ by more than any useful bound.  This module times a
fixed reference kernel, which does not import cavitydark, just before
and just after every timed step (the median of three timings each
time).  It scales the step's wall time by REFERENCE_S over the mean of
those two kernel times: the time the step would have taken at the pace
at which the kernel takes REFERENCE_S.  A slow phase slows the kernel
and the step alike, so the ratio stays put, while a program change
moves the step and not the kernel and shows in full.

The kernel mixes the costs that dominate the workloads: small-array
numpy calls, numpy arithmetic over a time grid and random draws.  For
a workload whose LAPACK calls run on the BLAS threads, it adds two
120x120 eigensolves, which run on those threads too and so sample the
pace of every vCPU the workload uses.  Both mixes were chosen from
kernel parts timed around the steps of all four workloads: of the
combinations of plain Python, small-array numpy, grid arithmetic,
random draws and the eigensolve, they left the least run-to-run spread
in the paced time.
"""

from time import perf_counter

import numpy as np

# wall time of kernel(eigensolve) on an uncontended vCPU of the machine
# the bounds were set on (2-vCPU VM, Python 3.11.7, numpy 2.4.6)
REFERENCE_S = {False: 4.0e-3, True: 7.2e-3}

_RNG = np.random.default_rng(0)
_STACK = _RNG.normal(size=(4, 3, 3))
_STACK = _STACK + _STACK.transpose(0, 2, 1)
_FREQS = 1.0 + 0.01 * _RNG.normal(size=3)
_WEIGHTS = _RNG.uniform(size=3)
_GRID = np.linspace(0.0, 2 * np.pi, 1024)
_SYM = _RNG.normal(size=(120, 120))
_SYM = _SYM + _SYM.T


def _kernel_once(eigensolve):
    """Wall time of one fixed piece of work: small-array numpy calls,
    arithmetic over a 1024-point grid and random draws, in about equal
    shares, and with `eigensolve` two 120x120 eigensolves."""
    t0 = perf_counter()
    for _ in range(80):
        w, v = np.linalg.eigh(_STACK)
        np.abs(np.exp(-1j * w) @ v[0]).sum()
    for _ in range(24):
        np.abs(np.exp(-1j * np.outer(_GRID, _FREQS)) @ _WEIGHTS) ** 2
    for seed in range(24):
        np.random.default_rng(seed).random(4000).sum()
    if eigensolve:
        np.linalg.eigh(_SYM)
        np.linalg.eigh(_SYM)
    return perf_counter() - t0


def kernel(eigensolve=False):
    """Median of three timings of the reference work, so that one
    interrupted timing does not set the pace."""
    return sorted(_kernel_once(eigensolve) for _ in range(3))[1]


class Pace:
    """Accumulates the wall time and the paced time of the steps of one
    operation.  Each step is bracketed by kernel runs; consecutive steps
    share the kernel run between them."""

    def __init__(self, eigensolve=False):
        self.eigensolve = eigensolve
        self.reference = REFERENCE_S[eigensolve]
        kernel(eigensolve)  # first-call costs stay out of the first bracket
        self.before = kernel(eigensolve)
        self.wall = self.paced = 0.0

    def start(self):
        self.wall = self.paced = 0.0

    def step(self, fn):
        """Run and time fn, add its wall and paced time; return its result."""
        t0 = perf_counter()
        result = fn()
        wall = perf_counter() - t0
        after = kernel(self.eigensolve)
        self.wall += wall
        self.paced += wall * self.reference / (0.5 * (self.before + after))
        self.before = after
        return result
