"""Machine-speed calibration for a shared, noisy host.

On a small virtual machine whose physical cores are shared, the speed of a
fixed piece of code drifts by tens of percent within a minute. Run-level
averages of raw wall time therefore spread by 20-25 % between identical
runs. The benchmark times this fixed kernel before the first op and after
every op, and divides each op's wall time by the kernel's slowdown against
`REFERENCE_S`, a fixed nominal time close to the kernel's time on a 2-vCPU
Xeon VM at 2.0 GHz while its host is quiet. Times so scaled are "reference
seconds". Both sides of a comparison run the same kernel, and the kernel
calls nothing in doatrack, so a change to the library cannot move it.

The kernel mixes the kinds of work the library does: FFTs and complex
exponentials (sigproc, localize), a BLAS product, long element-wise passes
over arrays larger than cache (simulate) and an interpreter-bound loop of
small numpy calls (geometry, evaluate).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = 0.05


class Calibrator:
    """Times the fixed kernel; each call returns its slowdown factor."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._frames = rng.standard_normal((12, 2048))
        self._matrix = rng.standard_normal((96, 96))
        self._phase = rng.standard_normal((360, 48))
        self._long = rng.standard_normal(1 << 18)
        self._times = np.sort(rng.uniform(0.0, 10.0, 1200))

    def _kernel(self) -> float:
        # the three parts take about equal time
        acc = 0.0
        for _ in range(18):
            spectrum = np.fft.rfft(self._frames, axis=1)
            acc += float(np.abs(spectrum[:, 1:200]).sum())
            acc += float(np.real(np.exp(1j * self._phase)).sum())
            acc += float((self._matrix @ self._matrix).trace())
        acc += float(np.sum(self._long * np.sinc(self._long)))
        times = self._times
        for i in range(2400):
            t = 0.0041 * i
            idx = int(np.searchsorted(times, t))
            acc += float(np.linalg.norm(times[idx:idx + 3])) + t
        return acc

    def __call__(self) -> float:
        start = perf_counter()
        self._kernel()
        return (perf_counter() - start) / REFERENCE_S
