"""Machine-speed calibration for the timed loop.

The machine this benchmark was tuned on shares its cores: the same op runs
up to 1.8x slower for a minute at a time, which spreads wall-clock medians
by 20-30% between runs.  So after every op the timed loop also times a
kernel that does the same kind of work as the workload's ops but does not
touch movingbed, and scales the op by REF / (median of the kernel samples
around it); run.py scales set-up time the same way.  Every end-to-end time
is therefore in reference seconds: seconds on a machine, or in a phase,
where the kernel takes its reference time.  A change to the package moves
scaled times exactly as it moves raw ones; run.py prints the raw
wall-clock figures too.

compute  small numpy and complex-scalar operations under the interpreter,
         for the in-process sweep and simulate ops (reference 2.5 ms);
spawn    a fresh interpreter that imports numpy, for the CLI processes
         and for set-up (reference 0.15 s); their timings do not follow
         the compute kernel.
"""

from __future__ import annotations

import cmath
import subprocess
import sys
import time

import numpy as np

_X = np.linspace(0.0, 1.0, 64)
_M = np.array([[1.0, 0.5], [0.25, 1.0]], dtype=complex)


def _kernel() -> float:
    acc = 0.0
    for i in range(150):
        acc += float(np.sum(np.exp(1j * _X * i)).real)
        acc += cmath.sqrt(complex(i, 1.0)).real + abs((_M @ _M)[0, 1])
    return acc


def compute() -> float:
    """Wall time of the compute kernel, in seconds."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def spawn() -> float:
    """Wall time of the spawn kernel, in seconds."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   timeout=120)
    return time.perf_counter() - t0


# workload kernel name -> (sampler, reference seconds)
KERNELS = {"compute": (compute, 0.0025), "spawn": (spawn, 0.15)}
