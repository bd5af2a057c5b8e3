"""A fixed reference kernel that gauges the machine's speed during a run.

The host the benchmark was tuned on shares its cores, and the CPU time of
identical work drifts by 10-30% over minutes as the host's load changes.
The benchmark runs this kernel between its operations and scales every time
it reports by ``nominal / measured``, so a time reads as it would on the
machine at its nominal speed.  The kernel uses neither ``ncstat`` nor any
file of the program, so a change to the program cannot move it.

``in_process`` times the kernel in this process; ``in_child`` times a fresh
interpreter that imports numpy and runs it, for workloads whose work is
itself done by fresh interpreters.
"""

from __future__ import annotations

import os
import subprocess
import sys
from time import process_time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# About the median CPU times of the two forms on the 2-core VM the benchmark
# was tuned on; they only set the scale of the reported times.
NOMINAL_S = 0.03
NOMINAL_CHILD_S = 0.2

CHILD_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import reference; reference.kernel()"


def kernel() -> None:
    """Interpreter work, then tiny, small and mid-size numpy calls, as the workloads mix them."""
    import numpy as np

    rng = np.random.default_rng(12345)
    tiny = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    tiny = tiny @ tiny.conj().T
    small = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    small = small + small.conj().T
    mid = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    mid = mid + mid.conj().T
    eye = np.eye(2)
    table: dict[int, list] = {}
    for i in range(20000):
        table.setdefault(i % 61, []).append((i, str(i)))
    total = 0.0
    for _ in range(200):
        k = np.kron(tiny, eye)
        total += np.trace(k @ k.conj().T).real + np.linalg.norm(tiny - tiny.conj().T)
        total += float(np.linalg.eigvalsh(tiny)[0]) + float(np.abs(tiny).max())
    for _ in range(200):
        _, v = np.linalg.eigh(small)
        np.einsum("ij,jk->ik", v, small)
    for _ in range(8):
        _, v = np.linalg.eigh(mid)
        v @ mid @ v.conj().T


def in_process() -> float:
    """CPU seconds of one kernel run in this process."""
    c0 = process_time()
    kernel()
    return process_time() - c0


def in_child(cwd: str) -> float:
    """CPU seconds of a fresh interpreter that imports numpy and runs the kernel."""
    proc = subprocess.Popen([sys.executable, "-c", CHILD_CODE, BENCH_DIR], cwd=cwd)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    return usage.ru_utime + usage.ru_stime
