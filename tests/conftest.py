import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from dskernel import (
    DenseMatrix,
    DiagonalMatrix,
    DirichletKernel,
    HalfPlane,
    RankOneMatrix,
    SequenceRule,
)


def random_psd_dense(rng, n: int, scale: float = 0.5) -> np.ndarray:
    """Random complex PSD matrix B B* of order n."""
    B = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return B @ B.conj().T


def random_hermitian_with_negative(rng, n: int, floor: float = 0.5) -> np.ndarray:
    """Random Hermitian matrix with at least one planted negative eigenvalue."""
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, _ = np.linalg.qr(Z)
    ev = np.abs(rng.standard_normal(n)) + 0.2
    ev[rng.integers(0, n)] = -(floor + abs(rng.standard_normal()))
    A = (Q * ev) @ Q.conj().T
    return 0.5 * (A + A.conj().T)


@pytest.fixture
def diag_ones_kernel() -> DirichletKernel:
    """The zeta kernel sum n**(-s-conj(u)) on Re > 1/2."""
    return DirichletKernel(DiagonalMatrix(SequenceRule("constant", scale=1.0)), HalfPlane(0.5))


def dense_kernel(entries: np.ndarray, rho: float = 0.0) -> DirichletKernel:
    return DirichletKernel(DenseMatrix(np.asarray(entries, dtype=complex)), HalfPlane(rho))


def rank_one_kernel(fhat, rho: float = 0.0) -> DirichletKernel:
    return DirichletKernel(RankOneMatrix(np.asarray(fhat, dtype=complex)), HalfPlane(rho))


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: thread-count variables of the BLAS builds numpy may load; one thread keeps their buffers fixed
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def rss_growth_mib(setup: str, call: str) -> float:
    """MiB by which ``call`` lifts the peak resident set above the resident set just before it.

    Both snippets run in a fresh interpreter with one BLAS thread and
    PYTHONPATH=src, ``setup`` first.  The peak counts every page the process
    touched, so LAPACK's and malloc's buffers, which tracemalloc does not
    see, count too.  It is VmHWM, the ru_maxrss of the interpreter's own
    memory: Linux's ru_maxrss also keeps the peak of the process that
    started it (pytest's), across exec.  Linux only (/proc/self/status).
    """
    code = "\n".join([
        setup,
        "def status(key):",
        "    return next(int(l.split()[1]) for l in open('/proc/self/status') if l.startswith(key + ':'))",
        "before = status('VmRSS')",
        call,
        "print((status('VmHWM') - before) / 1024)",
    ])
    env = {**os.environ, "PYTHONPATH": str(SRC), **{name: "1" for name in BLAS_THREADS}}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return float(out.stdout.split()[-1])
