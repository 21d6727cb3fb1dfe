"""The PSD ladder is one loop: every eigen-solved rung, on every path, goes through ``kernel._eigen_rung``.

A rung up to order 256 is always an eigen rung; above it a rung is an
eigen rung when its path's judge leaves it undecided: the structure
(``_structural_rung``), the verified Cholesky factor (``_cholesky_judge``),
or no judge at all when Rump's constant leaves no positive shift.  The
Cauchy-interlacing check therefore spans the 256 boundary.
"""

import math

import numpy as np
import pytest

import dskernel.kernel as kernel
from dskernel import ArrowheadMatrix, DenseMatrix, InternalCheckError, SequenceRule, psd_check


class Reached(Exception):
    """Raised by the patched eigen rung: the ladder solved a rung through it."""


def refuse_eigen_rungs_above(monkeypatch, order: int) -> None:
    real = kernel._eigen_rung

    def patched(sec, *args):
        if sec.shape[0] > order:
            raise Reached(sec.shape[0])
        return real(sec, *args)
    monkeypatch.setattr(kernel, "_eigen_rung", patched)


def dense(n: int, hole=None) -> DenseMatrix:
    """C C* + I/10 with C real n x 16, and a_jj = -0.3 at j = hole with row j of C zero."""
    C = np.random.default_rng(n).standard_normal((n, 16)) / 4.0
    if hole is not None:
        C[hole] = 0.0
    A = C @ C.T + 0.1 * np.eye(n)
    if hole is not None:
        A[hole, hole] = -0.3
    return DenseMatrix(0.5 * (A + A.T))


def arrowhead() -> ArrowheadMatrix:
    """Head 2 over coupling 0.45 l**-0.55 and tail l**0.45: PSD at every order."""
    return ArrowheadMatrix(1, np.array([[2.0]]), SequenceRule("power", scale=0.45, exponent=-0.55),
                           SequenceRule("power", scale=1.0, exponent=0.45))


class TestEveryEigenRungGoesThroughOneFunction:
    def test_a_low_rung(self, monkeypatch):
        refuse_eigen_rungs_above(monkeypatch, 0)
        with pytest.raises(Reached):
            psd_check(dense(8), 8)

    def test_an_undecided_structural_rung(self, monkeypatch):
        matrix = arrowhead()
        assert psd_check(matrix, 300).method == "eigenvalue-ladder + arrowhead-schur"
        monkeypatch.setattr(kernel, "_schur_rung", lambda *args: (-math.inf, math.inf, None))
        refuse_eigen_rungs_above(monkeypatch, kernel.EIGEN_LADDER_MAX)
        with pytest.raises(Reached):
            psd_check(matrix, 300)

    def test_an_undecided_cholesky_rung(self, monkeypatch):
        matrix = dense(300, hole=280)
        assert psd_check(matrix, 300).method == "eigenvalue-ladder + verified-cholesky"
        monkeypatch.setattr(kernel, "norm_upper_bound", lambda *args: math.inf)  # no witness verifies
        refuse_eigen_rungs_above(monkeypatch, kernel.EIGEN_LADDER_MAX)
        with pytest.raises(Reached):
            psd_check(matrix, 300)

    def test_the_path_without_a_positive_shift(self, monkeypatch):
        matrix = dense(300)
        assert psd_check(matrix, 300, tol=0.0).method == "eigenvalue-ladder"
        refuse_eigen_rungs_above(monkeypatch, kernel.EIGEN_LADDER_MAX)
        with pytest.raises(Reached):
            psd_check(matrix, 300, tol=0.0)


def test_interlacing_spans_the_256_boundary(monkeypatch):
    # lambda_min of the order-300 section lifted above that of the order-256 one
    matrix, real = dense(300), np.linalg.eigvalsh
    assert psd_check(matrix, 300, tol=0.0).is_psd
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: real(a) + (10.0 if a.shape[0] == 300 else 0.0))
    with pytest.raises(InternalCheckError, match="Cauchy interlacing"):
        psd_check(matrix, 300, tol=0.0)


def test_ladder_orders():
    # increasing doublings from 2, then max_order itself, once
    for max_order in range(1, 1101):
        orders = kernel.psd_ladder_orders(max_order)
        assert orders[-1] == max_order and all(a < b for a, b in zip(orders, orders[1:]))
        assert orders[:-1] == [2**i for i in range(1, len(orders))]
