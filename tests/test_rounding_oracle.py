"""The rounding part of certified radii against a 40-digit mpmath oracle.

Every matrix and series here is finitely supported, so the radius of a
kernel value or a series value is its rounding bound alone, and the oracle
is the exact finite sum.  Imaginary parts reach 1e12, where the phase error
of n**(-i t), about u |t| log n, dominates the error.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dskernel import (
    DenseMatrix,
    DiagonalMatrix,
    DirichletKernel,
    ExponentRule,
    GeneralDirichletSeries,
    HalfPlane,
    RankOneMatrix,
    SequenceRule,
    evaluate,
    kernel_eval,
)

mpmath = pytest.importorskip("mpmath")

ORACLE_DPS = 40

#: |Im| = 10**e with e up to 12, either sign, or exactly real
imag_parts = st.one_of(
    st.just(0.0),
    st.builds(lambda e, sign: sign * 10.0**e, st.floats(0.0, 12.0), st.sampled_from([-1.0, 1.0])),
)
points = st.builds(complex, st.floats(1.05, 3.0), imag_parts)
coefficients = st.lists(
    st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)), min_size=2, max_size=6
)


def mp_power(n, z):
    return mpmath.power(mpmath.mpf(n), -mpmath.mpc(z.real, z.imag))


def assert_in_disc(vb, truth):
    assert abs(mpmath.mpc(vb.value.real, vb.value.imag) - truth) <= vb.error_radius


@settings(max_examples=40, deadline=None)
@given(s=points, u=points, order=st.integers(2, 400), seed=st.integers(0, 2**16))
def test_diagonal_kernel_disc_holds(s, u, order, seed):
    d = np.random.default_rng(seed).standard_normal(order) + 0.5j
    kern = DirichletKernel(DiagonalMatrix(SequenceRule("explicit", values=tuple(d))), HalfPlane(0.0))
    vb = kernel_eval(kern, s, u, order)
    with mpmath.workdps(ORACLE_DPS):
        z = s + u.conjugate()
        truth = mpmath.fsum(mpmath.mpc(d[n - 1]) * mp_power(n, z) for n in range(1, order + 1))
        assert_in_disc(vb, truth)


@settings(max_examples=25, deadline=None)
@given(s=points, u=points, order=st.integers(2, 12), seed=st.integers(0, 2**16))
def test_dense_kernel_disc_holds(s, u, order, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((order, order)) + 1j * rng.standard_normal((order, order))
    vb = kernel_eval(DirichletKernel(DenseMatrix(A), HalfPlane(0.0)), s, u, order)
    with mpmath.workdps(ORACLE_DPS):
        ub = u.conjugate()
        truth = mpmath.fsum(
            mpmath.mpc(A[m - 1, n - 1]) * mp_power(m, s) * mp_power(n, ub)
            for m in range(1, order + 1) for n in range(1, order + 1)
        )
        assert_in_disc(vb, truth)


@settings(max_examples=25, deadline=None)
@given(s=points, u=points, f=coefficients)
def test_rank_one_kernel_disc_holds(s, u, f):
    # a lone term at a real point is reported exact (see the xfail below)
    assume(np.count_nonzero(f) > 1 or s.imag or u.imag)
    vb = kernel_eval(DirichletKernel(RankOneMatrix(np.array(f)), HalfPlane(0.0)), s, u, len(f))
    with mpmath.workdps(ORACLE_DPS):
        left = mpmath.fsum(mpmath.mpc(c) * mp_power(n, s) for n, c in enumerate(f, 1))
        right = mpmath.fsum(mpmath.mpc(c) * mp_power(n, u) for n, c in enumerate(f, 1))
        assert_in_disc(vb, left * mpmath.conj(right))


@settings(max_examples=40, deadline=None)
@given(s=points, order=st.integers(2, 400), seed=st.integers(0, 2**16))
def test_ordinary_series_disc_holds(s, order, seed):
    a = np.random.default_rng(seed).standard_normal(order) + 0.25j
    vb = evaluate(GeneralDirichletSeries.ordinary(a, finite=True), s, order)
    with mpmath.workdps(ORACLE_DPS):
        truth = mpmath.fsum(mpmath.mpc(a[n - 1]) * mp_power(n, s) for n in range(1, order + 1))
        assert_in_disc(vb, truth)


@settings(max_examples=25, deadline=None)
@given(s=points, gaps=st.lists(st.floats(0.01, 3.0), min_size=2, max_size=30))
def test_general_exponent_series_disc_holds(s, gaps):
    # the stored exponents are the exact doubles the oracle uses
    lam = np.cumsum(gaps)
    series = GeneralDirichletSeries(tuple(lam), tuple(1.0 + 0.0j for _ in lam), finite=True)
    vb = evaluate(series, s, len(lam))
    with mpmath.workdps(ORACLE_DPS):
        z = mpmath.mpc(s.real, s.imag)
        truth = mpmath.fsum(mpmath.exp(-mpmath.mpf(x) * z) for x in lam)
        assert_in_disc(vb, truth)


@settings(max_examples=25, deadline=None)
@given(s=points, omega=st.floats(0.3, 3.0), order=st.integers(2, 200))
def test_rule_exponent_series_disc_holds(s, omega, order):
    # exponents omega * log n are computed, so their own rounding is priced too
    rule = SequenceRule("explicit", values=(1.0,) * order)
    series = GeneralDirichletSeries.from_rules(ExponentRule("log", omega=omega), rule, order)
    vb = evaluate(series, s, order)
    with mpmath.workdps(ORACLE_DPS):
        z = mpmath.mpf(omega) * mpmath.mpc(s.real, s.imag)
        truth = mpmath.fsum(mpmath.exp(-z * mpmath.log(n)) for n in range(1, order + 1))
        assert_in_disc(vb, truth)


@pytest.mark.parametrize("t", [1e3, 1e6, 1e12])
def test_explicit_ones_diagonal_at_order_5000(t):
    """The defect inputs of the old 1e-14 * mass term (it missed from |Im s| = 1e3 on)."""
    kern = DirichletKernel(DiagonalMatrix(SequenceRule("explicit", values=(1.0,) * 5000)), HalfPlane(0.5))
    vb = kernel_eval(kern, complex(1.1, t), 1.1, 5000)
    with mpmath.workdps(ORACLE_DPS):
        truth = mpmath.fsum(mp_power(n, complex(2.2, t)) for n in range(1, 5001))
        assert_in_disc(vb, truth)


def test_lone_real_term_is_not_exact():
    f = [0j, 1.5126440232086376j]
    vb = kernel_eval(DirichletKernel(RankOneMatrix(np.array(f)), HalfPlane(0.0)), 2.0, 2.0, 2)
    with mpmath.workdps(ORACLE_DPS):
        assert_in_disc(vb, abs(mpmath.mpc(f[1])) ** 2 * mp_power(2, 4.0 + 0j))
