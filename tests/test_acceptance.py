"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, not configured elsewhere.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from dskernel import (
    AdmissibleSupport,
    CollisionError,
    DenseMatrix,
    DiagonalMatrix,
    DirichletKernel,
    ExponentRule,
    Envelope,
    GeneralDirichletSeries,
    HalfPlane,
    RankOneMatrix,
    SequenceRule,
    TranslateSpan,
    adjoint_condition_check,
    coefficient_recover,
    evaluate,
    example_arrowhead,
    homogeneity_residual,
    kernel_eval,
    merge_log_exponents,
    multiply_merged,
    psd_check,
    quasi_invariance_classify,
    recover_block,
    translate_gram,
    translation_invariance_test,
)
from dskernel.matrices import ArrowheadMatrix
from conftest import dense_kernel, random_psd_dense, random_hermitian_with_negative

SQRT2 = math.sqrt(2.0)


def report(n: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {n:2d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_01_worked_example_reproduction():
    t0 = time.perf_counter()
    m, rep = example_arrowhead()
    elapsed = time.perf_counter() - t0
    ok = True
    eigs = rep["head_eigenvalues"]
    ok &= abs(eigs[0] - 1.0 / 6.0) <= 1e-12 and abs(eigs[1] - 1.0) <= 1e-12
    ok &= rep["coupling_sum_exact"] and abs(rep["coupling_sum"] - 1.0 / 3.0) <= 1e-12
    ok &= abs(rep["margin"] - (-0.5)) <= 1e-12
    for j, (s_j, det) in enumerate(zip(rep["schur_shift_S_j"], rep["schur_dets"]), start=1):
        ok &= abs(s_j - (1.0 - 4.0**-j) / 3.0) <= 1e-12
        ok &= det > 0
    ok &= len(rep["schur_shift_S_j"]) == 20
    ok &= rep["ladder_verdict"] == "psd" and max(rep["ladder_orders"]) == 16
    ok &= min(rep["ladder_min_eigenvalues"]) >= -1e-9
    ok &= elapsed < 1.0
    report(1, f"worked-example reproduction ({elapsed*1e3:.0f} ms)", ok)


def test_criterion_02_psd_equivalence_with_sampled_gram():
    rng = np.random.default_rng(20240202)
    agreements = 0
    total = 200
    for i in range(total):
        if i < 100:
            A = random_psd_dense(rng, 6)
            # half of the PSD batch gets a strict B*Bdagger with full rank
        else:
            A = random_hermitian_with_negative(rng, 6, floor=0.5)
        kern = dense_kernel(A, rho=0.0)
        structural = psd_check(kern.matrix, 6, tol=1e-8).is_psd
        pts = 2.02 + 0.4 * rng.random(8) + 1j * (16.0 * rng.random(8) - 8.0)
        G = np.array([[kernel_eval(kern, si, sj, 6).value for sj in pts] for si in pts])
        sampled = float(np.linalg.eigvalsh(0.5 * (G + G.conj().T))[0]) >= -1e-8
        agreements += structural == sampled
    report(2, f"PSD equivalence vs sampled Gram ({agreements}/{total})", agreements == total)


def test_criterion_03_tail_bound_soundness():
    rng = np.random.default_rng(333)
    passed = 0
    total = 0
    for i in range(50):
        if i % 2 == 0:
            p = float(rng.uniform(-1.0, 1.0))
            C = float(rng.uniform(0.2, 2.0))
            mat = DiagonalMatrix(SequenceRule("power", scale=C, exponent=p))
            rho = max(0.0, p / 2) + 0.05
        else:
            k = int(rng.integers(1, 3))
            B = rng.standard_normal((k, k))
            head = B @ B.T + 0.1 * np.eye(k)
            pd = float(rng.uniform(0.0, 1.0))
            pc = (pd - 1.2) / 2.0
            mat = ArrowheadMatrix(
                k, head,
                SequenceRule("power", scale=0.3, exponent=pc),
                SequenceRule("power", scale=float(rng.uniform(0.5, 1.5)), exponent=pd),
            )
            rho = mat.envelope.alpha + 0.05
        kern = DirichletKernel(mat, HalfPlane(rho))
        edge = max(kern.certified_sigma(), (kern.matrix.sigma_floors()[1] + 0.0) / 2.0)
        sigma = edge + 0.5 + float(rng.uniform(0.0, 1.5))
        for M in (100, 1000):
            lo = kernel_eval(kern, sigma, sigma, M)
            hi = kernel_eval(kern, sigma, sigma, 10 * M)
            total += 1
            passed += abs(hi.value - lo.value) <= lo.error_radius
    report(3, f"tail-bound soundness ({passed}/{total})", passed == total)


def test_criterion_04_coefficient_recovery_round_trip():
    rng = np.random.default_rng(444)
    worst = 0.0
    n_matrices = 12
    for t in range(n_matrices):
        order = int(rng.integers(4, 7))
        A = random_psd_dense(rng, order, scale=0.4)
        Af = np.zeros((6, 6), dtype=complex)
        Af[:order, :order] = A
        kern = dense_kernel(Af, rho=0.0)

        def ev(s, u):
            return kernel_eval(kern, s, u, 6).value

        if t == 0:
            # literal per-entry recovery through the public op
            for m in range(1, 5):
                for n in range(1, 5):
                    got = coefficient_recover(ev, m, n, 6, sigma_min=1.0)
                    worst = max(worst, abs(got - Af[m - 1, n - 1]))
        else:
            block = recover_block(ev, 6, sigma_min=1.0).block
            worst = max(worst, float(np.max(np.abs(block[:4, :4] - Af[:4, :4]))))
    report(4, f"recovery round-trip (worst {worst:.2e})", worst < 1e-6)


def test_criterion_05_merged_exponents():
    merged = merge_log_exponents(SQRT2, 50, 50)
    nus = [nu for nu, _, _ in merged]
    gaps = np.diff(nus)
    ok = len(merged) == 2500 and bool(np.all(gaps > 0)) and float(gaps.min()) > 1e-9

    rng = np.random.default_rng(55)
    f = GeneralDirichletSeries.ordinary(rng.standard_normal(3), finite=True)
    g = GeneralDirichletSeries(
        tuple(SQRT2 * math.log(n) for n in range(1, 4)),
        tuple(rng.standard_normal(3)),
        ExponentRule("log", omega=SQRT2),
        finite=True,
    )
    prod = multiply_merged(f, g)
    for j in range(10):
        s = 2.0 + 0.3 * j + (0.5j if j % 2 else -0.25j)
        lhs = evaluate(f, s, 3) * evaluate(g, s, 3)
        rhs = evaluate(prod, s, len(prod))
        ok &= abs(lhs.value - rhs.value) <= lhs.error_radius + rhs.error_radius + 1e-12

    try:
        merge_log_exponents(1.0, 2, 2)
        ok = False
    except CollisionError:
        pass
    report(5, f"merged exponents (min gap {float(gaps.min()):.2e})", bool(ok))


def test_criterion_06_quasi_invariance_classification():
    rng = np.random.default_rng(666)
    errors = 0
    worst_factor = 0.0
    for i in range(100):
        if i < 50:
            f = np.zeros(6, dtype=complex)
            f[0] = 1.0
            f[1:] = 0.06 * (rng.standard_normal(5) + 1j * rng.standard_normal(5))
            kern = DirichletKernel(RankOneMatrix(f), HalfPlane(0.0))
            expect = "quasi_invariant"
        else:
            d = np.abs(rng.standard_normal(6)) + 0.1
            kern = dense_kernel(np.diag(d))
            expect = "not_quasi_invariant"
        grid = [complex(1.2 + 0.6 * j, (-1.0) ** j * j) for j in range(5)]
        rep = quasi_invariance_classify(kern, 6, tol=1e-8, grid=grid)
        if rep.verdict != expect:
            errors += 1
            continue
        if expect == "quasi_invariant":
            F = np.outer(rep.factor, np.conj(rep.factor))
            worst_factor = max(
                worst_factor, float(np.max(np.abs(F - kern.matrix.truncation(6))))
            )
    ok = errors == 0 and worst_factor < 1e-8
    report(6, f"quasi-invariance classification (errors {errors}, "
              f"worst factor {worst_factor:.1e})", ok)


def test_criterion_07_translation_invariance():
    rng = np.random.default_rng(777)
    agreements = 0
    witnesses_ok = True
    total = 100
    for i in range(total):
        d = np.abs(rng.standard_normal(6)) + 0.1
        if i < 50:
            A = np.diag(d)
            expect = True
        else:
            A = np.diag(d)
            m0, n0 = sorted(rng.choice(6, size=2, replace=False))
            v = 0.1 + 0.85 * rng.random()
            A[m0, n0] = A[n0, m0] = v * math.sqrt(d[m0] * d[n0])
            expect = False
        kern = dense_kernel(A)
        rep = translation_invariance_test(kern, 6, tol=1e-6, seed=1000 + i)
        structural_matches = rep.structural_diagonal == expect
        agreements += (rep.invariant == expect) and structural_matches
        if not expect:
            witnesses_ok &= rep.witness is not None and rep.witness.violation > 1e-6
    ok = agreements == total and witnesses_ok
    report(7, f"translation invariance verdicts ({agreements}/{total})", ok)


def test_criterion_08_homogeneity_exact():
    rng = np.random.default_rng(888)
    nonzero = 0
    for _ in range(1000):
        c = Fraction(int(rng.integers(-99, 100)), int(rng.integers(1, 20)))
        b = Fraction(int(rng.integers(-99, 100)), int(rng.integers(1, 20)))
        if homogeneity_residual(c, b) != {}:
            nonzero += 1
    report(8, f"homogeneity identity exact ({1000 - nonzero}/1000)", nonzero == 0)


def test_criterion_09_translate_independence():
    rng = np.random.default_rng(999)
    offsets = []
    while len(offsets) < 4:
        cand = Fraction(int(rng.integers(-1000, 1001)), 100)
        if cand not in offsets:
            offsets.append(cand)
    span = TranslateSpan(
        a=1.0,
        offsets=tuple(offsets),
        diagonal=SequenceRule("constant", scale=1.0),
        support=AdmissibleSupport("all"),
        order=2_000_000,
        rho=0.5,
    )
    gram = translate_gram(span)
    ok = gram.min_eigenvalue > 0
    zeta2 = math.pi**2 / 6.0
    g11_err = abs(gram.matrix[0, 0].real - zeta2)
    ok &= g11_err < 1e-6
    report(9, f"translate independence (min eig {gram.min_eigenvalue:.3e}, "
              f"G11 err {g11_err:.1e})", bool(ok))


def test_criterion_10_weighted_sum_kernel_identity():
    import mpmath

    ok = True
    for order in (1000, 10000):
        span = TranslateSpan(a=1.0, offsets=(Fraction(0),), diagonal=SequenceRule("constant", scale=1.0),
                             support=AdmissibleSupport("all"), order=order, rho=0.5)
        rep = adjoint_condition_check(span, 0.25)
        ok &= rep.verdict == "finite"
        ok &= rep.kernel_value is not None
        # sum n**(2 delta) b_n**2 / a_n = kappa(3/4, 3/4) = zeta(3/2): the kernel's one disc must hold it
        ok &= bool(abs(mpmath.mpc(rep.kernel_value) - mpmath.zeta(1.5)) <= rep.kernel_radius)
    report(10, "weighted-sum / kernel identity", bool(ok))
