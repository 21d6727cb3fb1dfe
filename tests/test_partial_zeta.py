"""Euler-Maclaurin partial sums sum_{n=a}^{N} n**-z (``series.partial_zeta``) and the three callers routed through them.

Every disc is checked against a 40-digit mpmath oracle of the partial sum:
a direct ``fsum`` for N <= 5000, and above that mpmath.zeta(z) minus the tail
sum_{n>N} n**-z by an Euler-Maclaurin series written here with
``mpmath.bernoulli``, run until its terms fall below 1e-50 of the tail.
"""

import json
import math
import pathlib
import time
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import dskernel.series as series_module
from dskernel import (
    AdmissibleSupport,
    ArrowheadMatrix,
    DiagonalMatrix,
    DirichletKernel,
    Envelope,
    ExponentRule,
    GeneralDirichletSeries,
    HalfPlane,
    SequenceRule,
    SpecError,
    TranslateSpan,
    evaluate,
    kernel_eval,
    translate_gram,
)
from dskernel.series import em_start, partial_zeta, power_tail_bound, zeta_tails

U = 2.0**-53
DIRECT_MAX = 5000
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def em_tail(z, a: int):
    """sum_{n>=a} n**-z by Euler-Maclaurin at the working precision."""
    a = mpmath.mpf(a)
    total = a ** (1 - z) / (z - 1) + a**-z / 2
    fac = z * a ** (-z - 1)  # (z)_{2j-1} a**(-z-2j+1) at j = 1
    for j in range(1, 400):
        term = mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j) * fac
        total += term
        if abs(term) < mpmath.mpf(10) ** -50 * abs(total):
            return total
        fac *= (z + 2 * j - 1) * (z + 2 * j) / a**2
    raise AssertionError(f"Euler-Maclaurin tail at z={z}, a={a} did not converge")


_oracles: dict = {}


def oracle(z, N: int):
    """sum_{n=1}^{N} n**-z to 40 digits, for the exact binary value of a complex z or for an mpc z."""
    key = (z, N)
    if key not in _oracles:
        with mpmath.workdps(40):
            w = mpmath.mpc(z.real, z.imag)
            if N <= DIRECT_MAX:
                value = mpmath.fsum(mpmath.mpf(n) ** -w for n in range(1, N + 1))
            else:
                value = mpmath.zeta(w) - em_tail(w, N + 1)
            _oracles[key] = value
    return _oracles[key]


def head(z: complex, k: int):
    with mpmath.workdps(40):
        return mpmath.fsum(mpmath.mpf(n) ** -mpmath.mpc(z.real, z.imag) for n in range(1, k + 1))


def assert_in_disc(value: complex, radius: float, truth, what: str) -> None:
    with mpmath.workdps(40):
        miss = abs(mpmath.mpc(value.real, value.imag) - truth)
        assert miss <= radius, f"{what}: |value - truth| = {mpmath.nstr(miss, 5)} > radius {radius!r}"


def switch(z: complex) -> int:
    """The last order ``partial_zeta`` sums directly from n = 1 for Re z > 1: b + 512, b the start of ``em_start``."""
    return em_start(complex(z), 1, math.inf) + 512


def sweep_pairs() -> list:
    """(z, N, c, p): Re z - 1 in (0, 3], |Im z| <= 1e4, N from 1 to 1e8, dyadic p.

    Re z lies on a 2**-30 grid and p is dyadic, so the callers' inputs
    below are exact floats: s + p, (Re z + p)/2 and 2z carry no rounding.
    """
    rng = np.random.default_rng(2024)
    pairs = []
    near_one = [1.0 + 2.0**-20, 1.000001, 1.0 + 2.0**-10, 1.01]
    Ns = [1, 2, 3, 7, 19, 40, 100, 350, 700, 5001, 20000, 10**5, 10**6, 10**7, 10**8]
    for sigma in near_one:
        for N in (3, 40, 1000, 10**5, 10**8):
            pairs.append((complex(sigma, 0.0), N, 1.0, 0.0))
    while len(pairs) < 320:
        i = len(pairs)
        sigma = 1.0 + round(float(rng.uniform(0.0, 3.0)) * 2**30 + 1) / 2**30
        t = 0.0 if i % 5 == 0 else float(10.0 ** rng.uniform(-1, 4)) * float(rng.choice([-1.0, 1.0]))
        z = complex(sigma, t)
        # half the orders straddle the switch to Euler-Maclaurin
        N = int(rng.choice(Ns)) if i % 2 else int(switch(z) + rng.integers(-2, 3))
        c = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)) if i % 3 else 1.0
        p = float(rng.choice([0.0, 0.25, -0.5, 0.75, -0.125]))
        pairs.append((z, max(N, 1), c, p))
    return pairs


PAIRS = sweep_pairs()


def rule(c: complex, p: float) -> SequenceRule:
    return SequenceRule("constant", scale=c) if p == 0.0 else SequenceRule("power", scale=c, exponent=p)


class TestSweep:
    def test_sweep_covers_the_stated_ranges(self):
        assert len(PAIRS) >= 300
        sigmas = [z.real for z, *_ in PAIRS]
        assert min(sigmas) > 1.0 and max(sigmas) <= 4.0 and 1.000001 in sigmas
        assert max(abs(z.imag) for z, *_ in PAIRS) <= 1e4
        Ns = [N for _, N, *_ in PAIRS]
        assert min(Ns) == 1 and max(Ns) == 10**8
        for real in (True, False):  # direct sums and Euler-Maclaurin next to the switch
            offsets = {N - switch(z) for z, N, *_ in PAIRS[4 * 5:] if (z.imag == 0.0) == real}
            assert {-1, 0} & offsets and {1, 2} & offsets

    @pytest.mark.parametrize("chunk", range(8))
    def test_discs_contain_the_partial_sums(self, chunk):
        for z, N, c, p in PAIRS[chunk::8]:
            truth = oracle(z, N)
            value, radius = partial_zeta(z, 0.0, 1, N)
            assert_in_disc(value, radius, truth, f"partial_zeta({z}, {N})")

            # evaluate: c sum n**p n**-s at s = z + p
            s = complex(z.real + p, z.imag)
            series = GeneralDirichletSeries.ordinary(
                [c * n**p for n in range(1, 5)], envelope=Envelope(abs(c), p), coefficient_rule=rule(c, p))
            vb = evaluate(series, s, N)
            tail = abs(c) * power_tail_bound(N, s.real - p)
            assert_in_disc(vb.value, vb.error_radius - tail + 2 * U * vb.error_radius, c * truth,
                           f"evaluate({z}, {N}, p={p})")

            # diagonal kernel c n**p with s + conj(u) - p = z
            kern = DirichletKernel(DiagonalMatrix(rule(c, p)), HalfPlane(p / 2))
            x = (z.real + p) / 2
            s, u = complex(x, z.imag / 2), complex(x, -z.imag / 2)
            value, rounding = kern.matrix.partial_sum(s, u, N)
            assert_in_disc(value, rounding, c * truth, f"diagonal partial_sum({z}, {N}, p={p})")
            vb = kernel_eval(kern, s, u, N)
            tail = kern.matrix.tail_radius(s.real, u.real, N)
            assert_in_disc(vb.value, vb.error_radius - tail + 2 * U * vb.error_radius, c * truth,
                           f"diagonal kernel_eval({z}, {N}, p={p})")

    @pytest.mark.parametrize("chunk", range(4))
    def test_constant_arrowhead_discs_contain_the_partial_sums(self, chunk):
        """s = z and u = conj(z), so the strips sum n**-z and the tail n**-2z."""
        rng = np.random.default_rng(chunk)
        for z, N, c, _ in PAIRS[chunk::4]:
            k = int(rng.integers(1, 4))
            H = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            d = float(rng.uniform(0.5, 2.0))
            kern = DirichletKernel(ArrowheadMatrix(k, H + H.conj().T, SequenceRule("constant", scale=c),
                                                   SequenceRule("constant", scale=d)), HalfPlane(0.5))
            s, u = z, z.conjugate()
            with mpmath.workdps(40):
                ps = [mpmath.mpf(m) ** -mpmath.mpc(s.real, s.imag) for m in range(1, k + 1)]
                block = mpmath.fsum(complex(kern.matrix.head[m, n]) * ps[m] * ps[n]
                                    for m in range(min(k, N)) for n in range(min(k, N)))
                if N > k:
                    strip = oracle(z, N) - head(z, k)
                    P = head(z, k)
                    truth = (block + c * P * strip + c.conjugate() * strip * P
                             + d * (oracle(2 * z, N) - head(2 * z, k)))
                else:
                    truth = block
            value, rounding = kern.matrix.partial_sum(s, u, N)
            assert_in_disc(value, rounding, truth, f"arrowhead partial_sum({z}, {N}, k={k})")
            vb = kernel_eval(kern, s, u, N)
            tail = kern.matrix.tail_radius(s.real, u.real, N)
            assert_in_disc(vb.value, vb.error_radius - tail + 2 * U * vb.error_radius, truth,
                           f"arrowhead kernel_eval({z}, {N}, k={k})")


class TestRoundedExponents:
    """omega s - p and s + conj(u) - p that do not come out exact: the discs
    price the rounding of the exponent itself."""

    @pytest.mark.parametrize("N", [30, 4000, 10**5, 10**7])
    def test_evaluate_with_omega(self, N):
        rng = np.random.default_rng(N)
        for omega in (math.sqrt(2.0), 0.7, 3.0):
            c, p = complex(rng.uniform(0.5, 2.0), rng.uniform(-1, 1)), float(rng.uniform(-0.6, 0.6))
            s = complex((p + 1.0) / omega + rng.uniform(0.01, 1.5), rng.uniform(-200, 200))
            exponents, coefficients = ExponentRule("log", omega=omega), rule(c, p)
            series = GeneralDirichletSeries(tuple(exponents.prefix(4)), tuple(coefficients.prefix(4)),
                                            exponents, coefficients, Envelope(abs(c), p))
            vb = evaluate(series, s, N)
            with mpmath.workdps(40):
                z = mpmath.mpf(omega) * mpmath.mpc(s.real, s.imag) - mpmath.mpf(p)
                truth = mpmath.mpc(c.real, c.imag) * oracle(z, N)
            tail = abs(c) * power_tail_bound(N, omega * s.real - p)
            assert_in_disc(vb.value, vb.error_radius - tail + 2 * U * vb.error_radius, truth,
                           f"evaluate(omega={omega}, s={s}, p={p}, N={N})")

    @pytest.mark.parametrize("N", [30, 4000, 10**5, 10**7])
    def test_diagonal(self, N):
        rng = np.random.default_rng(N + 7)
        for _ in range(3):
            c, p = 1.3, float(rng.uniform(-0.9, 0.9))
            s = complex(rng.uniform(0.6, 2.0) + p / 2, rng.uniform(-500, 500))
            u = complex(rng.uniform(0.6, 2.0) + p / 2, rng.uniform(-500, 500))
            matrix = DiagonalMatrix(rule(c, p))
            value, rounding = matrix.partial_sum(s, u, N)
            with mpmath.workdps(40):
                z = mpmath.mpc(s.real, s.imag) + mpmath.mpc(u.real, -u.imag) - mpmath.mpf(p)
                truth = c * oracle(z, N)
            assert_in_disc(value, rounding, truth, f"diagonal partial_sum({s}, {u}, p={p}, N={N})")


def every_index(N: int) -> AdmissibleSupport:
    """A support mask that happens to hold every index up to N: it sends a diagonal down the direct path."""
    return AdmissibleSupport("explicit", elements=tuple(range(1, N + 1)))


class TestAgreesWithTheDirectSum:
    """A masked diagonal and a series rule without a ``power_law`` take the direct path; the
    same sums through partial_zeta agree within the sum of the two radii."""

    @pytest.mark.parametrize("N", [50, 999, 20000, 2 * 10**5])
    def test_diagonal(self, N):
        rng = np.random.default_rng(N)
        for _ in range(4):
            r = SequenceRule("power", scale=1.5, exponent=-0.25)
            s = complex(rng.uniform(0.6, 1.5), rng.uniform(-300, 300))
            u = complex(rng.uniform(0.6, 1.5), rng.uniform(-30, 30))
            em = kernel_eval(DirichletKernel(DiagonalMatrix(r), HalfPlane(0.5)), s, u, N)
            direct = kernel_eval(DirichletKernel(DiagonalMatrix(r, support=every_index(N)), HalfPlane(0.5)), s, u, N)
            assert abs(em.value - direct.value) <= em.error_radius + direct.error_radius

    def test_the_all_support_is_unmasked(self):
        # AdmissibleSupport("all") masks nothing, so it takes the support=None path: same value, same radius
        rule = SequenceRule("constant", scale=1.0)
        plain = kernel_eval(DirichletKernel(DiagonalMatrix(rule), HalfPlane(0.5)), 2.0, 2.0, 10**6)
        full = kernel_eval(DirichletKernel(DiagonalMatrix(rule, support=AdmissibleSupport("all")), HalfPlane(0.5)),
                           2.0, 2.0, 10**6)
        assert full == plain and plain.error_radius < 1e-13

    @pytest.mark.parametrize("N", [50, 999, 20000, 2 * 10**5])
    def test_evaluate(self, N, monkeypatch):
        rng = np.random.default_rng(N + 1)
        series = GeneralDirichletSeries.ordinary([0.7] * 4, envelope=Envelope(0.7, 0.0),
                                                 coefficient_rule=SequenceRule("constant", scale=0.7))
        points = [complex(rng.uniform(1.2, 3.0), rng.uniform(-500, 500)) for _ in range(4)]
        ems = [evaluate(series, s, N) for s in points]
        monkeypatch.setattr(SequenceRule, "power_law", lambda self: None)  # no closed form: the direct sum
        for s, em in zip(points, ems):
            direct = evaluate(series, s, N)
            assert abs(em.value - direct.value) <= em.error_radius + direct.error_radius


class TestRatioOneTakesTheConstantPaths:
    """A geometric rule of ratio 1 and a power rule of exponent 0 are constants: ``power_law`` says so, and
    every sum that reads it gives the constant rule's disc bit for bit."""

    SCALE = 0.7
    CONSTANT = SequenceRule("constant", scale=SCALE)
    TWINS = [SequenceRule("geometric", scale=SCALE, ratio=1.0), SequenceRule("power", scale=SCALE, exponent=0.0)]

    @pytest.mark.parametrize("rule", TWINS, ids=["geometric", "power"])
    def test_power_law(self, rule):
        assert rule.power_law() == self.CONSTANT.power_law() == (complex(self.SCALE), 0.0)
        assert SequenceRule("geometric", scale=self.SCALE, ratio=0.5).power_law() is None
        assert SequenceRule("explicit", values=(1.0,)).power_law() is None

    @pytest.mark.parametrize("rule", TWINS, ids=["geometric", "power"])
    def test_diagonal(self, rule):
        s, u = complex(1.3, 40.0), complex(1.1, -3.0)
        got, want = (kernel_eval(DirichletKernel(DiagonalMatrix(r), HalfPlane(0.5)), s, u, 10**6)
                     for r in (rule, self.CONSTANT))
        assert got == want

    @pytest.mark.parametrize("coupling, tail", [(TWINS[0], TWINS[1]), (TWINS[1], TWINS[0]), (CONSTANT, TWINS[1])],
                             ids=["geometric-power", "power-geometric", "constant-power"])
    def test_arrowhead(self, coupling, tail):
        head = np.array([[2.0, 0.5], [0.5, 3.0]])
        s, u = complex(1.3, 40.0), complex(1.1, -3.0)
        got, want = (kernel_eval(DirichletKernel(ArrowheadMatrix(2, head, c, d), HalfPlane(0.5)), s, u, 10**5)
                     for c, d in ((coupling, tail), (self.CONSTANT, self.CONSTANT)))
        assert got == want

    @pytest.mark.parametrize("rule", TWINS, ids=["geometric", "power"])
    def test_series(self, rule):
        got, want = (evaluate(GeneralDirichletSeries.ordinary([self.SCALE] * 4, envelope=Envelope(self.SCALE, 0.0),
                                                              coefficient_rule=r), complex(1.4, 700.0), 10**6)
                     for r in (rule, self.CONSTANT))
        assert got == want

    @pytest.mark.parametrize("rule", TWINS, ids=["geometric", "power"])
    def test_translate_gram(self, rule):
        got, want = (translate_gram(TranslateSpan(a=1.0, offsets=(Fraction(0), Fraction(3, 2), Fraction(-7, 3)),
                                                  diagonal=r, support=AdmissibleSupport("all"), order=2 * 10**5,
                                                  rho=0.5))
                     for r in (rule, self.CONSTANT))
        assert np.array_equal(got.matrix, want.matrix) and got.entry_radius == want.entry_radius


class TestNoLongTables:
    def test_no_array_of_length_order_is_built(self, monkeypatch):
        N = 10**7
        sizes = []
        log_table, prefix = series_module.log_table, SequenceRule.prefix

        def log_spy(n, *start):
            sizes.append(n)
            return log_table(n, *start)

        def prefix_spy(self, n):
            sizes.append(n)
            return prefix(self, n)

        monkeypatch.setattr(series_module, "log_table", log_spy)
        monkeypatch.setattr(SequenceRule, "prefix", prefix_spy)
        s, u = complex(1.4, 700.0), complex(1.3, -2.0)
        evaluate(GeneralDirichletSeries.ordinary(
            [2.0] * 4, envelope=Envelope(2.0, 0.0), coefficient_rule=SequenceRule("constant", scale=2.0)), s, N)
        kernel_eval(DirichletKernel(DiagonalMatrix(SequenceRule("power", scale=1.0, exponent=0.5)), HalfPlane(0.5)),
                    s, u, N)
        kernel_eval(DirichletKernel(ArrowheadMatrix(2, np.eye(2), SequenceRule("constant", scale=0.3),
                                                    SequenceRule("constant", scale=1.0)), HalfPlane(0.5)), s, u, N)
        assert sizes and max(sizes) <= 2 * math.ceil(abs(s + u.conjugate())) + 16


class TestTheSwitchKeepsTheRadius:
    @pytest.mark.parametrize("z", [1.5, 2.0, 3.0, 1.000001, complex(2.2, 0.7), complex(1.2, 20.0), complex(3.0, -900.0)])
    def test_the_direct_and_euler_maclaurin_radii_agree_at_the_switch(self, z):
        # the direct terms are added pairwise, so their rounding grows with
        # log N as the Euler-Maclaurin terms' does: the switch widens no disc
        z = complex(z)
        N = switch(z)
        direct, em = partial_zeta(z, 0.0, 1, N)[1], partial_zeta(z, 0.0, 1, N + 1)[1]
        assert direct <= 3.0 * em and em <= 3.0 * direct

    def test_pairwise_sum_depth_and_error(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 7, 8, 9, 1000, 6161):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            value, depth = series_module.pairwise_sum(x.copy())
            assert depth == math.ceil(math.log2(n))
            exact = complex(math.fsum(x.real), math.fsum(x.imag))
            assert abs(value - exact) <= 2.0 * series_module.gamma(depth) * float(np.sum(np.abs(x))) + 4 * U * abs(exact)
        assert series_module.pairwise_sum(np.zeros(0)) == (0j, 0)


class TestGoldenDiscs:
    @pytest.mark.parametrize("name, z", [("eval_series_zeta_series_s_2_order_10000.json", 2.0),
                                         ("eval_matrix_diag_ones_s_2_u_2_order_100000.json", 4.0)])
    def test_golden_discs_contain_the_partial_sums(self, name, z):
        report = json.loads((GOLDEN / name).read_text())
        N = report["inputs"]["order"]
        value, radius = report["results"]["value"], report["results"]["error_radius"]
        tail = power_tail_bound(N, z)
        assert_in_disc(complex(value), radius, oracle(complex(z), N), name)
        assert_in_disc(complex(value), radius - tail + 2 * U * radius, oracle(complex(z), N), name)


class TestArrayTail:
    """``series.zeta_tails``: the Euler-Maclaurin tail of ``partial_zeta`` over an array of exponents sharing b and N."""

    @pytest.mark.parametrize("N", [2600, 20000, 10**6, 10**8])
    def test_discs_contain_the_tails_and_match_the_scalar_tail(self, N):
        rng = np.random.default_rng(N)
        z = 1.0 + rng.uniform(0.0, 3.0, 24) + 1j * rng.uniform(-1000.0, 1000.0, 24)
        z[:4] = [1.0 + 2.0**-20, 1.5, complex(1.01, 1000.0), 4.0]
        b = 2 * math.ceil(np.max(np.abs(z))) + 16
        dz = np.where(np.arange(z.size) % 2, 1e-12, 0.0)
        value, radius, mass = zeta_tails(z, dz, b, N)
        assert value.shape == radius.shape == mass.shape == z.shape
        with mpmath.workdps(40):
            for i, w in enumerate(z):
                sigma = mpmath.mpf(w.real)
                assert mass[i] >= em_tail(sigma, b) - em_tail(sigma, N + 1)
                # the disc holds the tail at every exponent within dz of z
                for shift in (0.0, dz[i], -1j * dz[i]):
                    x = mpmath.mpc(w.real, w.imag) + mpmath.mpc(shift.real, shift.imag)
                    assert_in_disc(value[i], radius[i], em_tail(x, b) - em_tail(x, N + 1), f"z={w}, N={N}")
                # the scalar partial_zeta from b is the same sum (by Euler-Maclaurin but for a real z
                # below its switch), priced by fsum
                scalar, r = partial_zeta(complex(w), float(dz[i]), b, N)
                assert abs(value[i] - scalar) <= radius[i] + r
                assert radius[i] <= 3.0 * r


class TestRadiusLedger:
    """``golden/radii/partial_zeta_radii.json`` holds the (value, radius) that the code at commit d839199, before
    the fused Euler-Maclaurin loop and the per-term log pricing, gave for ``partial_zeta`` on TestSweep's pairs
    of that time (switch(z) was K + 6144 for a real z) and for ``zeta_tails`` on TestArrayTail's arrays.  No
    radius may grow past 1.1 times its ledger entry, and each value lies within both radii of the ledger's."""

    LEDGER = json.loads((GOLDEN / "radii" / "partial_zeta_radii.json").read_text())

    def test_partial_zeta(self):
        rows = self.LEDGER["partial_zeta"]
        assert len(rows) == len(PAIRS) and {row["N"] for row in rows} >= {1, 10**8}
        for row in rows:
            z, N = complex(*row["z"]), row["N"]
            value, radius = partial_zeta(z, 0.0, 1, N)
            assert radius <= 1.1 * row["radius"], (z, N, radius, row["radius"])
            assert abs(value - complex(*row["value"])) <= radius + row["radius"], (z, N)

    def test_zeta_tails(self):
        for row in self.LEDGER["zeta_tails"]:
            z = np.array([complex(*w) for w in row["z"]])
            value, radius, _ = zeta_tails(z, np.array(row["dz"]), row["b"], row["N"])
            before = np.array(row["radius"])
            assert np.all(radius <= 1.1 * before), row["N"]
            assert np.all(np.abs(value - np.array([complex(*w) for w in row["value"]])) <= radius + before), row["N"]


def hurwitz(w, a: int):
    """sum_{n>=a} n**-w at the working precision: a direct head up to K = max(a, ceil(w) + 30), where the
    Euler-Maclaurin series ``em_tail`` converges past 1e-50, and that series from K.  mpmath.zeta(w, a) is not
    used for a > 1: at 40 digits it gives 1.0518341962e-3999 for w = 1000, a = 10**4, against 1.0518341950e-3999
    at 4,040 digits and here."""
    K = max(a, math.ceil(w) + 30)
    return mpmath.fsum(mpmath.mpf(n) ** -w for n in range(a, K)) + em_tail(w, K)


class TestInfiniteEnd:
    """``partial_zeta`` to N = math.inf: sum_{n>=a} n**-w for every real w within dz of z, the Hurwitz zeta(w, a)."""

    def test_seeded_sweep_holds_hurwitz_zeta_at_both_ends_of_the_exponent_disc(self):
        rng = np.random.default_rng(27)
        betas = [1.0 + 1e-6, 1e3, *(1.0 + 10.0 ** rng.uniform(-6.0, 3.0, 30))]
        misses = []
        with mpmath.workdps(40):
            for beta in betas:
                assert abs(hurwitz(mpmath.mpf(beta), 1) / mpmath.zeta(beta) - 1) <= 1e-35
                for a in (1, 2, 17, 10**4):
                    for dz in (0.0, 1e-16 * beta, 1e-8):
                        value, radius = partial_zeta(beta, dz, a, math.inf)
                        for sign in (-1, 0, 1):
                            truth = hurwitz(mpmath.mpf(beta) + sign * mpmath.mpf(dz), a)
                            if abs(mpmath.mpc(value.real, value.imag) - truth) > radius:
                                misses.append((beta, a, dz, sign))
        assert misses == []

    @pytest.mark.parametrize("z, dz", [(1.0, 0.0), (1.5, 0.5), (1.5, 0.75), (2.0, 1.0 + 2.0**-52), (math.nan, 0.0),
                                       (complex(3.0, 1.0), 0.0)])
    def test_exponent_disc_reaching_one_or_a_complex_z_is_refused(self, z, dz):
        with pytest.raises(SpecError, match="infinity"):
            partial_zeta(z, dz, 1, math.inf)

    @pytest.mark.parametrize("a", [1, 2, 17])
    def test_beyond_the_headless_exponent_no_term_is_formed(self, a):
        for beta in (1100.5, 1e6, 1e300):
            value, radius = partial_zeta(beta, 1e-16 * beta, a, math.inf)
            assert value == (1.0 if a == 1 else 0.0) and 0.0 < radius <= 2.0**-1070
        assert partial_zeta(math.inf, 0.0, a, math.inf) == (1.0 if a == 1 else 0.0, 0.0)


def start_draws() -> list:
    """(z, a, N, dz): 200 real z from 1.05 to 1100 at N = 2*10**4, 10**6 and infinity, and 60 complex z with
    Re z from 1.05 to 4 and |Im z| from 1 to 1e6 at the two finite N; a in {1, 5, 17}, dz 0 or 1e-15 |z|."""
    rng = np.random.default_rng(28)
    draws = []
    for i in range(260):
        real = i < 200
        sigma = 1.0 + float(10.0 ** rng.uniform(math.log10(0.05), math.log10(1099.0 if real else 3.0)))
        t = 0.0 if real else float(10.0 ** rng.uniform(0.0, 6.0)) * float(rng.choice([-1.0, 1.0]))
        z = complex(sigma, t)
        N = (2 * 10**4, 10**6, math.inf)[i % 3] if real else (2 * 10**4, 10**6)[i % 2]
        draws.append((z, (1, 5, 17)[i // 3 % 3], N, 1e-15 * abs(z) if rng.random() < 0.5 else 0.0))
    return draws


_sums: dict = {}


def sum_oracle(w, a: int, N) -> mpmath.mpc:
    """sum_{n=a}^{N} n**-w at the working precision for an mpmath w: the Hurwitz zeta for a real w, and for a
    complex one zeta(w) less the head below a and the tail beyond N, where the tail's Euler-Maclaurin series
    converges (N + 1 > |w|/4), else the direct sum."""
    key = (w, a, N)
    if key not in _sums:
        if w.imag == 0:
            w = mpmath.mpf(w.real)
            value = hurwitz(w, a) - (hurwitz(w, N + 1) if N < math.inf else 0)
        elif N + 1 > abs(w) / 4:
            value = mpmath.zeta(w) - mpmath.fsum(mpmath.mpf(n) ** -w for n in range(1, a)) - em_tail(w, N + 1)
        else:
            value = mpmath.fsum(mpmath.mpf(n) ** -w for n in range(a, N + 1))
        _sums[key] = value
    return _sums[key]


class TestLeastStart:
    """``em_start`` starts Euler-Maclaurin at the least b whose remainder bound is at most 2**-60 a**-sigma, far
    below the former start K = 2 ceil(|z|) + 16, often below |z| + 16, where factors q/b**2 of ``_em_tail`` exceed 1."""

    DRAWS = start_draws()

    def test_draws_cover_starts_below_the_exponent(self):
        for real in (True, False):
            below = [(z, a, N) for z, a, N, _ in self.DRAWS if (z.imag == 0.0) == real
                     and em_start(z, a, N) < min(N, abs(z) + 16)]
            assert len(below) >= 10, real
        assert max(abs(z.imag) for z, *_ in self.DRAWS) > 5e5
        assert {a for _, a, *_ in self.DRAWS} == {1, 5, 17}
        assert {N for *_, N, _ in self.DRAWS} == {2 * 10**4, 10**6, math.inf}

    @pytest.mark.parametrize("chunk", range(4))
    def test_discs_hold_the_sums_at_every_exponent_within_dz(self, chunk):
        misses = []
        with mpmath.workdps(40):
            for z, a, N, dz in self.DRAWS[chunk::4]:
                value, radius = partial_zeta(z, dz, a, N)
                w = mpmath.mpc(z.real, z.imag)
                shifts = [0] if not dz else [-dz, dz] if z.imag == 0.0 else [-dz, dz, 1j * dz]
                for shift in shifts:
                    if abs(mpmath.mpc(value.real, value.imag) - sum_oracle(w + shift, a, N)) > radius:
                        misses.append((z, a, N, dz, shift))
        assert misses == []

    def test_the_start_meets_its_bound_within_13_percent_of_the_least(self):
        # the bound with the exact product: met at b, and missed below (b - 1)/1.14, which the closed-form bound on
        # log prod |z + j| (within 2 of it) cannot reach
        checked = 0
        with mpmath.workdps(30):
            for z, a, *_ in self.DRAWS:
                b = em_start(z, a, math.inf)
                if b >= max(a, 2 * math.ceil(abs(z)) + 16):  # kept at the former start
                    continue
                sigma, w = mpmath.mpf(z.real), mpmath.mpc(z.real, z.imag)
                P = mpmath.fprod(abs(w + j) for j in range(16))
                bound = lambda x: (2 * abs(mpmath.bernoulli(16)) / mpmath.factorial(16) * P
                                   * mpmath.mpf(x) ** (1 - sigma - 16) / (sigma + 15))
                target = mpmath.mpf(2) ** -60 * mpmath.mpf(a) ** -sigma
                assert bound(b) <= target * (1 + mpmath.mpf(10) ** -12), (z, a, b)
                below = math.ceil((b - 1) / 1.14) - 1
                if below >= max(a, 2):
                    assert bound(below) > target, (z, a, b)
                    checked += 1
        assert checked >= 100

    def test_real_heads_on_the_recovery_grid_are_short(self):
        # the exponents s + u of kernel samples on recover_block's grid 2.1 + 0.25 r, r < 50: K was 26 to 74
        for z in np.linspace(4.2, 28.7, 99):
            assert em_start(complex(z), 1, 20000) <= 14, z

    def test_never_above_the_former_start(self):
        for z, a, N, _ in self.DRAWS:
            K = max(a, 2 * math.ceil(abs(z)) + 16)
            b = em_start(z, a, N)
            assert b == N + 1 or (max(a, 2) <= b <= K and N > b + 512)

    def test_an_empty_head_forms_no_table(self):
        partial_zeta(2.5, 0.0, 10**7, math.inf)  # imports and caches
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            value, radius = partial_zeta(2.5, 0.0, 10**7, math.inf)
            best = min(best, time.perf_counter() - start)
        tracemalloc.start()
        try:
            partial_zeta(2.5, 0.0, 10**7, math.inf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert best < 5e-3 and peak < 2**20
        with mpmath.workdps(40):
            assert_in_disc(value, radius, hurwitz(mpmath.mpf(2.5), 10**7), "zeta(2.5, 10**7)")


class TestOneTail:
    """``partial_zeta`` and ``zeta_tails`` both take their Euler-Maclaurin tail from ``series._em_tail``, so a
    fix to its terms or pricing reaches both; the direct sum below the switch does not use it."""

    @pytest.fixture
    def refused(self, monkeypatch):
        def refuse(*args):
            raise RuntimeError("_em_tail")
        monkeypatch.setattr(series_module, "_em_tail", refuse)

    @pytest.mark.parametrize("z", [complex(2.0), complex(2.2, 0.7), complex(3.0)])
    def test_partial_zeta_above_its_switch(self, refused, z):
        N = 10**5
        assert em_start(z, 1, N) <= N
        with pytest.raises(RuntimeError, match="_em_tail"):
            partial_zeta(z, 0.0, 1, N)

    def test_zeta_to_infinity(self, refused):
        with pytest.raises(RuntimeError, match="_em_tail"):
            partial_zeta(2.5, 0.0, 1, math.inf)

    def test_zeta_tails(self, refused):
        with pytest.raises(RuntimeError, match="_em_tail"):
            zeta_tails(np.array([2.0 + 0j, 2.0 + 1j]), 0.0, 24, 10**5)

    @pytest.mark.parametrize("z", [complex(2.0), complex(2.2, 0.7)])
    def test_partial_zeta_below_its_switch(self, refused, z):
        N = 500
        assert em_start(z, 1, N) == N + 1
        value, radius = partial_zeta(z, 0.0, 1, N)
        assert abs(value - complex(mpmath.zeta(z) - mpmath.zeta(z, N + 1))) <= radius


class TestShortRealHead:
    """``series.direct_sum`` forms up to FLOAT_TERMS plain powers at a real z by ``math.exp``: the same discs as the
    numpy path, priced at |z| on either side of 0, and numpy's inf where a term overflows a double."""

    @pytest.mark.parametrize("z", [-30.5, -3.0, -0.5, 0.0, 0.5, 2.0, 12.45, 700.0])
    @pytest.mark.parametrize("k", [1, 5, series_module.FLOAT_TERMS])
    def test_disc_holds_and_matches_numpy(self, monkeypatch, z, k):
        lam = series_module.log_table(k)
        value, radius, log_mass = series_module.direct_sum(lam, z)
        with mpmath.workdps(40):
            assert_in_disc(value, radius, mpmath.fsum(mpmath.mpf(n) ** -z for n in range(1, k + 1)), f"{z}, {k}")
        assert radius >= 0.0 and (radius > 0.0 or k == 1 and z == 0.0) and log_mass >= 0.0
        monkeypatch.setattr(series_module, "FLOAT_TERMS", 0)
        v, r, lm = series_module.direct_sum(lam, z)
        assert abs(v - value) <= radius + r and r <= 1.1 * radius + 1e-300 and radius <= 1.1 * r + 1e-300

    @pytest.mark.parametrize("z", [-800.0, -1e300])
    def test_an_overflowing_term_gives_numpys_inf(self, z):
        with np.errstate(over="ignore"):  # as the eval handler keeps numpy quiet
            value, radius = partial_zeta(z, 0.0, 1, 4)
        assert value == complex(math.inf) and radius == math.inf
