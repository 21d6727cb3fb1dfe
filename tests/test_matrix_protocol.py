"""Every matrix variant's vectorised protocol against entry()-loop references."""

import json
import math
import pathlib
import tracemalloc

import mpmath
import numpy as np
import pytest

from dskernel import (
    AdmissibleSupport,
    ArrowheadMatrix,
    BandedMatrix,
    CertificationError,
    DeflatedMatrix,
    DenseMatrix,
    DiagonalMatrix,
    RankOneMatrix,
    SequenceRule,
    SpecError,
)
from dskernel.homogeneous import translate_gram
from dskernel.io import load_matrix, load_series, load_span
from dskernel.series import CACHE_LIMIT, evaluate, rounding_radius
from dskernel.kernel import hermitian_part, schur_complements, support_pattern
from conftest import random_psd_dense

EPS = np.finfo(float).eps
S, U = 1.7 + 3.0j, 2.2 - 1.5j


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _arrowhead(rng) -> ArrowheadMatrix:
    # rules whose scalar and vectorised values agree bit for bit
    return ArrowheadMatrix(3, random_psd_dense(rng, 3) + 5.0 * np.eye(3),
                           SequenceRule("geometric", scale=0.5 + 0.25j, ratio=0.5),
                           SequenceRule("constant", scale=2.0))


def _banded(rng) -> BandedMatrix:
    A = _complex(rng, 30, 30)
    m, n = np.indices(A.shape)
    A[np.abs(m - n) > 2] = 0.0
    return BandedMatrix(2, A)


VARIANTS = {
    "dense": lambda rng: DenseMatrix(_complex(rng, 10, 10)),
    "banded": _banded,
    "diagonal_powers": lambda rng: DiagonalMatrix(SequenceRule("geometric", scale=1.5 - 0.5j, ratio=0.5),
                                                  support=AdmissibleSupport("powers", base=2)),
    "rank_one": lambda rng: RankOneMatrix(_complex(rng, 15)),
    "arrowhead_geometric": _arrowhead,
    "deflated_dense": lambda rng: DeflatedMatrix(DenseMatrix(random_psd_dense(rng, 12) + np.eye(12))),
    "deflated_arrowhead": lambda rng: DeflatedMatrix(_arrowhead(rng)),
}


def entry_section(matrix, N: int) -> np.ndarray:
    return np.array([[matrix.entry(m, n) for n in range(1, N + 1)] for m in range(1, N + 1)],
                    dtype=complex)


def section_tolerance(matrix, N: int) -> float:
    """0 where the vectorised code copies entries; a few ulps where it forms
    products (rank-one, deflation), which it may round differently from the
    scalar path (fused multiply-add, a reciprocal in place of a division)."""
    if isinstance(matrix, RankOneMatrix):
        return 4 * EPS * float(np.max(np.abs(matrix.fhat))) ** 2
    if isinstance(matrix, DeflatedMatrix):
        P = np.abs(entry_section(matrix.parent, N))
        return 4 * EPS * float(np.max(P + np.outer(P[:, 0], P[0, :]) / P[0, 0]))
    return 0.0


@pytest.mark.parametrize("N", [2, 24])
@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_sections_and_prefixes_match_entry_loop(name, N):
    matrix = VARIANTS[name](np.random.default_rng(11))
    ref = entry_section(matrix, N)
    tol = section_tolerance(matrix, N)
    np.testing.assert_allclose(matrix.truncation(N), ref, rtol=0, atol=tol)
    for i in range(1, N + 1):
        np.testing.assert_allclose(matrix.column_prefix(i, N), ref[:, i - 1], rtol=0, atol=tol)
        np.testing.assert_allclose(matrix.row_prefix(i, N), ref[i - 1, :], rtol=0, atol=tol)


def summed_masses(matrix, N: int, s: complex, u: complex) -> tuple[float, float]:
    """Absolute mass, and mass weighted by |s| log m + |u| log n, of the terms
    partial_sum adds: a deflated matrix sums its parent's section and the
    product of the parent's first column and row."""
    n = np.arange(1, N + 1, dtype=float)
    w = np.outer(n ** -s.real, n ** -u.real)
    lw = abs(s) * np.log(n)[:, None] + abs(u) * np.log(n)[None, :]
    A = np.abs(entry_section(matrix, N))
    if isinstance(matrix, DeflatedMatrix):
        P = np.abs(entry_section(matrix.parent, N))
        A = P + np.outer(P[:, 0], P[0, :]) / P[0, 0]
    return float(np.sum(A * w)), float(np.sum(A * w * lw))


def exact_section(matrix, N: int) -> list:
    """The N-section in mpmath from what the variant stores: the rank-one
    products and the deflation of the parent's section are formed exactly."""
    if isinstance(matrix, RankOneMatrix):
        f = [mpmath.mpc(complex(x)) for x in matrix.factor_prefix(N)]
        return [[fm * mpmath.conj(fn) for fn in f] for fm in f]
    if isinstance(matrix, DeflatedMatrix):
        P = exact_section(matrix.parent, N)
        return [[P[m][n] - P[m][0] * P[0][n] / P[0][0] for n in range(N)] for m in range(N)]
    return [[mpmath.mpc(matrix.entry(m, n)) for n in range(1, N + 1)] for m in range(1, N + 1)]


def exact_partial_sum(matrix, N: int, s: complex, u: complex):
    with mpmath.workdps(40):
        T = exact_section(matrix, N)
        ps = [mpmath.mpf(m) ** -mpmath.mpc(s) for m in range(1, N + 1)]
        pu = [mpmath.mpf(n) ** -mpmath.conj(mpmath.mpc(u)) for n in range(1, N + 1)]
        return mpmath.fsum(T[m][n] * ps[m] * pu[n] for m in range(N) for n in range(N))


@pytest.mark.parametrize("N", [2, 24])
@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_partial_sum_matches_entry_double_sum(name, N):
    matrix = VARIANTS[name](np.random.default_rng(12))
    value, rounding = matrix.partial_sum(S, U, N)
    ref_value, ref_mass = 0j, 0.0
    for m in range(1, N + 1):
        for n in range(1, N + 1):
            a = matrix.entry(m, n)
            ref_value += a * float(m) ** (-S) * float(n) ** (-U.conjugate())
            ref_mass += abs(a) * float(m) ** (-S.real) * float(n) ** (-U.real)
    mass, log_mass = summed_masses(matrix, N, S, U)
    assert abs(value - ref_value) <= 4 * N * EPS * mass
    # the rounding is priced on at least the absolute mass of the terms summed, each
    # term at its own log m and log n, and at least one rounding per component; the
    # rank-one and deflated sums multiply balls of single sums, which could price
    # below this were a factor to cancel, and do not at this point
    assert mass >= ref_mass * (1 - 4 * N * EPS)
    assert rounding >= rounding_radius(mass, log_mass, 1) * (1 - 4 * N * EPS)
    for s, u in ((S, U), (1e300 + 0j, U)):
        value, rounding = matrix.partial_sum(s, u, N)
        assert abs(mpmath.mpc(value) - exact_partial_sum(matrix, N, s, u)) <= rounding, (s, u)


PATTERN_VARIANTS = {
    **VARIANTS,
    "diagonal_power": lambda rng: DiagonalMatrix(SequenceRule("power", scale=0.5, exponent=-0.5)),
    "diagonal_explicit": lambda rng: DiagonalMatrix(SequenceRule("explicit", values=(1.0, 0.0, 1e-3, 2.0))),
    "arrowhead_power": lambda rng: ArrowheadMatrix(4, random_psd_dense(rng, 4),
                                                   SequenceRule("power", scale=0.3, exponent=-0.8),
                                                   SequenceRule("power", scale=1.0, exponent=0.5)),
    "arrowhead_constant": lambda rng: ArrowheadMatrix(2, np.array([[1.0, 0.0], [0.0, 1e-3]]),
                                                      SequenceRule("constant", scale=0.2),
                                                      SequenceRule("constant", scale=1.0)),
    "arrowhead_finite": lambda rng: ArrowheadMatrix(3, np.array([[2.0, 0.0, 0.5j], [0.0, 0.0, 0.0], [-0.5j, 0.0, 1.0]]),
                                                    SequenceRule("explicit", values=(0.3, 0.0, 1e-3 + 0.2j, 0.4)),
                                                    SequenceRule("explicit", values=(1.0, 0.5, 2.0))),
}


@pytest.mark.parametrize("N", [1, 2, 3, 24, 200])
@pytest.mark.parametrize("name", sorted(PATTERN_VARIANTS))
def test_support_pattern_matches_the_truncation(name, N):
    matrix = PATTERN_VARIANTS[name](np.random.default_rng(14))
    T = matrix.truncation(N)
    ref_m, ref_n = np.nonzero(T)
    m, n, values = matrix.nonzero_entries(N)
    assert np.array_equal(m, ref_m + 1) and np.array_equal(n, ref_n + 1), (name, N)
    assert np.array_equal(values, T[ref_m, ref_n]), (name, N)
    for tol in (0.0, 1e-12, 0.01, 0.25, 1.0):
        ref_m, ref_n = np.nonzero(np.abs(T) > tol)
        m, n, values = support_pattern(matrix, N, tol)
        assert np.array_equal(m, ref_m + 1) and np.array_equal(n, ref_n + 1), (name, N, tol)
        assert np.array_equal(values, T[ref_m, ref_n]), (name, N, tol)


@pytest.mark.parametrize("name", ["rank_one_2.json", "deflated"])
def test_a_finite_support_stops_its_view_at_its_order(name):
    """The base-class view of a finite support reads its order-section, not the N-section: at N = 20,000 that
    would be 6.4 GB; the two-entry rank-one sample took 61 MiB at N = 2,000."""
    if name == "deflated":
        matrix = DeflatedMatrix(DenseMatrix(random_psd_dense(np.random.default_rng(3), 5)))
    else:
        matrix = load_matrix(pathlib.Path(__file__).resolve().parent.parent / "sample_inputs" / name)[0]
    T = matrix.truncation(matrix.order)
    ref_m, ref_n = np.nonzero(T)
    tracemalloc.start()
    try:
        m, n, values = matrix.nonzero_entries(20000)
        m_tol, n_tol, values_tol = support_pattern(matrix, 20000, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert np.array_equal(m, ref_m + 1) and np.array_equal(n, ref_n + 1) and np.array_equal(values, T[ref_m, ref_n])
    assert np.array_equal(m_tol, m) and np.array_equal(n_tol, n) and np.array_equal(values_tol, values)


def _schur_reference(m: ArrowheadMatrix, orders: list, eps: float = 0.0) -> list:
    """The per-rung loop the cumulative sum replaced."""
    h = 0.5 * (m.head + m.head.conj().T)
    out = []
    for N in orders:
        partial = 0.0
        for l in range(1, max(0, N - m.k) + 1):
            d = m.tail_value(m.k + l)
            if d <= 0:
                raise CertificationError("tail entry not positive in truncation")
            partial += abs(m.coupling_value(m.k + l)) ** 2 / (d + eps)
        out.append(float(np.linalg.eigvalsh(h + eps * np.eye(m.k) - partial * np.ones((m.k, m.k)))[0]))
    return out


def _schur_complements(m: ArrowheadMatrix, orders: list, eps: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    n = max(orders)
    return schur_complements(hermitian_part(m.head), m.coupling_prefix(n), m.tail_prefix(n), orders, eps)


def test_schur_min_eigs_match_per_rung_loop():
    m = _arrowhead(np.random.default_rng(13))
    orders = [2, 3, 4, 8, 16, 64, 100]
    for eps in (0.0, 1e-3):
        minima = np.linalg.eigvalsh(_schur_complements(m, orders, eps)[0])[:, 0]
        assert [float(w) for w in minima] == _schur_reference(m, orders, eps)
    # an explicit tail shorter than the section: its entries beyond the list
    # are 0, under a nonzero coupling, so the complement is unbounded below
    bad = ArrowheadMatrix(m.k, m.head, m.coupling, SequenceRule("explicit", values=(2.0,) * 2))
    with pytest.raises(CertificationError):
        _schur_reference(bad, orders)
    sigma = _schur_complements(bad, orders)[1]
    assert [math.isinf(s) for s in sigma] == [N > m.k + 2 for N in orders]
    assert np.all(np.isfinite(_schur_complements(bad, orders, 1e-3)[1]))


AGREEMENT_N = 400


def _power_arrowhead(rng) -> ArrowheadMatrix:
    """k = 2, coupling 0.45 l**-0.55 and tail 1.37**l: 36 of its 400 columns and rows left truncation(400) when
    a rule's scalar value took Python's pow and its prefix numpy's."""
    return ArrowheadMatrix(2, random_psd_dense(rng, 2) + 4.0 * np.eye(2),
                           SequenceRule("power", scale=0.45, exponent=-0.55), SequenceRule("geometric", ratio=1.37))


AGREEMENT_VARIANTS = {
    "diagonal_constant": lambda rng: DiagonalMatrix(SequenceRule("constant", scale=1.5 - 0.5j)),
    "diagonal_geometric": lambda rng: DiagonalMatrix(SequenceRule("geometric", scale=0.7 + 0.2j, ratio=0.993)),
    "diagonal_power": lambda rng: DiagonalMatrix(SequenceRule("power", scale=1.0, exponent=-0.37)),
    "diagonal_explicit": lambda rng: DiagonalMatrix(SequenceRule("explicit", values=tuple(_complex(rng, 300)))),
    "diagonal_masked": lambda rng: DiagonalMatrix(SequenceRule("power", scale=2.0, exponent=0.61),
                                                  support=AdmissibleSupport("generated", generators=(2, 3, 7))),
    "arrowhead_power": _power_arrowhead,
    "arrowhead_geometric": lambda rng: ArrowheadMatrix(3, random_psd_dense(rng, 3) + 5.0 * np.eye(3),
                                                       SequenceRule("geometric", scale=0.5 + 0.25j, ratio=0.991),
                                                       SequenceRule("power", scale=2.0, exponent=0.83)),
    "arrowhead_explicit": lambda rng: ArrowheadMatrix(2, random_psd_dense(rng, 2) + 3.0 * np.eye(2),
                                                      SequenceRule("explicit", values=tuple(_complex(rng, 250))),
                                                      SequenceRule("explicit", values=tuple(rng.uniform(1, 9, 390)))),
    "rank_one": lambda rng: RankOneMatrix(_complex(rng, AGREEMENT_N)),
    "dense": lambda rng: DenseMatrix(_complex(rng, AGREEMENT_N, AGREEMENT_N)),
    "deflated_arrowhead": lambda rng: DeflatedMatrix(_power_arrowhead(rng)),
}


@pytest.mark.parametrize("name", sorted(AGREEMENT_VARIANTS))
def test_every_accessor_agrees_with_the_section(name):
    """entry, column_prefix, row_prefix and the scatter of nonzero_entries equal truncation(400) bit for bit.

    The entries are read first, on fresh rules, so a rule's value at l is formed before any prefix is held."""
    matrix, N = AGREEMENT_VARIANTS[name](np.random.default_rng(15)), AGREEMENT_N
    entries = np.array([[matrix.entry(m, n) for n in range(1, 61)] for m in range(1, 61)], dtype=complex)
    T = matrix.truncation(N)
    assert np.array_equal(entries, T[:60, :60])
    assert np.array_equal(np.array([matrix.column_prefix(n, N) for n in range(1, N + 1)]).T, T)
    assert np.array_equal(np.array([matrix.row_prefix(m, N) for m in range(1, N + 1)]), T)
    m, n, values = matrix.nonzero_entries(N)
    scattered = np.zeros_like(T)
    scattered[m - 1, n - 1] = values
    assert np.array_equal(scattered, T)


def prefix_section(matrix, N: int) -> np.ndarray:
    """The N-section built from the prefixes by the formulas that each variant once spelled out as its own
    ``truncation``: np.diag of the diagonal, and the arrowhead's head block, coupling strips and tail diagonal."""
    if isinstance(matrix, DiagonalMatrix):
        return np.diag(matrix.diagonal_prefix(N))
    k = matrix.k
    out = np.zeros((N, N), dtype=complex)
    kk = min(k, N)
    out[:kk, :kk] = matrix.head[:kk, :kk]
    if N > k:
        out[:k, k:] = matrix.coupling_prefix(N)
        out[k:, :k] = np.conj(out[:k, k:]).T
        t = np.arange(k, N)
        out[t, t] = matrix.tail_prefix(N)
    return out


#: every diagonal and arrowhead of the two tables above
PREFIX_VARIANTS = {f"{group}_{name}": make
                   for group, table in (("pattern", PATTERN_VARIANTS), ("agreement", AGREEMENT_VARIANTS))
                   for name, make in table.items() if name.startswith(("diagonal", "arrowhead"))}


@pytest.mark.parametrize("N", [1, 2, 3, 24, 200])
@pytest.mark.parametrize("name", sorted(PREFIX_VARIANTS))
def test_the_scattered_view_is_the_prefix_section(name, N):
    """A diagonal's or an arrowhead's section is the scatter of its coordinate view; it equals the section formed
    from the prefixes bit for bit, up to the sign of a zero entry: the view holds no zero."""
    matrix = PREFIX_VARIANTS[name](np.random.default_rng(18))
    assert np.array_equal(matrix.truncation(N), prefix_section(matrix, N))


AGREEMENT_RULES = {
    "constant": SequenceRule("constant", scale=0.3 - 1.1j),
    "geometric": SequenceRule("geometric", scale=2.5, ratio=1.00003),
    "power": SequenceRule("power", scale=0.45, exponent=-0.55),
    "explicit": SequenceRule("explicit", values=tuple(complex(v, -v) for v in np.linspace(0.1, 9, CACHE_LIMIT + 500))),
}


@pytest.mark.parametrize("kind", sorted(AGREEMENT_RULES))
def test_value_agrees_with_prefix_within_and_beyond_the_memo(kind):
    """value(l) == prefix(n)[l - 1] on a fresh rule, then on one whose memo covers l, and past CACHE_LIMIT,
    where no prefix is kept."""
    rule = AGREEMENT_RULES[kind]
    ls = np.random.default_rng(16).integers(1, CACHE_LIMIT + 1, 200).tolist()
    deep = np.random.default_rng(17).integers(CACHE_LIMIT + 1, CACHE_LIMIT + 1000, 200).tolist()
    fresh = SequenceRule(rule.kind, rule.scale, rule.ratio, rule.exponent, rule.values)
    before = [fresh.value(l) for l in ls]
    held = fresh.prefix(CACHE_LIMIT)
    assert before == held[np.array(ls) - 1].tolist() == [fresh.value(l) for l in ls]
    beyond = fresh.prefix(CACHE_LIMIT + 1000)
    assert [fresh.value(l) for l in deep] == beyond[np.array(deep) - 1].tolist()


def test_an_explicit_rule_holds_its_values_once():
    """Past the memo's CACHE_LIMIT a prefix of an explicit rule is a view of the one array formed when the rule
    is made, not a new conversion of the tuple; a prefix past the list is zero beyond it."""
    values = tuple(np.linspace(0.5, 2.0, 10**5))
    rule = SequenceRule("explicit", values=values)
    first, second = rule.prefix(10**5), rule.prefix(10**5)
    assert 10**5 > CACHE_LIMIT and np.shares_memory(first, second) and not first.flags.writeable
    assert np.array_equal(first, np.array(values, dtype=complex))
    longer = rule.prefix(10**5 + 3)
    assert np.array_equal(longer[: 10**5], first) and not np.any(longer[10**5 :])
    assert [rule.value(l) for l in (1, 77_777, 10**5, 10**5 + 1)] == [*first[[0, 77_776, 10**5 - 1]].tolist(), 0j]


class TestRuleFiniteness:
    def test_scalar_overflow_names_index(self):
        with pytest.raises(SpecError, match="index 1100"):
            SequenceRule("geometric", ratio=2.0).value(1100)

    def test_prefix_names_first_non_finite_index(self):
        with pytest.raises(SpecError, match="index 1024"):
            SequenceRule("geometric", ratio=2.0).prefix(1100)
        with pytest.raises(SpecError, match="index 2"):
            SequenceRule("explicit", values=(1.0, float("nan"))).prefix(3)


class TestDirectSumLedger:
    """``golden/radii/direct_sum_radii.json`` holds the (value, radius) that the code at commit a0b326a, which
    priced every term of a direct sum at the largest log n of its sum, gave for ``partial_sum`` of every
    PATTERN_VARIANTS entry (built from ``default_rng(12)``) at N = 2, 24 and 200 and three points, for
    ``evaluate`` on finite, general-exponent and rule-backed series, and for ``translate_gram`` on the
    ``homog --span`` sample and three masked or finite spans.  No radius may grow past 1.1 times its ledger
    entry, and each value lies within both radii of the ledger's."""

    LEDGER = json.loads((pathlib.Path(__file__).parent / "golden" / "radii" / "direct_sum_radii.json").read_text())

    def test_partial_sum(self):
        rows = self.LEDGER["partial_sum"]
        assert {row["variant"] for row in rows} == set(PATTERN_VARIANTS) and {row["N"] for row in rows} == {2, 24, 200}
        for row in rows:
            matrix = PATTERN_VARIANTS[row["variant"]](np.random.default_rng(12))
            value, radius = matrix.partial_sum(complex(*row["s"]), complex(*row["u"]), row["N"])
            assert radius <= 1.1 * row["radius"], row
            assert abs(value - complex(*row["value"])) <= radius + row["radius"], row

    def test_evaluate(self):
        for row in self.LEDGER["evaluate"]:
            vb = evaluate(load_series(self.LEDGER["series"][row["series"]]), complex(*row["s"]), row["order"])
            assert vb.error_radius <= 1.1 * row["radius"], row
            assert abs(vb.value - complex(*row["value"])) <= vb.error_radius + row["radius"], row

    def test_translate_gram(self):
        for row in self.LEDGER["translate_gram"]:
            gram = translate_gram(load_span(row["span"]))
            before = np.array([[complex(*x) for x in r] for r in row["matrix"]])
            assert gram.entry_radius <= 1.1 * row["radius"], row["span"]
            assert np.all(np.abs(gram.matrix - before) <= gram.entry_radius + row["radius"]), row["span"]
