"""Ladder rungs above order 256 decided from the structure of arrowhead, rank-one and diagonal matrices.

Every seeded case at orders 257-2048 is compared with the test-side eigen
ladder on the dense section: the same verdict and witness order, a witness
that verifies on the dense section, and a value at every passing rung that
is no larger than the section's least eigenvalue.  No section above order
256 is built for these variants, and at the rungs up to 256 the structure
cross-checks the eigen ladder: a planted disagreement is an internal error.
"""

import json
import math
import pathlib

import numpy as np
import pytest

import dskernel.kernel as kernel
from dskernel import (
    ArrowheadMatrix,
    DiagonalMatrix,
    HermitianError,
    InternalCheckError,
    RankOneMatrix,
    SequenceRule,
    SpecError,
    certify_psd,
    psd_check,
    self_adjoint_check,
)
from dskernel.cli import main
from dskernel.kernel import EIGEN_LADDER_MAX, eigensolve_rounding, hermitian_section, psd_ladder_orders
from dskernel.matrices import SectionStructure
from test_verified_cholesky import cplx, ladder_cutoff

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "sample_inputs"
TOL = 1e-9

#: coupling and tail rules by name; each tail is positive and moves the sums at every order up to 2048
RULES = {
    "power": (SequenceRule("power", scale=0.45, exponent=-0.55), SequenceRule("power", scale=1.0, exponent=0.45)),
    "complex_power": (SequenceRule("power", scale=0.3 + 0.35j, exponent=-0.5),
                      SequenceRule("power", scale=2.0, exponent=0.3)),
    "geometric": (SequenceRule("geometric", scale=0.5, ratio=0.997), SequenceRule("geometric", scale=1.0, ratio=1.001)),
    "constant": (SequenceRule("constant", scale=0.05), SequenceRule("constant", scale=2.0)),
    "explicit_short": (SequenceRule("explicit", values=tuple(0.2 / np.sqrt(np.arange(1.0, 601.0)))),
                       SequenceRule("explicit", values=tuple(np.linspace(1.0, 3.0, 800)))),
}


def coupling_sums(c_rule, d_rule, n: int) -> np.ndarray:
    """S_j = sum_{l <= j} |c_l|**2 / d_l for j = 0..n, where a zero tail entry comes with a zero coupling."""
    c, d = c_rule.prefix(n), d_rule.prefix(n).real
    terms = np.divide(np.abs(c) ** 2, d, out=np.zeros(n), where=np.abs(c) > 0)
    return np.concatenate([[0.0], np.cumsum(terms)])


def arrowhead(seed: int, k: int, rules: str, n: int, fail_rung, complex_head: bool) -> ArrowheadMatrix:
    """Head with its least eigenvalue lam0 on the all-ones direction, so the order-N complement's is lam0 - k S_{N-k}.

    With fail_rung, lam0 lies halfway between that value at the rung before
    it and at it, so that rung fails first; without, lam0 clears k S_{n-k}.
    """
    rng = np.random.default_rng(seed)
    c_rule, d_rule = RULES[rules]
    S = coupling_sums(c_rule, d_rule, n - k)
    if fail_rung is None:
        lam0 = 1.5 * k * S[n - k] + 0.01
    else:
        orders = psd_ladder_orders(n)
        before = orders[orders.index(fail_rung) - 1]
        lam0 = k * 0.5 * (S[before - k] + S[fail_rung - k])
    X = cplx(rng, k, k) if complex_head else rng.standard_normal((k, k))
    X[:, 0] = 1.0
    Q, _ = np.linalg.qr(X)
    lam = np.concatenate([[lam0], lam0 + rng.uniform(0.5, 2.0, k - 1)])
    head = (Q * lam) @ Q.conj().T
    return ArrowheadMatrix(k, 0.5 * (head + head.conj().T), c_rule, d_rule)


def diagonal(seed: int, n: int, j: int, value: float) -> DiagonalMatrix:
    """Entries in [0.5, 3] (complex with a zero imaginary part when seed is odd) and d_j = value."""
    d = np.random.default_rng(seed).uniform(0.5, 3.0, n).astype(complex if seed % 2 else float)
    d[j - 1] = value
    return DiagonalMatrix(SequenceRule("explicit", values=tuple(d)))


def rank_one(seed: int, length: int) -> RankOneMatrix:
    return RankOneMatrix(cplx(np.random.default_rng(seed), length) / 4.0)


#: name -> (matrix, max_order); failing rungs in the middle and at the top of the ladder
CASES = {
    "arrow_k1_power_psd_300": lambda: (arrowhead(1, 1, "power", 300, None, False), 300),
    "arrow_k1_constant_top_300": lambda: (arrowhead(2, 1, "constant", 300, 300, False), 300),
    "arrow_k2_complex_power_middle_1100": lambda: (arrowhead(3, 2, "complex_power", 1100, 512, True), 1100),
    "arrow_k2_geometric_top_700": lambda: (arrowhead(4, 2, "geometric", 700, 700, False), 700),
    "arrow_k4_power_top_1500": lambda: (arrowhead(5, 4, "power", 1500, 1500, False), 1500),
    "arrow_k4_geometric_psd_1024": lambda: (arrowhead(6, 4, "geometric", 1024, None, True), 1024),
    "arrow_k4_constant_middle_2048": lambda: (arrowhead(7, 4, "constant", 2048, 1024, False), 2048),
    "arrow_k7_explicit_short_psd_900": lambda: (arrowhead(8, 7, "explicit_short", 900, None, True), 900),
    "arrow_k7_explicit_short_middle_900": lambda: (arrowhead(9, 7, "explicit_short", 900, 512, False), 900),
    "arrow_k7_complex_power_psd_600": lambda: (arrowhead(10, 7, "complex_power", 600, None, True), 600),
    "rank_one_700": lambda: (rank_one(11, 700), 700),
    "rank_one_zero_padded_1100": lambda: (rank_one(12, 400), 1100),
    "diagonal_psd_1300": lambda: (diagonal(13, 1300, 700, 0.0), 1300),
    "diagonal_middle_1300": lambda: (diagonal(14, 1300, 700, -0.25), 1300),
    "diagonal_top_2048": lambda: (diagonal(16, 2048, 1500, -1e-3), 2048),
}

def spy_truncations(monkeypatch, cls) -> list:
    orders, real = [], cls.truncation

    def spy(self, N):
        orders.append(N)
        return real(self, N)

    monkeypatch.setattr(cls, "truncation", spy)
    return orders


def assert_matches_the_dense_ladder(matrix, n: int, cert) -> None:
    """Verdict and witness order of the eigen ladder on the dense section; a verified witness; values below lambda_min."""
    S = hermitian_section(matrix, n)
    if not np.any(S.imag):
        S = np.ascontiguousarray(S.real)
    failed = None
    for N, value in zip(cert.orders, cert.min_eigenvalues):
        w = np.linalg.eigvalsh(S[:N, :N])
        if w[0] < -TOL * (1.0 + np.max(np.abs(w))):
            failed = N
            break
        if N > EIGEN_LADDER_MAX:  # a passing rung reports at most its lambda_min
            assert value <= w[0] + eigensolve_rounding(N, np.max(np.abs(w))), (N, value, w[0])
    assert (cert.verdict, cert.witness_order) == ("psd" if failed is None else "not_psd", failed)
    if failed is None:
        return
    x = cert.witness_vector
    assert x.shape == (failed,) and abs(np.linalg.norm(x) - 1.0) < 1e-12
    j = int(np.argmax(np.abs(x)))
    assert x[j].real > 0 and abs(x[j].imag) <= 1e-15 * x[j].real
    quotient = float(np.vdot(x, S[:failed, :failed] @ x).real)
    assert quotient < -ladder_cutoff(S, failed, TOL)
    for M, value in zip(cert.orders, cert.min_eigenvalues):
        if M >= failed and failed > EIGEN_LADDER_MAX:
            assert value == pytest.approx(quotient, rel=1e-9, abs=1e-15)


class TestSweep:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_same_verdict_and_witness_order_as_the_dense_ladder(self, monkeypatch, name):
        matrix, n = CASES[name]()
        seen = spy_truncations(monkeypatch, type(matrix))
        cert = certify_psd(matrix, n) if isinstance(matrix, ArrowheadMatrix) else psd_check(matrix, n)
        assert seen and max(seen) <= EIGEN_LADDER_MAX  # no section above 256 is built
        monkeypatch.undo()
        assert f"eigenvalue-ladder + {matrix.psd_structure(n).kind}" in cert.method
        assert_matches_the_dense_ladder(matrix, n, cert)

    def test_the_planted_witness_orders(self):
        expected = {"arrow_k1_constant_top_300": 300, "arrow_k2_complex_power_middle_1100": 512,
                    "arrow_k2_geometric_top_700": 700, "arrow_k4_power_top_1500": 1500,
                    "arrow_k4_constant_middle_2048": 1024, "arrow_k7_explicit_short_middle_900": 512,
                    "diagonal_middle_1300": 1024, "diagonal_top_2048": 2048}
        for name, order in expected.items():
            matrix, n = CASES[name]()
            assert psd_check(matrix, n).witness_order == order, name

    def test_the_diagonal_witness_is_the_unit_vector_of_the_least_entry(self):
        matrix, n = CASES["diagonal_middle_1300"]()
        cert = psd_check(matrix, n)
        x = np.zeros(1024, dtype=complex)
        x[699] = 1.0
        assert np.array_equal(cert.witness_vector, x)
        assert cert.min_eigenvalues[-2:] == (-0.25, -0.25)

    def test_rank_one_rungs_are_exactly_zero(self):
        matrix, n = CASES["rank_one_zero_padded_1100"]()
        cert = psd_check(matrix, n)
        assert cert.is_psd and cert.min_eigenvalues[-3:] == (0.0, 0.0, 0.0)


class TestUndecidedRungs:
    def test_an_undecided_rung_is_eigen_solved_on_its_own_section(self, monkeypatch):
        # with the Schur test switched off every rung above 256 is undecided:
        # each has its own section built and eigen-solved, and the verdicts stand
        matrix, n = CASES["arrow_k2_complex_power_middle_1100"]()
        monkeypatch.setattr(kernel, "_schur_rung", lambda *args: (-math.inf, math.inf, None))
        seen = spy_truncations(monkeypatch, ArrowheadMatrix)
        cert = psd_check(matrix, n)
        assert seen == [EIGEN_LADDER_MAX, 512]  # the failing rung 512 ends the ladder
        monkeypatch.undo()
        assert_matches_the_dense_ladder(matrix, n, cert)

    def test_a_structural_witness_that_does_not_verify_leaves_the_eigen_verdict(self, monkeypatch):
        matrix, n = CASES["arrow_k4_power_top_1500"]()
        monkeypatch.setattr(kernel, "_arrowhead_rayleigh", lambda *args: math.inf)
        cert = psd_check(matrix, n)
        assert cert.witness_order == 1500
        monkeypatch.undo()
        assert_matches_the_dense_ladder(matrix, n, cert)


class TestCrossCheck:
    """At the rungs up to 256 the structure's enclosure of lambda_min must hold the eigen ladder's value."""

    def test_a_planted_disagreement_is_an_internal_error(self, monkeypatch):
        real = ArrowheadMatrix.psd_structure

        def lifted(self, N):  # a head 5 I above the stored one: the structure passes rungs that fail
            form = real(self, N)
            return SectionStructure(form.kind, form.head + 5.0 * np.eye(self.k), form.vector, form.diagonal)

        monkeypatch.setattr(ArrowheadMatrix, "psd_structure", lifted)
        with pytest.raises(InternalCheckError, match="enclosure its structure certifies"):
            psd_check(arrowhead(5, 4, "power", 1500, 128, True), 1500)  # fails at 128

    def test_a_planted_disagreement_exits_3(self, monkeypatch, capsys):
        real = DiagonalMatrix.psd_structure

        def lifted(self, N):  # diag(2) for the sample's diag(1)
            form = real(self, N)
            return SectionStructure(form.kind, form.head, form.vector, form.diagonal + 1.0)

        monkeypatch.setattr(DiagonalMatrix, "psd_structure", lifted)
        code = main(["psd", "--matrix", str(SAMPLES / "diag_ones.json"), "--max-order", "600"])
        report = json.loads(capsys.readouterr().out)
        assert code == 3 and report["error"]["kind"] == "InternalCheckError"

    def test_noise_rungs_of_the_graded_sample_agree(self):
        # the sample arrowhead's eigen rungs at 32-256 are rounding noise of
        # order 1e137, within the eigen-solver's rounding of its 4**254 tail
        m = ArrowheadMatrix(2, np.array([[0.5, 1 / math.sqrt(6)], [1 / math.sqrt(6), 2 / 3]]),
                            SequenceRule("constant", scale=1.0), SequenceRule("geometric", scale=1.0, ratio=4.0))
        assert psd_check(m, 256).is_psd


def section_verdict(matrix, n: int) -> bool:
    """``hermitian_part``'s rule applied to the dense order-n section."""
    try:
        kernel.hermitian_part(matrix.truncation(n))
    except HermitianError:
        return False
    return True


def nudged_arrowhead(k: int, i: int, j: int, nudge: complex) -> ArrowheadMatrix:
    """2 I + 0.1 off the diagonal, with nudge added to head[i, j], over a power coupling and tail."""
    head = 2.0 * np.eye(k) + 0.1 * (1.0 - np.eye(k)) + 0j
    head[i, j] += nudge
    return ArrowheadMatrix(k, head, SequenceRule("power", scale=0.1, exponent=-1.0),
                           SequenceRule("power", scale=1.0, exponent=0.6))


def nudged_diagonal(n: int, j: int, nudge: complex) -> DiagonalMatrix:
    d = np.ones(n, dtype=complex)
    d[j] += nudge
    return DiagonalMatrix(SequenceRule("explicit", values=tuple(d)))


#: name -> (matrix, order, expected verdict); each is judged both from its structure and on its section
SELF_ADJOINT_CASES = {
    "head_off_by_5e-9_at_300": lambda: (nudged_arrowhead(2, 0, 1, 5e-9), 300, False),
    "head_off_by_5e-9_at_2048": lambda: (nudged_arrowhead(2, 0, 1, 5e-9), 2048, True),
    "complex_head_diagonal": lambda: (nudged_arrowhead(3, 1, 1, 1e-6j), 500, False),
    "hermitian_complex_head": lambda: (arrowhead(32, 2, "complex_power", 700, None, True), 700, True),
    "below_k_off_outside_the_section": lambda: (nudged_arrowhead(4, 3, 0, 1e-3), 3, True),
    "below_k_off_inside_the_section": lambda: (nudged_arrowhead(4, 1, 0, 1e-3), 3, False),
    "at_k_off": lambda: (nudged_arrowhead(4, 3, 0, 1e-3), 4, False),
    "complex_diagonal_entry": lambda: (nudged_diagonal(400, 350, 1e-6j), 400, False),
    "complex_diagonal_entry_beyond_the_order": lambda: (nudged_diagonal(400, 350, 1e-6j), 300, True),
    "complex_diagonal_entry_within_the_rule": lambda: (nudged_diagonal(400, 350, 1e-11j), 400, True),
    "rank_one_complex": lambda: (rank_one(30, 700), 700, True),
    "rank_one_zero_padded": lambda: (rank_one(31, 400), 1100, True),
}


class TestSelfAdjointCheck:
    @pytest.mark.parametrize("name", sorted(SELF_ADJOINT_CASES))
    def test_the_structure_judges_as_the_section_does(self, monkeypatch, name):
        matrix, n, expected = SELF_ADJOINT_CASES[name]()
        assert section_verdict(matrix, n) is expected
        seen = spy_truncations(monkeypatch, type(matrix))
        assert self_adjoint_check(matrix, n) is expected
        assert seen == ([] if matrix.psd_structure(n) is not None else [n])  # no section where a structure decides


class TestInputs:
    def test_self_adjointness_is_judged_at_max_order_from_the_prefixes(self):
        # a head off by 5e-9 from Hermitian: outside the rule at order 300,
        # whose largest entry is about 30, inside it at 2048, about 97
        head = np.array([[2.0, 0.1 + 5e-9], [0.1, 2.0]])
        m = ArrowheadMatrix(2, head, SequenceRule("power", scale=0.1, exponent=-1.0),
                            SequenceRule("power", scale=1.0, exponent=0.6))
        for n, ok in ((300, False), (2048, True)):
            assert self_adjoint_check(m, n) is ok
            if ok:
                assert psd_check(m, n).is_psd
            else:
                with pytest.raises(HermitianError):
                    psd_check(m, n)

    def test_a_complex_diagonal_is_refused(self):
        d = np.ones(400, dtype=complex)
        d[350] = 1.0 + 1e-6j
        with pytest.raises(HermitianError):
            psd_check(DiagonalMatrix(SequenceRule("explicit", values=tuple(d))), 400)

    @pytest.mark.parametrize("k", [1, 2, 4, 7])
    def test_max_order_equal_to_k(self, k):
        # the order-k section is the head alone: empty coupling and tail prefixes
        matrix = arrowhead(20 + k, k, "power", 300, None, k % 2 == 0)
        for cert in (psd_check(matrix, k), certify_psd(matrix, k)):
            assert cert.orders[-1] == k and cert.is_psd
            assert_matches_the_dense_ladder(matrix, k, cert)

    @pytest.mark.parametrize("k, path", [(1, None), (2, SAMPLES / "example_arrowhead.json")])
    def test_the_cli_at_max_order_k(self, tmp_path, capsys, k, path):
        if path is None:
            path = tmp_path / "arrow_k1.json"
            path.write_text(json.dumps({"variant": "arrowhead", "k": 1, "head": [[2.0]],
                                        "c_rule": {"kind": "constant", "value": 0.5},
                                        "d_rule": {"kind": "geometric", "scale": 1, "ratio": 4}}))
        code = main(["psd", "--matrix", str(path), "--max-order", str(k)])
        results = json.loads(capsys.readouterr().out)["results"]
        head = np.array(json.loads(path.read_text())["head"])
        assert code == 0 and results["verdict"] == "psd" and results["orders"][-1] == k
        assert results["min_eigenvalues"][-1] == pytest.approx(np.linalg.eigvalsh(head)[0], rel=1e-12)

    def test_a_non_finite_tail_prefix_is_a_spec_error(self, capsys):
        m = ArrowheadMatrix(1, np.eye(1), SequenceRule("constant", scale=1.0),
                            SequenceRule("geometric", scale=1.0, ratio=4.0))
        with pytest.raises(SpecError, match="not a finite double"):
            psd_check(m, 600)
        code = main(["psd", "--matrix", str(SAMPLES / "example_arrowhead.json"), "--max-order", "600"])
        assert code == 2 and json.loads(capsys.readouterr().out)["error"]["kind"] == "SpecError"
