"""Known defects, pinned as strict expected failures.

Each test states the right answer and fails today in the way its ``raises=``
names, under tier 1's warning filters.  A change that mends a defect makes
its test pass, which a strict xfail reports as a failure: that change must
turn the test into a plain one.  The reasons name the ROADMAP item that
plans each fix.
"""

import numpy as np
import pytest

from dskernel import (
    ArrowheadMatrix,
    CertificationError,
    CollisionError,
    DenseMatrix,
    DirichletKernel,
    GeneralDirichletSeries,
    HalfPlane,
    SequenceRule,
    linear_invariance_test,
    multiply_merged,
    psd_check,
    translation_invariance_test,
)
from dskernel.cli import main
from conftest import SRC

SAMPLES = SRC.parent / "sample_inputs"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: the cutoff tol (1 + |S_N|) grows with 4**N and swallows the negative "
                          "Schur complement (-0.27 at order 128), so the ladder says psd")
def test_graded_arrowhead_is_not_psd():
    graded = ArrowheadMatrix(1, np.array([[1.0]]), SequenceRule("geometric", scale=0.1, ratio=2.0),
                             SequenceRule("geometric", scale=1.0, ratio=4.0))
    assert psd_check(graded, 300).verdict == "not_psd"


@pytest.mark.xfail(strict=True, raises=CertificationError,
                   reason="ROADMAP item 1: the cutoff of a section whose norm overflows is inf, so the ladder "
                          "refuses it ('PSD cutoff inf') instead of answering not_psd")
def test_overflowing_dense_matrix_is_not_psd():
    assert psd_check(DenseMatrix(np.array([[1e308, 1.5e308], [1.5e308, 1e308]])), 2).verdict == "not_psd"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: the arrowhead's tail 4**l overflows a double at l = 512, so a ladder "
                          "past order 513 is refused with exit 2 ('rule value at index 512')")
@pytest.mark.parametrize("argv", [
    ["psd", "--matrix", str(SAMPLES / "example_arrowhead.json"), "--max-order", "514"],
    ["sk", "--example", "--max-order", "600"],
], ids=["psd-514", "sk-600"])
def test_arrowhead_ladder_past_the_overflow_of_its_tail(capsys, argv):
    assert main(argv) == 0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 16: the relative guard of 1e-12 refuses nu(117,809) ~ nu(397,341), whose "
                          "true gap is -2.59e-12, with exit 2")
def test_merge_resolves_a_gap_that_doubles_resolve(capsys):
    assert main(["merge", "--omega", "sqrt2", "--m-max", "1000", "--n-max", "1000"]) == 0


@pytest.mark.xfail(strict=True, raises=CollisionError,
                   reason="ROADMAP item 16: exponents of an ordinary product that collide exactly (log 2 + log 2 = "
                          "log 1 + log 4) are refused, not merged into the Dirichlet convolution")
def test_ordinary_product_is_the_dirichlet_convolution():
    f = GeneralDirichletSeries.ordinary([1.0, 1.0, 1.0, 1.0], finite=True)
    product = multiply_merged(f, f)
    assert product.coefficients[:4] == (1.0, 2.0, 2.0, 3.0)  # the divisor counts d(1), ..., d(4)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 6: every entry is below tol, so the linear test reads an empty pattern as "
                          "'constant' and says invariant, while the translation test's samples find a witness of "
                          "violation 1.64e-6; the translations lie in the linear subgroup, so both cannot hold")
def test_linear_and_translation_verdicts_agree():
    kernel = DirichletKernel(DenseMatrix(np.array([[1e-7, 9e-7], [9e-7, 1e-7]])), HalfPlane(0.0))
    translation, linear = translation_invariance_test(kernel, 8), linear_invariance_test(kernel, 8)
    assert translation.witness is not None and translation.witness.violation > 1.6e-6
    assert translation.invariant or not linear.invariant
