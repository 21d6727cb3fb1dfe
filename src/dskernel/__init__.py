"""Numerical toolkit for Dirichlet series kernels.

Evaluate general Dirichlet series and their two-variable kernels with
certified truncation error, certify formal positive semi-definiteness of
coefficient matrices, work with the finite Gram models of the associated
reproducing kernel Hilbert spaces, certify structured arrowhead families,
classify translation- and quasi-invariance, and exercise the
translation-homogeneous generator on finite spans of kernel translates.
"""

__version__ = "0.1.0"

from .errors import (
    CertificationError,
    CollisionError,
    ConvergenceRegionError,
    DskernelError,
    HermitianError,
    InternalCheckError,
    OutsideDomainError,
    RecoveryError,
    SpecError,
)
from .homogeneous import (
    AdmissibilityReport,
    AdmissibleSupport,
    ExactComplex,
    TranslateGram,
    TranslateSpan,
    adjoint_condition_check,
    admissibility_check,
    apply_generator,
    apply_shift,
    homogeneity_residual,
    span_vector,
    translate_gram,
)
from .kernel import (
    DirichletKernel,
    PsdCertificate,
    RecoveredBlock,
    bandwidth_detect,
    coefficient_recover,
    kernel_eval,
    psd_check,
    recover_block,
    self_adjoint_check,
    tail_bound,
)
from .matrices import (
    ArrowheadMatrix,
    BandedMatrix,
    CoefficientMatrix,
    DeflatedMatrix,
    DenseMatrix,
    DiagonalMatrix,
    RankOneMatrix,
)
from .rkhs import (
    AnalyticSymbol,
    GramModel,
    MembershipResult,
    analytic_symbol,
    expansion_check,
    infinity_kernel,
    membership_test,
    reproducing_check,
)
from .rules import SequenceRule, rule_from_spec, weighted_ratio_sum, zeta_enclosure
from .series import (
    Envelope,
    ExponentRule,
    GeneralDirichletSeries,
    HalfPlane,
    ValueWithBound,
    evaluate,
    merge_log_exponents,
    multiply_merged,
)
from .structured import (
    MarginCertificate,
    certify_arrowhead,
    certify_psd,
    coupling_sum,
    example_arrowhead,
    growth_check,
    perturbation_psd,
    psd_margin,
)
from .symmetry import (
    Automorphism,
    ClassificationReport,
    linear_invariance_test,
    quasi_invariance_classify,
    rank_one_factor,
    translation_invariance_test,
)
