"""Numerical toolkit for Dirichlet series kernels: certified values of general
Dirichlet series and their two-variable kernels, PSD certificates for their
coefficient matrices, Gram models of their reproducing kernel Hilbert spaces,
arrowhead families, translation- and quasi-invariance, and the homogeneous
generator on spans of kernel translates.

``import dskernel`` loads no module of the package.  Each exported name is
read from its module at every access, never cached here; the module is
imported on first use (PEP 562).
"""

import sys
from importlib import import_module

__version__ = "0.1.0"
_EXPORTS = {name: f"{__name__}.{module}" for module, names in {
    "errors": "CertificationError CollisionError ConvergenceRegionError DskernelError HermitianError "
              "InternalCheckError OutsideDomainError RecoveryError SpecError",
    "homogeneous": "AdmissibilityReport ExactComplex TranslateGram TranslateSpan adjoint_condition_check "
                   "admissibility_check apply_generator apply_shift homogeneity_residual span_vector translate_gram",
    "kernel": "DirichletKernel PsdCertificate RecoveredBlock bandwidth_detect coefficient_recover kernel_eval "
              "psd_check recover_block self_adjoint_check tail_bound",
    "matrices": "AdmissibleSupport ArrowheadMatrix BandedMatrix CoefficientMatrix DeflatedMatrix DenseMatrix "
                "DiagonalMatrix RankOneMatrix",
    "rkhs": "AnalyticSymbol GramModel MembershipResult analytic_symbol expansion_check infinity_kernel "
            "membership_test reproducing_check",
    "rules": "SequenceRule rule_from_spec weighted_ratio_sum",
    "series": "Envelope ExponentRule GeneralDirichletSeries HalfPlane ValueWithBound evaluate merge_log_exponents "
              "multiply_merged",
    "structured": "MarginCertificate certify_arrowhead certify_psd coupling_sum example_arrowhead growth_check "
                  "perturbation_psd psd_margin",
    "symmetry": "ClassificationReport linear_invariance_test quasi_invariance_classify "
                "rank_one_factor translation_invariance_test",
}.items() for name in names.split()}
__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules.get(_EXPORTS[name]) or import_module(_EXPORTS[name]), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
