"""Exact arithmetic for dual Toeplitz operators on the orthogonal
complement of the harmonic Bergman space over the unit disk.

Everything is computed over Gaussian rationals with zero tolerance:
projections, operator actions, truncated form matrices, positive
semidefiniteness and rank, normality classification with certificates,
and symbolic verification suites.

The computing modules load with the package.  The closed-form identities
and the verification suites load on first use of one of their names, so
a command that never verifies never compiles them.
"""

from importlib import import_module

from ._kernel import BACKEND as BACKEND_NAME
from .algebra import (
    Element,
    GaussianRational,
    Monomial,
    as_scalar,
    bergman_project,
    complement_project,
    harmonic_project,
    inner_product,
    norm_sq,
)
from .classify import (
    DEFAULT_ORDER_LIMIT,
    NotNormalCertificate,
    Verdict,
    VerdictStatus,
    ZeroMatrixCertificate,
    classify,
    classify_harmonic,
    classify_monomial,
    classify_two_monomial,
    classify_with_certificate,
    numeric_certificate,
)
from .engine import (
    CommutatorAssembly,
    SelfcommAssembly,
    TruncatedBasis,
    adjoint_symbol,
    apply,
    build_basis,
    commutator_matrices,
    commutator_matrix,
    commutator_range_gram,
    q_value,
    selfcomm_form_matrix,
    test_vector,
)
from .linalg import (
    HermitianForm,
    PsdResult,
    form_value,
    is_antisymmetric,
    psd_test,
    rank,
)
from .matrix import ExactMatrix
from .symbols import (
    ParseError,
    format_element,
    format_rational,
    format_scalar,
    parse_symbol,
)

__version__ = "0.1.0"

# the suites' names, here so that the command-line parser can offer them
# without loading the suites
SUITE_NAMES = ("monomial", "two-term", "harmonic", "radial", "commutator-parity")

# names served on first use (PEP 562), with the module that defines them
_LAZY = dict.fromkeys(
    (
        "RationalPolynomial",
        "SpecialPointCheck",
        "adjoint_commutator_identity",
        "closed_form_apply",
        "closed_form_q",
        "defect_balance_at_zero",
        "equal_diff_defect_at_zero",
        "monomial_defect_poly",
        "radial_commutator_residual",
        "two_monomial_q",
        "two_term_defect_components",
        "two_term_defect_poly",
        "two_term_special_points",
    ),
    "identities",
) | dict.fromkeys(
    (
        "COMMUTATOR_GRID",
        "COMMUTATOR_ORDERS",
        "HARMONIC_GRID",
        "SuiteReport",
        "TWO_TERM_GRID",
        "run_suite",
        "run_suites",
    ),
    "verify",
)


def __getattr__(name):
    """Load the module behind a lazy name on first use (PEP 562)."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "BACKEND_NAME",
    "COMMUTATOR_GRID",
    "CommutatorAssembly",
    "COMMUTATOR_ORDERS",
    "DEFAULT_ORDER_LIMIT",
    "Element",
    "ExactMatrix",
    "GaussianRational",
    "HARMONIC_GRID",
    "HermitianForm",
    "Monomial",
    "NotNormalCertificate",
    "ParseError",
    "PsdResult",
    "RationalPolynomial",
    "SUITE_NAMES",
    "SelfcommAssembly",
    "SpecialPointCheck",
    "SuiteReport",
    "TWO_TERM_GRID",
    "TruncatedBasis",
    "Verdict",
    "VerdictStatus",
    "ZeroMatrixCertificate",
    "adjoint_commutator_identity",
    "adjoint_symbol",
    "apply",
    "as_scalar",
    "bergman_project",
    "build_basis",
    "classify",
    "classify_harmonic",
    "classify_monomial",
    "classify_two_monomial",
    "classify_with_certificate",
    "closed_form_apply",
    "closed_form_q",
    "commutator_matrices",
    "commutator_matrix",
    "commutator_range_gram",
    "complement_project",
    "defect_balance_at_zero",
    "equal_diff_defect_at_zero",
    "form_value",
    "format_element",
    "format_rational",
    "format_scalar",
    "harmonic_project",
    "inner_product",
    "is_antisymmetric",
    "monomial_defect_poly",
    "norm_sq",
    "numeric_certificate",
    "parse_symbol",
    "psd_test",
    "q_value",
    "radial_commutator_residual",
    "rank",
    "run_suite",
    "run_suites",
    "selfcomm_form_matrix",
    "test_vector",
    "two_monomial_q",
    "two_term_defect_components",
    "two_term_defect_poly",
    "two_term_special_points",
]
