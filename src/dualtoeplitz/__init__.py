"""Exact arithmetic for dual Toeplitz operators on the orthogonal
complement of the harmonic Bergman space over the unit disk.

Everything is computed over Gaussian rationals with zero tolerance:
projections, operator actions, truncated form matrices, positive
semidefiniteness and rank, normality classification with certificates,
and symbolic verification suites.

Importing the package loads no computing module.  Every public name is
served on first use from the one table ``_LAZY`` (PEP 562), which loads the
module that defines it, so a command compiles only the modules it runs and
``--help`` compiles none.  The constants the command-line parser needs are
defined here, and the modules that use them import them from here.

``classify`` is both a public function and the submodule that defines it.
The import system binds a submodule to the package attribute of its name
once it has loaded, whichever code imported it first, and that would hide
the function.  So the package module's class is swapped for one whose
``__setattr__`` keeps the function: ``dualtoeplitz.classify`` stays the
function in every import order, while ``import dualtoeplitz.classify`` and
``from dualtoeplitz.classify import ...`` still reach the submodule through
``sys.modules``.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

# the arithmetic backend, which every report names
BACKEND_NAME = "python"

# the certificate search's default truncation order, here so that the
# command-line parser can offer it without loading the classifier
DEFAULT_ORDER_LIMIT = 8

# the suites' names, here so that the command-line parser can offer them
# without loading the suites
SUITE_NAMES = ("monomial", "two-term", "harmonic", "radial", "commutator-parity")

# the smallest bound at which a suite runs its grid, where that is above 1:
# the radial pairs (n, m) need n != m, COMMUTATOR_ORDERS starts at 2, and
# at order 1 the basis is e_{1,1} alone, so the form is a 1x1 matrix of
# trace zero, zero for every symbol, and no NotHyponormal symbol of the
# two-term or harmonic grid can show a witness there
SUITE_MIN_BOUND = {"two-term": 2, "harmonic": 2, "radial": 2, "commutator-parity": 2}

# every public name not defined above, with the module that defines it
_LAZY = dict.fromkeys(
    (
        "Element",
        "GaussianRational",
        "Monomial",
        "as_scalar",
        "complement_project",
        "harmonic_project",
        "inner_product",
        "norm_sq",
    ),
    "algebra",
) | dict.fromkeys(
    (
        "NotNormalCertificate",
        "Verdict",
        "VerdictStatus",
        "ZeroMatrixCertificate",
        "classify",
        "classify_harmonic",
        "classify_monomial",
        "classify_two_monomial",
        "numeric_certificate",
    ),
    "classify",
) | dict.fromkeys(
    (
        "CommutatorAssembly",
        "SelfcommAssembly",
        "TruncatedBasis",
        "apply",
        "build_basis",
        "commutator_matrix",
        "commutator_range_gram",
        "q_value",
        "selfcomm_form_matrix",
        "test_vector",
    ),
    "engine",
) | dict.fromkeys(
    (
        "ExactMatrix",
        "HermitianForm",
        "PsdResult",
        "form_value",
        "is_antisymmetric",
        "psd_test",
        "rank",
    ),
    "linalg",
) | dict.fromkeys(
    (
        "ParseError",
        "format_element",
        "format_rational",
        "format_scalar",
        "parse_symbol",
    ),
    "symbols",
) | dict.fromkeys(
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

__all__ = [
    "BACKEND_NAME",
    "DEFAULT_ORDER_LIMIT",
    "SUITE_MIN_BOUND",
    "SUITE_NAMES",
    *_LAZY,
]


def __getattr__(name):
    """Load the module behind a public name on first use (PEP 562)."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


class _Package(ModuleType):
    """The package module, whose ``classify`` stays the function when the
    import system binds the submodule of that name (module docstring)."""

    def __setattr__(self, name, value):
        if name == "classify" and isinstance(value, ModuleType):
            value = value.classify
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
