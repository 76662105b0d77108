"""Independent PSD oracle through sympy.

A Hermitian matrix is PSD iff every signed coefficient of its characteristic
polynomial (an elementary symmetric function of the eigenvalues, equally a
sum of principal minors) is >= 0.  Written against none of the package's
elimination code: the only contact points are the .re/.im accessors.
"""

import sympy as sp


def sympy_matrix(a):
    """A package matrix as an exact sympy matrix."""
    return sp.Matrix(
        [
            [sp.Rational(a[i, j].re) + sp.I * sp.Rational(a[i, j].im) for j in range(a.cols)]
            for i in range(a.rows)
        ]
    )


def charpoly_psd(a):
    """Exact PSD decision for a Hermitian package matrix: (is_psd, rank)."""
    mirror = sympy_matrix(a)
    n = mirror.rows
    coeffs = mirror.charpoly().all_coeffs()  # x^n down to x^0
    signed = [sp.simplify((-1) ** k * coeffs[k]) for k in range(n + 1)]
    assert all(c.is_real for c in signed)
    is_psd = all(c >= 0 for c in signed)
    zero_mult = 0
    for c in reversed(coeffs):
        if sp.simplify(c) != 0:
            break
        zero_mult += 1
    return is_psd, n - zero_mult
