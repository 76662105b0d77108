"""A small exact evaluator that shares no code with the package.

Scalars are (re, im) pairs of Fractions; an element is a dict mapping the
exponent pair (n, m) of z^n conj(z)^m to a nonzero scalar.  Everything is
derived from two facts about the normalized area measure on the disk:

    <z^n conj(z)^m, z^k conj(z)^l> = 2 / (n + m + k + l + 2)  if n - m == k - l,
                                     0                          otherwise,

and the harmonic projection of z^n conj(z)^m, which keeps only the harmonic
monomial of the same frequency d = n - m:

    Q z^n conj(z)^m = (|d| + 1) / (max(n, m) + 1) * (z^d if d >= 0 else conj(z)^-d).

The dual Toeplitz operator is S_phi f = f*phi - Q(f*phi), and its adjoint is
S_conj(phi).
"""

from __future__ import annotations

from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))


def mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def neg(x):
    return (-x[0], -x[1])


def conj(x):
    return (x[0], -x[1])


def parse_scalar(text: str):
    """Inverse of the report's scalar format: "p/q" or "p/q+r/si"."""
    if not text.endswith("i"):
        return (Fraction(text), Fraction(0))
    split = next(k for k in range(1, len(text)) if text[k] in "+-")
    return (Fraction(text[:split]), Fraction(text[split:-1]))


def _accumulate(out: dict, key, c) -> None:
    old = out.get(key, ZERO)
    new = (old[0] + c[0], old[1] + c[1])
    if new == ZERO:
        out.pop(key, None)
    else:
        out[key] = new


def product(f: dict, g: dict) -> dict:
    out: dict = {}
    for (n, m), a in f.items():
        for (k, l), b in g.items():
            _accumulate(out, (n + k, m + l), mul(a, b))
    return out


def complement(f: dict) -> dict:
    out = dict(f)
    for (n, m), c in f.items():
        d = n - m
        w = Fraction(abs(d) + 1, max(n, m) + 1)
        _accumulate(out, (d, 0) if d >= 0 else (0, -d), neg((c[0] * w, c[1] * w)))
    return out


def apply(phi: dict, f: dict) -> dict:
    return complement(product(phi, f))


def adjoint(phi: dict) -> dict:
    return {(m, n): conj(c) for (n, m), c in phi.items()}


def inner(f: dict, g: dict):
    """<f, g>, linear in f and conjugate-linear in g."""
    by_freq: dict = {}
    for (k, l), b in g.items():
        by_freq.setdefault(k - l, []).append((k + l, conj(b)))
    re = im = Fraction(0)
    for (n, m), a in f.items():
        for s, cb in by_freq.get(n - m, ()):
            p = mul(a, cb)
            w = Fraction(2, n + m + s + 2)
            re += p[0] * w
            im += p[1] * w
    return (re, im)


def basis(order: int) -> list[tuple[tuple[int, int], dict]]:
    """(n, m) and e_{n,m} = (I - Q) z^n conj(z)^m for 1 <= n, m <= order."""
    return [((n, m), complement({(n, m): (Fraction(1), Fraction(0))}))
            for n in range(1, order + 1) for m in range(1, order + 1)]


def q_value(phi: dict, f: dict) -> Fraction:
    """|S_phi f|^2 - |S_conj(phi) f|^2."""
    u = apply(phi, f)
    v = apply(adjoint(phi), f)
    return inner(u, u)[0] - inner(v, v)[0]


def _hermitian(vectors_a, vectors_b=None) -> list[list]:
    size = len(vectors_a)
    out = [[ZERO] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            e = inner(vectors_a[j], vectors_a[i])
            if vectors_b is not None:
                f = inner(vectors_b[j], vectors_b[i])
                e = (e[0] - f[0], e[1] - f[1])
            out[i][j] = e
            out[j][i] = conj(e)
    return out


def selfcomm_matrix(phi: dict, order: int) -> list[list]:
    """A[i][j] = <S e_j, S e_i> - <S* e_j, S* e_i>."""
    vecs = [e for _, e in basis(order)]
    psi = adjoint(phi)
    return _hermitian([apply(phi, e) for e in vecs], [apply(psi, e) for e in vecs])


def _commutator_images(phi: dict, psi: dict, order: int):
    vecs = [e for _, e in basis(order)]
    images = []
    for e in vecs:
        w = dict(apply(phi, apply(psi, e)))
        for key, c in apply(psi, apply(phi, e)).items():
            _accumulate(w, key, neg(c))
        images.append(w)
    return vecs, images


def commutator_matrix(phi: dict, psi: dict, order: int) -> list[list]:
    """B[i][j] = <(S_phi S_psi - S_psi S_phi) e_j, e_i>."""
    vecs, images = _commutator_images(phi, psi, order)
    return [[inner(w, e_i) for w in images] for e_i in vecs]


def range_gram(phi: dict, psi: dict, order: int) -> list[list]:
    """G[i][j] = <w_j, w_i> for the commutator images w_j."""
    return _hermitian(_commutator_images(phi, psi, order)[1])


def form_value(matrix: list[list], vec: list):
    """c* A c."""
    re = im = Fraction(0)
    for i, ci in enumerate(vec):
        if ci == ZERO:
            continue
        row = matrix[i]
        acc_re = acc_im = Fraction(0)
        for j, cj in enumerate(vec):
            if cj != ZERO and row[j] != ZERO:
                p = mul(row[j], cj)
                acc_re += p[0]
                acc_im += p[1]
        p = mul(conj(ci), (acc_re, acc_im))
        re += p[0]
        im += p[1]
    return (re, im)


def combine(coords: list, order: int) -> dict:
    """Sum of c_i e_i over the order's basis."""
    out: dict = {}
    for c, (_, e) in zip(coords, basis(order)):
        if c != ZERO:
            for key, b in e.items():
                _accumulate(out, key, mul(c, b))
    return out
