"""Dense reference versions of the matrix operations.

Each takes a matrix as a list of equal-length rows of GaussianRational and
visits every slot, zeros included, so it cannot depend on which entries a
sparse container stores.  The factor-form reference sums its products
grouped by denominator and brings the groups to their lcm.
"""

from math import gcd, lcm

from dualtoeplitz import GaussianRational

ZERO = GaussianRational(0)


def width(rows) -> int:
    return len(rows[0]) if rows else 0


def transpose(rows) -> list[list]:
    return [[row[j] for row in rows] for j in range(width(rows))]


def is_hermitian(rows) -> bool:
    n = len(rows)
    if width(rows) != n:
        return False
    return all(rows[i][j] == rows[j][i].conjugate() for i in range(n) for j in range(n))


def is_antisymmetric(rows) -> bool:
    n = len(rows)
    if width(rows) != n:
        return False
    return all(rows[i][j] == -rows[j][i] for i in range(n) for j in range(n))


def first_nonzero(rows):
    for i, row in enumerate(rows):
        for j, c in enumerate(row):
            if not c.is_zero:
                return (i, j)
    return None


def permute_rows(rows, perm) -> list[list]:
    return [rows[p] for p in perm]


def form_value(rows, vec) -> GaussianRational:
    """sum_ij conj(vec[i]) rows[i][j] vec[j]."""
    total = ZERO
    for i, row in enumerate(rows):
        for j, c in enumerate(row):
            total = total + vec[i].conjugate() * c * vec[j]
    return total


def factor_form(f: dict, g: dict) -> tuple[int, int, int]:
    """<g, f>_G as a normalized triple: +-conj(f[k]) g[k] / (|k >> 1| + 1)
    over shared keys k, the sign - on odd keys, summed in groups of equal
    denominator brought to their lcm."""
    groups: dict = {}
    for key, cf in f.items():
        cg = g.get(key)
        if cg is None:
            continue
        a, b, c, e = cf.num_re, cf.num_im, cg.num_re, cg.num_im
        x = a * c + b * e
        y = a * e - b * c
        if key & 1:
            x, y = -x, -y
        den = cf.den * cg.den * (abs(key >> 1) + 1)
        acc = groups.setdefault(den, [0, 0])
        acc[0] += x
        acc[1] += y
    den = lcm(*groups)
    re = sum(x * (den // key) for key, (x, _) in groups.items())
    im = sum(y * (den // key) for key, (_, y) in groups.items())
    if re == 0 and im == 0:
        return (0, 0, 1)
    g = gcd(re, im, den)
    return (re // g, im // g, den // g)
