"""The compiled and pure-Python kernels must agree bit for bit."""

import math
import os
import random
from fractions import Fraction

import pytest

from dualtoeplitz import _core_py

try:
    from dualtoeplitz import _core
except ImportError:
    _core = None

BACKENDS = [
    pytest.param(_core_py, id="python"),
    pytest.param(
        _core,
        id="compiled",
        marks=pytest.mark.skipif(_core is None, reason="compiled core not built"),
    ),
]

PAIRED = [
    pytest.param(
        (_core_py, _core),
        id="python-vs-compiled",
        marks=pytest.mark.skipif(_core is None, reason="compiled core not built"),
    )
]


def triple(x):
    return (x.num_re, x.num_im, x.den)


def seeded_scalars(kernel, rng):
    values = [
        kernel.GaussianRational(0),
        kernel.GaussianRational(1),
        kernel.GaussianRational(-1),
        kernel.GaussianRational(0, 1),
        kernel.GaussianRational(Fraction(1, 2), Fraction(-1, 3)),
        kernel.GaussianRational(10**30, -(10**31)),
        kernel.GaussianRational(Fraction(10**25, 7), Fraction(3, 10**20)),
    ]
    for _ in range(20):
        values.append(
            kernel.GaussianRational(
                Fraction(rng.randint(-50, 50), rng.randint(1, 30)),
                Fraction(rng.randint(-50, 50), rng.randint(1, 30)),
            )
        )
    return values


def seeded_terms(kernel, rng, count):
    terms = {}
    for _ in range(count):
        key = (rng.randint(0, 5), rng.randint(0, 5))
        terms[key] = kernel.GaussianRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
        )
    return {k: v for k, v in terms.items() if not v.is_zero}


def terms_snapshot(terms):
    return {key: triple(c) for key, c in terms.items()}


@pytest.mark.parametrize("kernel", BACKENDS)
class TestNormalization:
    def test_invariants(self, kernel):
        rng = random.Random(7001)
        for x in seeded_scalars(kernel, rng):
            a, b, d = triple(x)
            assert d > 0
            assert math.gcd(math.gcd(abs(a), abs(b)), d) == 1
            assert x.re == Fraction(a, d) and x.im == Fraction(b, d)

    def test_rejects_floats(self, kernel):
        with pytest.raises(TypeError):
            kernel.GaussianRational(0.5)

    def test_singletons(self, kernel):
        assert triple(kernel.GR_ZERO) == (0, 0, 1)
        assert triple(kernel.GR_ONE) == (1, 0, 1)
        assert kernel.GR_ZERO.is_zero and kernel.GR_ONE.is_real


@pytest.mark.parametrize("pair", PAIRED)
class TestScalarParity:
    def test_arithmetic(self, pair):
        py, cy = pair
        xs = seeded_scalars(py, random.Random(7002))
        ys = seeded_scalars(cy, random.Random(7002))
        assert [triple(x) for x in xs] == [triple(y) for y in ys]
        for i in range(len(xs)):
            for j in range(len(xs)):
                a, b = xs[i], xs[j]
                c, d = ys[i], ys[j]
                assert triple(a + b) == triple(c + d)
                assert triple(a - b) == triple(c - d)
                assert triple(a * b) == triple(c * d)
                if not b.is_zero:
                    assert triple(a / b) == triple(c / d)

    def test_unary_and_queries(self, pair):
        py, cy = pair
        xs = seeded_scalars(py, random.Random(7003))
        ys = seeded_scalars(cy, random.Random(7003))
        for a, b in zip(xs, ys):
            assert triple(-a) == triple(-b)
            assert triple(a.conjugate()) == triple(b.conjugate())
            assert a.abs2() == b.abs2()
            assert a.is_zero == b.is_zero
            assert a.is_real == b.is_real
            if a.is_real:
                assert a.real_sign() == b.real_sign()
            if not a.is_zero:
                assert triple(a.inverse()) == triple(b.inverse())
            assert triple(a._mul_int_ratio(3, 7)) == triple(b._mul_int_ratio(3, 7))
            assert hash(a) == hash(b)

    def test_cross_type_coercion(self, pair):
        py, cy = pair
        for kernel in pair:
            x = kernel.GaussianRational(Fraction(3, 4), Fraction(-1, 2))
            assert triple(x + 1) == triple(1 + x)
            assert triple(x * Fraction(2, 3)) == triple(Fraction(2, 3) * x)
            assert triple(x - Fraction(1, 4)) == triple(-(Fraction(1, 4) - x))
            assert triple(2 - x) == triple(-(x - 2))
            assert triple(Fraction(1, 2) / x) == triple(x.inverse() * Fraction(1, 2))
            with pytest.raises(TypeError):
                _ = x + 0.5
        r_py = py.GaussianRational(Fraction(5, 3))
        r_cy = cy.GaussianRational(Fraction(5, 3))
        assert r_py == Fraction(5, 3) and r_cy == Fraction(5, 3)
        assert hash(r_py) == hash(Fraction(5, 3)) == hash(r_cy)

    def test_error_parity(self, pair):
        for kernel in pair:
            one = kernel.GR_ONE
            zero = kernel.GR_ZERO
            with pytest.raises(ZeroDivisionError):
                _ = one / zero
            with pytest.raises(ZeroDivisionError):
                zero.inverse()


@pytest.mark.parametrize("pair", PAIRED)
class TestTermKernelParity:
    def test_all_term_ops(self, pair):
        py, cy = pair
        rng_a, rng_b = random.Random(7100), random.Random(7100)
        for trial in range(8):
            f_py = seeded_terms(py, rng_a, 4)
            g_py = seeded_terms(py, rng_a, 3)
            f_cy = seeded_terms(cy, rng_b, 4)
            g_cy = seeded_terms(cy, rng_b, 3)
            assert terms_snapshot(f_py) == terms_snapshot(f_cy)

            assert terms_snapshot(py.terms_add(f_py, g_py)) == terms_snapshot(
                cy.terms_add(f_cy, g_cy)
            )
            c_py = py.GaussianRational(Fraction(-2, 3), Fraction(1, 5))
            c_cy = cy.GaussianRational(Fraction(-2, 3), Fraction(1, 5))
            assert terms_snapshot(py.terms_scale(f_py, c_py)) == terms_snapshot(
                cy.terms_scale(f_cy, c_cy)
            )
            assert terms_snapshot(py.terms_conj(f_py)) == terms_snapshot(
                cy.terms_conj(f_cy)
            )
            assert terms_snapshot(py.terms_product(f_py, g_py)) == terms_snapshot(
                cy.terms_product(f_cy, g_cy)
            )
            assert triple(py.terms_inner(f_py, g_py)) == triple(
                cy.terms_inner(f_cy, g_cy)
            )
            assert terms_snapshot(py.terms_complement(f_py)) == terms_snapshot(
                cy.terms_complement(f_cy)
            )
            assert terms_snapshot(py.terms_apply(f_py, g_py)) == terms_snapshot(
                cy.terms_apply(f_cy, g_cy)
            )

    def test_inner_product_edge_cases(self, pair):
        # empty maps, f = g, and sums that cancel to zero inside one
        # denominator group and across two
        cases = []
        for kernel in pair:
            gr = kernel.GaussianRational
            f = {(1, 0): gr(2), (2, 1): gr(-3), (1, 1): gr(0, 1), (0, 0): gr(1)}
            g = {(1, 0): kernel.GR_ONE, (0, 0): gr(0, -1), (1, 1): kernel.GR_ONE}
            h = seeded_terms(kernel, random.Random(7200), 6)
            cases.append([({}, {}), (f, {}), (f, g), (g, f), (h, h), (h, f)])
        py, cy = pair
        for (f_py, g_py), (f_cy, g_cy) in zip(*cases):
            assert triple(py.terms_inner(f_py, g_py)) == triple(
                cy.terms_inner(f_cy, g_cy)
            )

    def test_cancellation_drops_keys(self, pair):
        for kernel in pair:
            one = kernel.GR_ONE
            minus = -one
            out = kernel.terms_add({(1, 1): one}, {(1, 1): minus})
            assert out == {}
            # harmonic monomials vanish under the complement projection
            assert kernel.terms_complement({(3, 0): one}) == {}
            assert kernel.terms_complement({(0, 2): one}) == {}


class TestBackendSelection:
    def test_names(self):
        assert _core_py.BACKEND == "python"
        if _core is not None:
            assert _core.BACKEND == "compiled"

    def test_active_backend_is_reported(self):
        from dualtoeplitz import BACKEND_NAME

        assert BACKEND_NAME in ("python", "compiled")
        forced = os.environ.get("DUALTOEPLITZ_BACKEND")
        if forced:
            assert BACKEND_NAME == forced
        elif _core is not None:
            assert BACKEND_NAME == "compiled"
