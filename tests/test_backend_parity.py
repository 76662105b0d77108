"""The arithmetic kernel's scalar normalization and its reported backend name."""

import math
import random
from fractions import Fraction

import pytest

from dualtoeplitz import _kernel as kernel


def triple(x):
    return (x.num_re, x.num_im, x.den)


def seeded_scalars(rng):
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


class TestNormalization:
    def test_invariants(self):
        rng = random.Random(7001)
        for x in seeded_scalars(rng):
            a, b, d = triple(x)
            assert d > 0
            assert math.gcd(math.gcd(abs(a), abs(b)), d) == 1
            assert x.re == Fraction(a, d) and x.im == Fraction(b, d)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            kernel.GaussianRational(0.5)

    def test_singletons(self):
        assert triple(kernel.GR_ZERO) == (0, 0, 1)
        assert triple(kernel.GR_ONE) == (1, 0, 1)
        assert kernel.GR_ZERO.is_zero and kernel.GR_ONE.is_real


class TestBackendSelection:
    def test_active_backend_is_reported(self):
        from dualtoeplitz import BACKEND_NAME

        assert BACKEND_NAME == "python"
