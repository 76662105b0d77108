"""Seeded workload generator.

Each workload is a fixed list of CLI commands over symbols drawn from fixed
shape families.  A seed only picks coefficients and exponent orientation:

- coefficients are unit-modulus Gaussian rationals (p + q i)/r from
  Pythagorean triples, times a fixed real modulus where a family needs
  unequal moduli.  The triple is fixed per coefficient slot (the k-th
  coefficient a workload draws uses TRIPLES[k % 5]); the seed picks only
  the signs of p and q and their order.  So every seed feeds each command
  numbers of the same bit size, and its exact arithmetic costs the same;
- an exponent draw may conjugate a whole symbol (z^n zb^m -> z^m zb^n),
  which mirrors its frequencies and keeps its block structure.

Block structure, and hence the work an elimination does, is therefore a
property of the shape, never of the workload name.  The package sees only
the generated symbol text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29))

# (n, m) -> (re, im): a symbol as exact data, independent of the package
Terms = tuple[tuple[tuple[int, int], tuple[Fraction, Fraction]], ...]


@dataclass(frozen=True)
class Command:
    """One CLI invocation plus what the checks need to know about it."""

    kind: str  # selfcomm | commutator | rank | rank2 | classify | verify
    argv: tuple[str, ...]
    phi: Terms = ()
    psi: Terms = ()
    order: int = 0
    family: str = ""
    expect: str = ""  # Normal | NotHyponormal | OutsideProvenScope
    top: bool = False

    @property
    def text(self) -> str:
        return " ".join(self.argv)


class Draws(random.Random):
    """A seeded random source that also hands out the per-slot triples."""

    def __init__(self, seed: str):
        super().__init__(seed)
        self.slot = 0

    def triple(self) -> tuple[int, int, int]:
        t = TRIPLES[self.slot % len(TRIPLES)]
        self.slot += 1
        return t


def unit(rng: Draws) -> tuple[Fraction, Fraction]:
    p, q, r = rng.triple()
    if rng.random() < 0.5:
        p, q = q, p
    return (Fraction(rng.choice((-1, 1)) * p, r), Fraction(rng.choice((-1, 1)) * q, r))


def _coin(rng: Draws) -> bool:
    return rng.random() < 0.5


def nonreal_pair(rng: Draws):
    """Two unit coefficients whose ratio is not real."""
    while True:
        u, v = unit(rng), unit(rng)
        # v / u is real iff Im(v * conj(u)) == 0
        if v[1] * u[0] - v[0] * u[1] != 0:
            return u, v


def scaled(c, s) -> tuple[Fraction, Fraction]:
    return (c[0] * s, c[1] * s)


def symbol(*terms, conjugate: bool = False) -> Terms:
    """Terms from ((n, m), coefficient) pairs, optionally mirrored."""
    out = {}
    for (n, m), c in terms:
        out[(m, n) if conjugate else (n, m)] = c
    return tuple(sorted(out.items()))


def _rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _monomial(n: int, m: int) -> str:
    parts = []
    if n:
        parts.append("z" if n == 1 else f"z^{n}")
    if m:
        parts.append("zb" if m == 1 else f"zb^{m}")
    return " ".join(parts)


def render(terms: Terms) -> str:
    """Symbol text in the package's input grammar."""
    out = []
    for (n, m), (re, im) in terms:
        coef = _rational(re) if im == 0 else f"{_rational(re)}{'+' if im > 0 else '-'}{_rational(abs(im))}i"
        out.append(f"({coef}) {_monomial(n, m)}".strip())
    return " + ".join(out)


def _selfcomm(phi: Terms, n: int, family: str, top: bool = False) -> Command:
    return Command("selfcomm", ("matrix", "selfcomm", "--symbol", render(phi), "--N", str(n)),
                   phi=phi, order=n, family=family, top=top)


def _rank(phi: Terms, n_max: int, family: str) -> Command:
    return Command("rank", ("rank", "--symbol", render(phi), "--N-max", str(n_max)),
                   phi=phi, order=n_max, family=family)


def _commutator(phi: Terms, psi: Terms, n: int, family: str) -> Command:
    return Command("commutator", ("matrix", "commutator", "--symbol", render(phi),
                                  "--symbol2", render(psi), "--N", str(n)),
                   phi=phi, psi=psi, order=n, family=family)


def _rank2(phi: Terms, psi: Terms, n_max: int, family: str) -> Command:
    return Command("rank2", ("rank", "--symbol", render(phi), "--symbol2", render(psi),
                             "--N-max", str(n_max)),
                   phi=phi, psi=psi, order=n_max, family=family)


# Commands per pass are chosen so that the pooled median (cmd_p50_s) and p75
# (cmd_tail_s) each fall inside a group of commands of about the same cost,
# not on a gap between two costs: on sparse-elim an even count whose two
# middle commands cost about the same; on dense-elim two draws each of the
# three-block rank and N=8 selfcomm, which hold the median and the p75.


def sparse_elim(rng: Draws) -> list[Command]:
    """Single-frequency symbols: their form matrices split into many small blocks."""
    # the top command's symbol keeps one orientation, so no seed changes
    # which way its elimination runs
    mono = symbol(((2, 1), unit(rng)))
    u, v = nonreal_pair(rng)
    radial = symbol(((1, 1), u), ((2, 2), v))
    harm = symbol(((1, 0), scaled(unit(rng), 2)), ((0, 1), scaled(unit(rng), 3)), conjugate=_coin(rng))
    pair_flip = _coin(rng)
    left = symbol(((2, 1), unit(rng)), conjugate=pair_flip)
    right = symbol(((1, 2), unit(rng)), conjugate=pair_flip)
    return [
        _selfcomm(mono, 4, "monomial"),
        _selfcomm(radial, 4, "radial-pair"),
        _selfcomm(harm, 4, "harmonic"),
        _selfcomm(mono, 8, "monomial"),
        _selfcomm(radial, 8, "radial-pair"),
        _selfcomm(harm, 8, "harmonic"),
        _rank(mono, 6, "monomial"),
        _rank(radial, 6, "radial-pair"),
        _rank(harm, 6, "harmonic"),
        _rank(harm, 4, "harmonic"),
        _commutator(left, right, 4, "commutator-pair"),
        _commutator(left, right, 6, "commutator-pair"),
        _rank2(left, right, 5, "commutator-pair"),
        _selfcomm(mono, 12, "monomial", top=True),
    ]


def dense_elim(rng: Draws) -> list[Command]:
    """Multi-frequency symbols: one wide block, or a few."""
    wide = symbol(((1, 0), unit(rng)), ((0, 2), unit(rng)), ((3, 1), unit(rng)), conjugate=_coin(rng))
    three = symbol(((2, 1), unit(rng)), ((3, 0), unit(rng)), conjugate=_coin(rng))
    three_b = symbol(((2, 1), unit(rng)), ((3, 0), unit(rng)), conjugate=_coin(rng))
    left = symbol(((2, 1), unit(rng)), ((3, 0), unit(rng)))
    right = symbol(((1, 0), unit(rng)), ((0, 2), unit(rng)))
    return [
        _selfcomm(wide, 4, "one-block"),
        _selfcomm(three, 4, "three-block"),
        _selfcomm(wide, 8, "one-block"),
        _selfcomm(three, 8, "three-block"),
        _selfcomm(three_b, 8, "three-block"),
        _rank(wide, 6, "one-block"),
        _rank(three, 6, "three-block"),
        _rank(three_b, 6, "three-block"),
        _commutator(left, right, 4, "mixed-pair"),
        _rank2(left, right, 5, "mixed-pair"),
        _selfcomm(wide, 10, "one-block", top=True),
    ]


def _classify(phi: Terms, family: str, expect: str) -> Command:
    return Command("classify", ("classify", "--symbol", render(phi)),
                   phi=phi, order=8, family=family, expect=expect)


def certify(rng: Draws) -> list[Command]:
    """Classification over the two-term grid classes, harmonic pencils and
    three-term radial sums, then the verification suites.  Each class has
    fixed exponents per slot, so a seed changes coefficients and orientation
    but not how many orders a certificate search visits.

    The Normal classes get a third slot and the real radial sum a second
    draw.  Of the 21 commands, 9 stop at their first nonzero order and cost
    little more than start-up; the 6 cheapest full searches (radial pairs and
    constant pencils) come next.  The pooled median (cmd_p50_s) then falls
    inside that group, where certificate search shows, not on the edge of the
    start-up-only group."""
    cmds = []

    def radial_real(j: int, k: int) -> Command:
        u = unit(rng)
        ratio = Fraction(rng.choice((-1, 1)) * rng.choice((1, 2, 3)), rng.choice((2, 3)))
        return _classify(symbol(((j, j), u), ((k, k), scaled(u, ratio))), "radial-pair-real", "Normal")

    def balanced(n: int, m: int) -> Command:
        return _classify(symbol(((n, m), unit(rng)), ((m, n), unit(rng))), "conjugate-balanced", "Normal")

    def pencil(d: int) -> Command:
        return _classify(symbol(((d, 0), unit(rng)), ((0, d), unit(rng))), "pencil-constant", "Normal")

    for (j, k), (n, m), (p, q), (a, b), d in (((1, 2), (2, 1), (2, 1), (1, 3), 1),
                                              ((1, 3), (3, 1), (3, 1), (2, 2), 2)):
        cmds.append(radial_real(j, k))
        u, v = nonreal_pair(rng)
        cmds.append(_classify(symbol(((j, j), u), ((k, k), v)),
                              "radial-pair-nonreal", "NotHyponormal"))
        cmds.append(balanced(n, m))
        cmds.append(_classify(symbol(((n, m), unit(rng)), ((m, n), scaled(unit(rng), 2)),
                                     conjugate=_coin(rng)),
                              "conjugate-unbalanced", "NotHyponormal"))
        cmds.append(_classify(symbol(((p, q), unit(rng)), ((a, b), unit(rng)), conjugate=_coin(rng)),
                              "mismatched", "NotHyponormal"))
        cmds.append(pencil(d))
        cmds.append(_classify(symbol(((1, 0), unit(rng)), ((0, 2), unit(rng)), conjugate=_coin(rng)),
                              "pencil-free", "NotHyponormal"))
    cmds += [radial_real(2, 3), balanced(3, 2), pencil(3)]
    for _ in range(2):
        reals = [Fraction(rng.choice((-1, 1)) * rng.choice((1, 2, 3)), rng.choice((1, 2))) for _ in range(3)]
        cmds.append(_classify(symbol(*(((k, k), (r, Fraction(0))) for k, r in zip((1, 2, 3), reals))),
                              "radial-sum-real", "OutsideProvenScope"))
    u, v = nonreal_pair(rng)
    cmds.append(_classify(symbol(((1, 1), u), ((2, 2), v), ((3, 3), unit(rng))),
                          "radial-sum-nonreal", "OutsideProvenScope"))
    cmds.append(Command("verify", ("verify", "--suite", "all"), family="suites", top=True))
    return cmds


WORKLOADS = {
    "sparse-elim": sparse_elim,
    "dense-elim": dense_elim,
    "certify": certify,
}


def generate(workload: str, seed: int) -> list[Command]:
    """The workload's command list for this seed; same seed, same commands."""
    return WORKLOADS[workload](Draws(f"{workload}/{seed}"))
