"""Fixed reference job: start an interpreter and do exact rational elimination.

It uses the standard library only, so its time measures how fast the host
runs start-up and allocation-heavy exact arithmetic at that moment, whatever
the package does.  ``run.py`` runs it in a fresh interpreter before every
command and scales the timings near it by it.
"""

from fractions import Fraction


def main(n: int = 30, steps: int = 10) -> None:
    rows = [[Fraction(i * j + 1, i + j + 1) for j in range(n)] for i in range(n)]
    for k in range(steps):
        pivot = rows[k][k]
        for i in range(k + 1, n):
            f = rows[i][k] / pivot
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]


if __name__ == "__main__":
    main()
