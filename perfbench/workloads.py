"""Seeded input generators for the benchmark workloads.

Each generator returns a system as integer coefficients keyed by exponent
tuples.  The program under test sees only its text: never a seed, just the
lines a `hermite-count solve --poly ...` user would type.  This module imports
nothing from the package, so it can be loaded before the set-up timer starts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from random import Random

DENSE = "dense"
STAIRCASE = "staircase"
_NONZERO = [c for c in range(-9, 10) if c]


Polynomial = dict[tuple[int, ...], int]


def _term(coeff: int, exponents: tuple[int, ...]) -> str:
    factors = [f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}" for i, e in enumerate(exponents) if e]
    return "*".join([str(coeff)] + factors) if factors else str(coeff)


def to_text(system: list[Polynomial]) -> tuple[str, ...]:
    """One line per polynomial, as a `hermite-count solve --poly` user types it."""
    return tuple("+".join(_term(c, e) for e, c in poly.items()).replace("+-", "-") for poly in system)


def dense_system(rng: Random, nvars: int, degree: int) -> list[Polynomial]:
    """`nvars` dense polynomials of total degree <= `degree` in x1..x<nvars>,
    with integer coefficients drawn uniformly from [-9, 9].

    Every monomial of degree `degree` gets a nonzero coefficient, so each
    polynomial has full degree; generically the system then has `degree**nvars`
    distinct complex solutions (Bezout) and no solution at infinity.
    """
    exponents = [e for e in itertools.product(range(degree + 1), repeat=nvars) if sum(e) <= degree]
    polys = []
    for _ in range(nvars):
        coeffs = {e: rng.choice(_NONZERO) if sum(e) == degree else rng.randint(-9, 9) for e in exponents}
        polys.append({e: c for e, c in coeffs.items() if c})
    return polys


def staircase_system(rng: Random, nvars: int, power: int) -> list[Polynomial]:
    """x_i^power - c_i*x_i for each i, and x_i*x_j for i < j, with c_i in 1..9.

    This is already a reduced Groebner basis under grevlex.  The solutions are
    the origin and, on each axis, the roots of t^(power-1) = c_i.
    """
    def unit(*powers: tuple[int, int]) -> tuple[int, ...]:
        exps = [0] * nvars
        for var, e in powers:
            exps[var] = e
        return tuple(exps)

    polys = [{unit((i, power)): 1, unit((i, 1)): -rng.randint(1, 9)} for i in range(nvars)]
    polys += [{unit((i, 1), (j, 1)): 1} for i, j in itertools.combinations(range(nvars), 2)]
    return polys


def staircase_counts(nvars: int, power: int) -> tuple[int, int]:
    """(complex, real) solution counts of `staircase_system`: the origin and
    n*(a-1) axis roots.  As c_i > 0, t^(a-1) = c_i has one real root when a-1
    is odd and two when it is even."""
    return nvars * (power - 1) + 1, 1 + nvars * (1 if (power - 1) % 2 else 2)


# Distinct instances per run; a run that solves more cycles through them, so
# validation cost stays bounded.
POOL = 64


@dataclass(frozen=True)
class Instance:
    """One generated system: its coefficients, which only the validation
    reads, and the text the program is given."""

    system: list[Polynomial]
    text: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    """One family at one size, solved under one monomial order.

    `size` is the degree d of dense(n, d) or the power a of the staircase.
    """

    name: str
    family: str
    nvars: int
    size: int
    order: str = "grevlex"
    check: bool = False

    def instance(self, seed: int, k: int) -> Instance:
        """The k-th instance of this workload under `seed`: a fresh, reproducible
        random stream per instance (string seeds hash the same in every process)."""
        rng = Random(f"{self.name}:{seed}:{k}")
        if self.family == DENSE:
            system = dense_system(rng, self.nvars, self.size)
        else:
            system = staircase_system(rng, self.nvars, self.size)
        return Instance(system, to_text(system))

    def instances(self, seed: int) -> list[Instance]:
        return [self.instance(seed, k) for k in range(POOL)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lex-elim", DENSE, nvars=3, size=2, order="lex"),
        Workload("trace-form", DENSE, nvars=2, size=4),
        Workload("staircase", STAIRCASE, nvars=4, size=20),
        Workload("check", DENSE, nvars=2, size=4, check=True),
    )
}
