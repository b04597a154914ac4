"""Command-line front end: solve a system and report solution counts, or run
the scaling benchmark families.

A solve parses the input and runs Buchberger in grevlex, whatever the
order, so exits 3 and 6 come from that ring: the signature engine computes
the basis of each input in turn, and in grlex those intermediate bases can
be far larger than the final one (katsura-5: 44 s in grlex, 0.01 s in
grevlex, on 2 x86-64 vCPUs).  Under grlex, `quotient.change_order` turns the
basis into the grlex one, and the report (the staircase, the Hermite matrix
and the counts) is built once, on the grlex ring.  Under grevlex, the counts
are the inertia of the grevlex trace form.  Under lex, they are read off the
grevlex ring, whose Krylov vectors of x_n are built once; the ring builds its
own trace functional, once, for every reader.  When `quotient.shape_position`
certifies the ideal in shape position, the staircase is 1, x_n, ...,
x_n^(D-1), and the printed matrix is the Hankel matrix of the traces of the
powers of x_n.  There, for D up to `quotient.MAX_CHARPOLY_DIMENSION` (64),
`quotient.charpoly_report` takes the counts from chi, the characteristic
polynomial of x_n: the distinct roots and the real roots of its squarefree
part; neither the grevlex H nor its inertia is computed.  The cap bounds the
real-root count, whose cost grows as D^3 times the bits of chi when all
roots are real.  Otherwise (D above the cap, or no shape position) the
counts are the inertia of the grevlex H, and out of shape position
`quotient.fglm` converts the basis to lex, and the staircase and matrix come
from the lex ring.

Exit codes: 0 success, 2 parse/usage error (an integer literal longer than
the interpreter's int conversion limit included), 3 ideal not zero-dimensional,
4 internal error or oracle mismatch (a bug, never expected), 5 an exact number
in the requested output has more digits than that limit (CPython 3.10.7+
converts at most 4300 by default; PYTHONINTMAXSTRDIGITS=0 lifts it), 6 the
quotient dimension exceeds `quotient.MAX_DIMENSION` (4096).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from itertools import compress
from pathlib import Path
from typing import Sequence, TextIO

from .groebner import NotZeroDimensionalError, buchberger
from .parsing import ParseError, format_monomial, parse_system
from .poly import GREVLEX, GRLEX, LEX, ORDER_KINDS, MonomialOrder
from .quotient import MAX_CHARPOLY_DIMENSION, DimensionLimitError, HermiteForm, HermiteReport, QuotientBasis
from .quotient import change_order, charpoly_report, fglm, hankel_form, hermite_form, hermite_report, inertia_report
from .quotient import shape_position, standard_monomials

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NOT_ZERO_DIMENSIONAL = 3
EXIT_ORACLE_MISMATCH = 4
EXIT_OUTPUT_LIMIT = 5
EXIT_DIMENSION_LIMIT = 6


class OracleMismatchError(RuntimeError):
    """A cross-check disagreed with the main computation."""


@dataclass(frozen=True)
class RunConfiguration:
    """One solve invocation: exactly one input source plus output options."""

    source_path: str | None = None
    inline_polynomials: tuple[str, ...] = ()
    order_kind: str = GREVLEX
    json_output: bool = False
    print_matrix: bool = False
    cross_check: bool = False

    def __post_init__(self):
        if (self.source_path is None) == (not self.inline_polynomials):
            raise ValueError("exactly one input source required: FILE or --poly")
        if self.order_kind not in ORDER_KINDS:
            raise ValueError(f"unknown order {self.order_kind!r}")

    def read_text(self) -> str:
        if self.source_path is not None:
            return Path(self.source_path).read_text(encoding="utf-8")
        return "\n".join(self.inline_polynomials)


@dataclass(frozen=True)
class SolveResult:
    """The report that holds the counts, with the staircase and form printed
    in the requested order.  Under lex, the report is on the grevlex ring,
    with no entries when its counts came from chi of x_n, `form` is None
    unless the matrix was asked for, and `lex` is the lex ring that FGLM
    built when shape position was not certified."""

    variables: list[str]
    report: HermiteReport
    staircase: QuotientBasis
    form: HermiteForm | None
    lex: QuotientBasis | None = None


def _solve_text(text: str, kind: str, matrix: bool = False) -> SolveResult:
    variables, polys = parse_system(text, GREVLEX)
    basis = buchberger(polys, polys[0].order)
    if kind == GRLEX:
        basis = change_order(basis, MonomialOrder(GRLEX, basis.order.nvars))
    if kind != LEX:
        report = hermite_report(basis)
        return SolveResult(variables, report, report.form.basis, report.form)
    ring = standard_monomials(basis)
    shape = shape_position(ring)
    if shape is not None and ring.dimension <= MAX_CHARPOLY_DIMENSION:
        report = charpoly_report(ring, shape[1])
    else:
        report = inertia_report(hermite_form(basis, ring))
    if shape is not None:
        form = hankel_form(ring, *shape) if matrix else None
        return SolveResult(variables, report, shape[0], form)
    lex = standard_monomials(fglm(ring, MonomialOrder(LEX, basis.order.nvars)))
    form = hermite_form(lex.source, lex) if matrix else None
    return SolveResult(variables, report, lex, form, lex)


def _matrix_strings(form: HermiteForm) -> list[list[str]]:
    """H is symmetric and mostly zero on sparse rings: each row starts as
    "0"s, and each nonzero entry is stringified once, for r <= c, and
    written to both mirror positions."""
    n = len(form.entries)
    rows = [["0"] * n for _ in range(n)]
    for r, row in enumerate(form.entries):
        strings = rows[r]
        for c in compress(range(r, n), row[r:]):
            strings[c] = rows[c][r] = str(row[c])
    return rows


def _emit_text(solved: SolveResult, matrix: list[list[str]] | None, out: TextIO) -> None:
    names, report = solved.variables, solved.report
    basis_names = [format_monomial(m, names) for m in solved.staircase.monomials]
    print(f"variables: {', '.join(names)}", file=out)
    print(f"order: {solved.staircase.order.kind}", file=out)
    print(f"quotient dimension: {report.quotient_dimension}", file=out)
    print(f"basis: {', '.join(basis_names) if basis_names else '(empty)'}", file=out)
    if matrix is not None:
        print("Hermite matrix:", file=out)
        for row in matrix:
            print(" ".join(row), file=out)
    print(f"number of complex solutions: {report.complex_count}", file=out)
    print(f"number of real solutions: {report.real_count}", file=out)


def _emit_json(solved: SolveResult, matrix: list[list[str]], out: TextIO) -> None:
    names, report = solved.variables, solved.report
    payload = {
        "variables": names,
        "order": solved.staircase.order.kind,
        "quotient_dimension": report.quotient_dimension,
        "basis": [format_monomial(m, names) for m in solved.staircase.monomials],
        "hermite_matrix": matrix,
        "rank": report.rank,
        "signature": report.signature,
        "distinct_complex_solutions": report.complex_count,
        "distinct_real_solutions": report.real_count,
    }
    # One key per line and one matrix row per line: `indent` would switch
    # json to its pure-Python encoder.  A row is joined by hand, as
    # json.dumps would write it: the str of an int or a Fraction holds only
    # digits, "-" and "/", which JSON strings take unescaped.
    fields = []
    for key, value in payload.items():
        if key == "hermite_matrix" and value:
            text = "[\n" + ",\n".join('    ["' + '", "'.join(row) + '"]' for row in value) + "\n  ]"
        else:
            text = json.dumps(value)
        fields.append(f"  {json.dumps(key)}: {text}")
    print("{\n" + ",\n".join(fields) + "\n}", file=out)


def run_solve(config: RunConfiguration, out: TextIO | None = None, err: TextIO | None = None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        text = config.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_PARSE
    with_matrix = config.json_output or config.print_matrix
    try:
        solved = _solve_text(text, config.order_kind, with_matrix)
    except ParseError as exc:
        print(f"parse error: {exc}", file=err)
        return EXIT_PARSE
    except NotZeroDimensionalError:
        print("error: the ideal is not zero-dimensional", file=err)
        return EXIT_NOT_ZERO_DIMENSIONAL
    except DimensionLimitError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_DIMENSION_LIMIT
    except ValueError as exc:
        print(f"internal error: {exc}", file=err)
        return EXIT_ORACLE_MISMATCH
    if config.cross_check:
        from .separating import mismatch  # loaded only when --check runs

        found = mismatch(solved.report, solved.lex)
        if found is not None:
            print(f"oracle mismatch: {found}", file=err)
            return EXIT_ORACLE_MISMATCH
    try:
        matrix = _matrix_strings(solved.form) if with_matrix else None
    except ValueError as exc:
        print(f"error: the Hermite matrix cannot be printed exactly: {exc}", file=err)
        return EXIT_OUTPUT_LIMIT
    (_emit_json if config.json_output else _emit_text)(solved, matrix, out)
    return EXIT_OK


def sphere_family(n: int) -> list[str]:
    """x1 = 1 intersected with growing spheres; one simple real solution."""
    polys = ["x1-1"]
    for k in range(2, n + 1):
        polys.append("+".join(f"x{i}^2" for i in range(1, k + 1)) + "-1")
    return polys


def degree_family(d: int) -> list[str]:
    """The diagonal x1 = x2 against x1^d = x2; roots of t^d = t on the diagonal."""
    return ["x1-x2", f"x1^{d}-x2"]


def _degree_family_expected(d: int) -> tuple[int, int]:
    """t^d - t = t * (t^(d-1) - 1): 0 and the (d-1)-th roots of unity, all
    distinct; the real ones are 0, 1 and, when d - 1 is even, -1."""
    return d, 3 if d % 2 else 2


@dataclass(frozen=True)
class BenchResult:
    family: str
    parameter: int
    quotient_dimension: int
    complex_count: int
    real_count: int
    seconds: float


def _timed_solve(texts: list[str], repeats: int) -> tuple[HermiteReport, float]:
    best = None
    report = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        report = _solve_text("\n".join(texts), GREVLEX).report
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return report, best


def run_bench(
    max_spheres: int = 5,
    max_degree: int = 7,
    repeats: int = 3,
    out: TextIO | None = None,
) -> list[BenchResult]:
    """Run both benchmark families, asserting counts and reporting wall time.

    Times are informational (machine-specific); the counts are checked against
    closed-form expectations.  Raises OracleMismatchError if any count is
    wrong.
    """
    if max_spheres < 2 or max_degree < 2:
        raise ValueError("benchmark families start at n = 2 and d = 2")
    out = out if out is not None else sys.stdout
    cases = [("sphere", f"n={n}", n, sphere_family(n), (1, 1)) for n in range(2, max_spheres + 1)]
    cases += [
        ("degree", f"d={d}", d, degree_family(d), _degree_family_expected(d))
        for d in range(2, max_degree + 1)
    ]
    results = []
    for family, label, parameter, texts, expected in cases:
        report, seconds = _timed_solve(texts, repeats)
        counts = (report.complex_count, report.real_count)
        if counts != expected:
            raise OracleMismatchError(
                f"{family} family {label}: expected counts {expected}, got {counts}"
            )
        results.append(BenchResult(family, parameter, report.quotient_dimension, *counts, seconds))
        print(
            f"{family} {label}: dimension {report.quotient_dimension}, "
            f"complex {report.complex_count}, real {report.real_count}, "
            f"{seconds:.6f}s",
            file=out,
        )
    return results


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermite-count",
        description="Count distinct complex and real solutions of a "
        "zero-dimensional polynomial system, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a system from a file or inline strings")
    solve.add_argument("file", nargs="?", help="system file (one polynomial per line)")
    solve.add_argument("--poly", action="append", default=[], metavar="STR",
                       help="inline polynomial; repeat for a system")
    solve.add_argument("--order", choices=list(ORDER_KINDS), default=GREVLEX)
    solve.add_argument("--json", action="store_true", help="machine-readable output")
    solve.add_argument("--print-matrix", action="store_true", help="include the matrix in text output")
    solve.add_argument("--check", action="store_true",
                       help="run independent oracles and fail loudly on mismatch")

    bench = sub.add_parser("bench", help="run the scaling benchmark families")
    bench.add_argument("--spheres", type=int, default=5, metavar="N",
                       help="largest sphere-family variable count (default 5)")
    bench.add_argument("--degrees", type=int, default=7, metavar="D",
                       help="largest degree-family exponent (default 7)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    if ns.command == "solve":
        try:
            config = RunConfiguration(
                source_path=ns.file,
                inline_polynomials=tuple(ns.poly),
                order_kind=ns.order,
                json_output=ns.json,
                print_matrix=ns.print_matrix,
                cross_check=ns.check,
            )
        except ValueError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        return run_solve(config)
    try:
        run_bench(max_spheres=ns.spheres, max_degree=ns.degrees)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OracleMismatchError as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return EXIT_ORACLE_MISMATCH
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
