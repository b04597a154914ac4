"""Command-line front end: solve a system and report solution counts, or run
the scaling benchmark families.

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
from pathlib import Path
from typing import Sequence, TextIO

from .groebner import GroebnerBasis, NotZeroDimensionalError, buchberger
from .parsing import ParseError, format_monomial, parse_system
from .poly import GREVLEX, ORDER_KINDS
from .quotient import DimensionLimitError, HermiteReport, hermite_report

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


def _solve_text(text: str, kind: str) -> tuple[list[str], GroebnerBasis, HermiteReport]:
    variables, polys = parse_system(text, kind)
    basis = buchberger(polys, polys[0].order)
    return variables, basis, hermite_report(basis)


def _matrix_strings(report: HermiteReport) -> list[list[str]]:
    return [[str(value) if value else "0" for value in row] for row in report.form.entries]


def _emit_text(
    variables: Sequence[str], report: HermiteReport, matrix: list[list[str]] | None, out: TextIO
) -> None:
    names = list(variables)
    basis_names = [format_monomial(m, names) for m in report.form.basis.monomials]
    print(f"variables: {', '.join(names)}", file=out)
    print(f"order: {report.form.basis.order.kind}", file=out)
    print(f"quotient dimension: {report.quotient_dimension}", file=out)
    print(f"basis: {', '.join(basis_names) if basis_names else '(empty)'}", file=out)
    if matrix is not None:
        print("Hermite matrix:", file=out)
        for row in matrix:
            print(" ".join(row), file=out)
    print(f"number of complex solutions: {report.complex_count}", file=out)
    print(f"number of real solutions: {report.real_count}", file=out)


def _emit_json(
    variables: Sequence[str], report: HermiteReport, matrix: list[list[str]], out: TextIO
) -> None:
    names = list(variables)
    payload = {
        "variables": names,
        "order": report.form.basis.order.kind,
        "quotient_dimension": report.quotient_dimension,
        "basis": [format_monomial(m, names) for m in report.form.basis.monomials],
        "hermite_matrix": matrix,
        "rank": report.rank,
        "signature": report.signature,
        "distinct_complex_solutions": report.complex_count,
        "distinct_real_solutions": report.real_count,
    }
    # One key per line and one matrix row per line, each dumped by the C
    # encoder: `indent` would switch json to its pure-Python encoder.
    fields = []
    for key, value in payload.items():
        if key == "hermite_matrix" and value:
            text = "[\n" + ",\n".join(f"    {json.dumps(row)}" for row in value) + "\n  ]"
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
    try:
        variables, basis, report = _solve_text(text, config.order_kind)
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

        found = mismatch(basis, report)
        if found is not None:
            print(f"oracle mismatch: {found}", file=err)
            return EXIT_ORACLE_MISMATCH
    try:
        matrix = _matrix_strings(report) if config.json_output or config.print_matrix else None
    except ValueError as exc:
        print(f"error: the Hermite matrix cannot be printed exactly: {exc}", file=err)
        return EXIT_OUTPUT_LIMIT
    if config.json_output:
        _emit_json(variables, report, matrix, out)
    else:
        _emit_text(variables, report, matrix, out)
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
        _, _, report = _solve_text("\n".join(texts), GREVLEX)
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
