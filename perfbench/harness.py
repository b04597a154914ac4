"""Timed solves, their validation, and the metrics of one benchmark run.

The timed call is `hermitecount.cli.run_solve` on an in-memory configuration
with JSON output to a buffer: the path a `hermite-count solve --json [--check]`
user runs, minus interpreter start-up.  Every solve is checked against counts
found without the program's Hermite matrix: a closed form on the staircase, a
hidden-variable resultant on the dense families (see elimination.py).
"""

from __future__ import annotations

import io
import itertools
import json
import math
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import Sequence

from hermitecount import (
    GroebnerBasis,
    HermiteForm,
    HermiteReport,
    NotZeroDimensionalError,
    QuotientBasis,
    ParseError,
    buchberger,
    hermite_form,
    linalg,
    parse_system,
    standard_monomials,
)
from hermitecount.cli import (
    EXIT_NOT_ZERO_DIMENSIONAL,
    EXIT_OK,
    EXIT_ORACLE_MISMATCH,
    EXIT_PARSE,
    RunConfiguration,
    run_solve,
)

import calibration
from elimination import dense_counts
from tracing import Tracer
from workloads import DENSE, Instance, Workload, staircase_counts

ROOT_SPAN = "cli.solve"
LAYERS = (
    "parsing.parse_system",
    "groebner.buchberger",
    "groebner.standard_monomials",
    "quotient.hermite_form",
    "linalg.inertia",
    "linalg.inertia_via_charpoly",
)
COUNTS = (
    "groebner.basis_size",
    "groebner.basis_terms",
    "groebner.coeff_bits",
    "groebner.staircase_box",
    "groebner.staircase_yield",
    "quotient.dim",
    "quotient.hermite_nonzero",
    "quotient.hermite_bits",
)


@dataclass
class Outcome:
    """One solve: its instance, timed wall seconds, exit code and reported
    counts.

    `scale` turns its wall seconds into reference-machine seconds.  `passed`
    is set at the end of the run.
    """

    instance: int
    seconds: float
    code: int
    counts: tuple[int, int] | None = None
    layer_counts: dict[str, float] = field(default_factory=dict)
    scale: float = 1.0
    passed: bool = False

    @property
    def scaled_seconds(self) -> float:
        return self.seconds * self.scale


def _bits(x: Fraction) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def solve_untraced(workload: Workload, index: int, polys: Sequence[str]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    config = RunConfiguration(
        inline_polynomials=tuple(polys),
        order_kind=workload.order,
        json_output=True,
        cross_check=workload.check,
    )
    code = run_solve(config, out=out, err=err)
    seconds = perf_counter() - start
    outcome = Outcome(index, seconds, code)
    if code == EXIT_OK:
        report = json.loads(out.getvalue())
        outcome.counts = (report["distinct_complex_solutions"], report["distinct_real_solutions"])
    else:
        print(f"solve of instance {index} exited {code}: {err.getvalue().strip()}", file=sys.stderr)
    return outcome


def layer_counts(basis: GroebnerBasis, quotient: QuotientBasis, form: HermiteForm) -> dict[str, float]:
    """Exact work counts read off the returned GroebnerBasis, QuotientBasis
    and HermiteForm; nothing inside the package is patched or wrapped."""
    coeffs = [c for g in basis.generators for _, c in g]
    caps = []
    for var in range(basis.order.nvars):
        pure = [
            lm.exponents[var]
            for lm in basis.leading_monomials()
            if not any(e for i, e in enumerate(lm.exponents) if i != var)
        ]
        caps.append(min(pure))
    box = math.prod(caps)
    entries = [x for row in form.entries for x in row]
    return {
        "groebner.basis_size": len(basis.generators),
        "groebner.basis_terms": len(coeffs),
        "groebner.coeff_bits": max(map(_bits, coeffs), default=0),
        "groebner.staircase_box": box,
        "groebner.staircase_yield": quotient.dimension / box,
        "quotient.dim": quotient.dimension,
        "quotient.hermite_nonzero": sum(1 for x in entries if x),
        "quotient.hermite_bits": max(map(_bits, entries), default=0),
    }


def solve_traced(workload: Workload, index: int, polys: Sequence[str], tracer: Tracer) -> Outcome:
    """The sequence `run_solve` runs, with a span around each public-layer call.

    It differs from `run_solve` only by the spans and by not formatting the
    output.  The univariate oracles that `--check` adds for one-variable
    systems are left out: no workload has one variable.
    """
    text = "\n".join(polys)
    code = EXIT_OK
    with tracer.span(ROOT_SPAN):
        start = perf_counter()
        try:
            with tracer.span("parsing.parse_system"):
                _, system = parse_system(text, workload.order)
            with tracer.span("groebner.buchberger"):
                basis = buchberger(system, system[0].order)
            with tracer.span("groebner.standard_monomials"):
                quotient = standard_monomials(basis)
            with tracer.span("quotient.hermite_form"):
                form = hermite_form(basis, quotient)
            with tracer.span("linalg.inertia"):
                result = linalg.inertia(form.rows())
            report = HermiteReport(
                form=form,
                rank=result.rank,
                signature=result.signature,
                complex_count=result.rank,
                real_count=result.signature,
                quotient_dimension=quotient.dimension,
            )
            if workload.check:
                with tracer.span("linalg.inertia_via_charpoly"):
                    oracle = linalg.inertia_via_charpoly(form.rows())
                if (oracle.rank, oracle.signature) != (report.rank, report.signature):
                    code = EXIT_ORACLE_MISMATCH
        except ParseError:
            code = EXIT_PARSE
        except NotZeroDimensionalError:
            code = EXIT_NOT_ZERO_DIMENSIONAL
        seconds = perf_counter() - start
    outcome = Outcome(index, seconds, code)
    if code == EXIT_OK:
        outcome.counts = (report.complex_count, report.real_count)
        outcome.layer_counts = layer_counts(basis, quotient, form)
    return outcome


def expected_counts(workload: Workload, instance: Instance) -> tuple[int, int] | None:
    """The (complex, real) counts an instance must report, or None if the
    dense route cannot decide them (see elimination.py)."""
    if workload.family == DENSE:
        return dense_counts(instance.system, workload.size)
    return staircase_counts(workload.nvars, workload.size)


@dataclass
class Run:
    """All solves of one run, untraced and traced, and the process's peak
    resident memory at the end of the timed loop."""

    solves: list[Outcome]
    traced: list[Outcome]
    peak_rss_mib: float

    @property
    def attempted(self) -> int:
        return len(self.solves) + len(self.traced)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.solves + self.traced if not o.passed)


def _guarded(solve, workload: Workload, index: int, *args) -> Outcome:
    """A solve that raised is a failure of that solve, not of the run; it is
    recorded with the time it took until it raised."""
    start = perf_counter()
    try:
        return solve(workload, index, *args)
    except Exception:  # noqa: BLE001 - the loop must keep measuring
        traceback.print_exc(file=sys.stderr)
        return Outcome(index, perf_counter() - start, -1)


def run(
    workload: Workload,
    instances: Sequence[Instance],
    seconds: float,
    tracer: Tracer | None = None,
) -> Run:
    """Closed loop, one client: solve instances in turn for `seconds` of wall
    time, then check every solve against its instance's expected counts.

    The calibration reference runs between consecutive solves.  Each instance
    is validated once, before its first solve, outside the timed regions and
    outside the `seconds` budget.  An instance whose counts cannot be decided
    independently (a degenerate dense system) is reported and never solved.
    With a tracer, each instance is solved once untraced and once traced,
    alternating which goes first, so both halves see the same inputs.
    """
    solves: list[Outcome] = []
    traced: list[Outcome] = []
    expected: dict[int, tuple[int, int] | None] = {}
    validating = 0.0
    reference = calibration.reference_seconds()

    def measure(into: list[Outcome], solve, index: int, *args) -> None:
        nonlocal reference
        outcome = _guarded(solve, workload, index, *args)
        after = calibration.reference_seconds()
        outcome.scale = calibration.scale(reference, after)
        reference = after
        into.append(outcome)

    start = perf_counter()
    for k in itertools.count():
        index = k % len(instances)
        if index not in expected:
            began = perf_counter()
            expected[index] = expected_counts(workload, instances[index])
            validating += perf_counter() - began
            if expected[index] is None:
                print(f"instance {index} skipped: its counts cannot be checked", file=sys.stderr)
        if expected[index] is None:
            if len(expected) == len(instances) and not any(expected.values()):
                raise RuntimeError("no instance in the pool can be checked")
            continue
        polys = instances[index].text
        if tracer is None:
            measure(solves, solve_untraced, index, polys)
        elif k % 2 == 0:
            measure(solves, solve_untraced, index, polys)
            measure(traced, solve_traced, index, polys, tracer)
        else:
            measure(traced, solve_traced, index, polys, tracer)
            measure(solves, solve_untraced, index, polys)
        if perf_counter() - start - validating >= seconds:
            break
    result = Run(solves, traced, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    for o in solves + traced:
        o.passed = o.code == EXIT_OK and o.counts is not None and o.counts == expected.get(o.instance)
    return result


def end_to_end(result: Run, setup_seconds: float) -> dict[str, float]:
    """Throughput of verified solves and the median solve, in reference-machine
    seconds, with the set-up time and peak memory."""
    timed = sum(o.scaled_seconds for o in result.solves)
    return {
        "systems_per_s": sum(o.passed for o in result.solves) / timed if timed > 0 else 0.0,
        "solve_s.p50": statistics.median(o.scaled_seconds for o in result.solves),
        "setup_s": setup_seconds,
        "peak_rss_mb": result.peak_rss_mib,
    }


def per_layer(result: Run, tracer: Tracer) -> dict[str, float]:
    """Median self time (reference-machine seconds) and median share of the
    solve span for each layer, median exact counts, and the tracing overhead."""
    solves = tracer.by_solve()
    if len(solves) != len(result.traced):
        raise RuntimeError(f"{len(solves)} traced solve spans for {len(result.traced)} traced solves")
    scales = [o.scale for o in result.traced]
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.s"] = statistics.median(
            layers.get(layer, 0.0) * scale for (_, layers), scale in zip(solves, scales)
        )
        metrics[f"{layer}.share"] = statistics.median(
            layers.get(layer, 0.0) / total for total, layers in solves
        )
    counted = [o.layer_counts for o in result.traced if o.layer_counts]
    for name in COUNTS:
        metrics[name] = statistics.median(c[name] for c in counted) if counted else 0.0
    traced_p50 = statistics.median(total * scale for (total, _), scale in zip(solves, scales))
    plain_p50 = statistics.median(o.scaled_seconds for o in result.solves)
    metrics["trace.overhead"] = traced_p50 / plain_p50 - 1
    return metrics
