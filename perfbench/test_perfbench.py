"""Self-tests of the benchmark, on tiny instances of its families.

    python3 -m pytest perfbench

Run from the root of a checkout; the package is imported from `src/`.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import calibration  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
from hermitecount import quotient  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import DENSE, POOL, STAIRCASE, WORKLOADS, Workload, staircase_counts  # noqa: E402

TINY_DENSE = Workload("tiny-dense", DENSE, nvars=2, size=2)
TINY_CHECK = Workload("tiny-check", DENSE, nvars=2, size=2, check=True)
TINY_STAIRCASE = Workload("tiny-staircase", STAIRCASE, nvars=2, size=5)


@pytest.mark.parametrize("workload", list(WORKLOADS.values()), ids=list(WORKLOADS))
def test_generators_are_deterministic_per_seed(workload):
    first = workload.instances(7)
    assert first == workload.instances(7)
    assert first != workload.instances(8)
    assert len(first) == POOL and len({i.text for i in first}) > 1
    assert all(isinstance(line, str) for i in first for line in i.text)


@pytest.mark.parametrize("power, real", [(5, 5), (4, 3)])
def test_staircase_closed_form_matches_pipeline(power, real):
    workload = Workload("tiny-staircase", STAIRCASE, nvars=2, size=power)
    assert staircase_counts(2, power) == (2 * (power - 1) + 1, real)
    for k in range(3):
        outcome = harness.solve_untraced(workload, k, workload.instance(1, k).text)
        assert outcome.counts == harness.expected_counts(workload, workload.instance(1, k))


@pytest.mark.parametrize("nvars, degree, order", [(2, 2, "grevlex"), (2, 3, "grevlex"), (3, 2, "lex")])
def test_dense_resultant_counts_match_pipeline(nvars, degree, order):
    workload = Workload("tiny-dense", DENSE, nvars=nvars, size=degree, order=order)
    reals = set()
    for k in range(8):
        instance = workload.instance(1, k)
        outcome = harness.solve_untraced(workload, k, instance.text)
        assert outcome.counts[0] == degree**nvars
        assert harness.expected_counts(workload, instance) == outcome.counts
        reals.add(outcome.counts[1])
    assert len(reals) > 1


@pytest.mark.parametrize("traced", [False, True])
def test_every_solve_is_validated(traced):
    tracer = Tracer() if traced else None
    result = harness.run(TINY_STAIRCASE, TINY_STAIRCASE.instances(1), 0.3, tracer)
    assert result.attempted >= (2 if traced else 1)
    assert result.failed == 0
    assert len(result.traced) == (len(result.solves) if traced else 0)


def test_undecidable_instances_are_skipped():
    # Instance 41 has 3 distinct solutions, not 4: its resultant is not squarefree.
    undecidable, decidable = TINY_DENSE.instance(1, 41), TINY_DENSE.instance(1, 0)
    assert harness.expected_counts(TINY_DENSE, undecidable) is None
    result = harness.run(TINY_DENSE, [undecidable, decidable], 0.1)
    assert result.failed == 0
    assert {o.instance for o in result.solves} == {1}
    with pytest.raises(RuntimeError):
        harness.run(TINY_DENSE, [undecidable], 0.1)


def test_a_solve_that_raises_keeps_its_time():
    def slow_failure(workload, index):
        time.sleep(0.02)
        raise ValueError("injected")

    outcome = harness._guarded(slow_failure, TINY_DENSE, 3)
    assert (outcome.instance, outcome.code) == (3, -1)
    assert outcome.seconds >= 0.02


def test_wrong_expected_count_shows_in_failures(monkeypatch):
    def off_by_one(workload, instance):
        complex_count, real_count = staircase_counts(workload.nvars, workload.size)
        return complex_count + 1, real_count

    monkeypatch.setattr(harness, "expected_counts", off_by_one)
    result = harness.run(TINY_STAIRCASE, TINY_STAIRCASE.instances(1), 0.3)
    assert result.attempted >= 1
    assert result.failed == result.attempted
    assert harness.end_to_end(result, 0.0)["systems_per_s"] == 0.0


def _negated(form):
    return dataclasses.replace(form, entries=tuple(tuple(-x for x in row) for row in form.entries))


def _first_row_and_column_zeroed(form):
    return dataclasses.replace(
        form, entries=tuple(tuple(0 if 0 in (i, j) else x for j, x in enumerate(row))
                            for i, row in enumerate(form.entries))
    )


@pytest.mark.parametrize("perturb", [_negated, _first_row_and_column_zeroed])
@pytest.mark.parametrize("traced", [False, True])
def test_wrong_hermite_matrix_fails_validation(monkeypatch, perturb, traced):
    """A Hermite matrix with the wrong signature (negated) or the wrong rank
    (a zeroed row and column) must fail, so the check is independent of H."""
    instances = [
        i for i in TINY_DENSE.instances(1) if (harness.expected_counts(TINY_DENSE, i) or (0, 0))[1]
    ][:4]
    hermite_form = quotient.hermite_form

    def wrong(basis, staircase):
        return perturb(hermite_form(basis, staircase))

    monkeypatch.setattr(quotient, "hermite_form", wrong)
    monkeypatch.setattr(harness, "hermite_form", wrong)
    result = harness.run(TINY_DENSE, instances, 0.2, Tracer() if traced else None)
    assert result.attempted >= 1
    assert result.failed == result.attempted


def test_traced_self_times_sum_to_the_solve_span():
    tracer = Tracer()
    result = harness.run(TINY_CHECK, TINY_CHECK.instances(1), 0.3, tracer)
    assert result.failed == 0
    own = tracer.self_times()
    roots = [i for i, s in enumerate(tracer.spans) if s.parent is None]
    assert len(roots) == len(result.traced)
    for solve, root in enumerate(roots):
        members = [i for i, s in enumerate(tracer.spans) if s.solve == solve]
        assert sum(own[i] for i in members) == pytest.approx(tracer.spans[root].duration, abs=1e-9)
        assert [tracer.spans[i].name for i in members] == [harness.ROOT_SPAN, *harness.LAYERS]
        assert all(own[i] >= 0 for i in members)


def test_reference_ignores_the_retained_heap():
    """The calibration reference runs no collection, so a large heap left
    behind by the program cannot slow it down."""
    collections = []

    def record(phase, info):
        collections.append(phase)

    before = min(calibration.reference_seconds() for _ in range(5))
    retained = [[] for _ in range(300_000)]
    gc.callbacks.append(record)
    try:
        after = min(calibration.reference_seconds() for _ in range(5))
    finally:
        gc.callbacks.remove(record)
    assert gc.isenabled()
    assert collections == []
    assert after == pytest.approx(before, rel=0.25)
    del retained


def test_metrics_match_the_benchmark_spec():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    tracer = Tracer()
    result = harness.run(TINY_CHECK, TINY_CHECK.instances(1), 0.2, tracer)
    assert set(harness.end_to_end(result, 0.0)) == {m["name"] for m in spec["end_to_end"]}
    assert set(harness.per_layer(result, tracer)) == {m["name"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_missing_package_source_exits_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "check", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
