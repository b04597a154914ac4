"""Command-line behavior: output shapes, exit codes, flags, and the bench."""

import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from random import Random

import pytest

from hermitecount import (
    GRLEX,
    LEX,
    ORDER_KINDS,
    GroebnerBasis,
    HermiteForm,
    MonomialOrder,
    Polynomial,
    buchberger,
    hermite_report,
    parse_system,
)
from hermitecount import cli, linalg, quotient, separating
from hermitecount.cli import (
    EXIT_DIMENSION_LIMIT,
    EXIT_NOT_ZERO_DIMENSIONAL,
    EXIT_OK,
    EXIT_ORACLE_MISMATCH,
    EXIT_OUTPUT_LIMIT,
    EXIT_PARSE,
    OracleMismatchError,
    RunConfiguration,
    degree_family,
    main,
    run_bench,
    run_solve,
    sphere_family,
)
from hermitecount.linalg import inertia
from hermitecount.parsing import format_monomial

from support import (
    FIXTURE_SYSTEMS,
    dense_lines,
    format_polynomial,
    int_str_limit,
    rand_dense_system,
    rational_systems,
    staircase_pool,
)


def test_solve_circle_hyperbola_counts(capsys):
    code = main(["solve", "--poly", "x1*x2+x2-1", "--poly", "x1^2+x2^2-1"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "number of complex solutions: 4" in out
    assert "number of real solutions: 2" in out
    assert "quotient dimension: 4" in out


def test_solve_positive_dimensional_exits_3(capsys):
    code = main(["solve", "--poly", "x1-x2"])
    err = capsys.readouterr().err
    assert code == EXIT_NOT_ZERO_DIMENSIONAL
    assert "the ideal is not zero-dimensional" in err


def test_solve_print_matrix(capsys):
    code = main(["solve", "--poly", "x1-1", "--poly", "x1^2+x2^2-1", "--print-matrix"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    lines = out.splitlines()
    i = lines.index("Hermite matrix:")
    assert lines[i + 1 : i + 3] == ["2 0", "0 0"]
    assert "number of complex solutions: 1" in out
    assert "number of real solutions: 1" in out


def test_solve_parse_error_exits_2(capsys):
    code = main(["solve", "--poly", "x1^-1"])
    err = capsys.readouterr().err
    assert code == EXIT_PARSE
    assert "1:4" in err


def test_solve_json_schema(capsys):
    code = main(["solve", "--poly", "x1*x2+x2-1", "--poly", "x1^2+x2^2-1", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert payload["variables"] == ["x1", "x2"]
    assert payload["order"] == "grevlex"
    assert payload["quotient_dimension"] == 4
    assert payload["basis"] == ["1", "x2", "x1", "x2^2"]
    assert payload["rank"] == 4
    assert payload["signature"] == 2
    assert payload["distinct_complex_solutions"] == 4
    assert payload["distinct_real_solutions"] == 2
    assert all(isinstance(v, str) for row in payload["hermite_matrix"] for v in row)


@pytest.mark.parametrize("text", [text for _, text in FIXTURE_SYSTEMS], ids=[name for name, _ in FIXTURE_SYSTEMS])
def test_json_has_one_key_and_one_matrix_row_per_line(text, capsys):
    """The --json text loads as the payload that `json.dumps(payload, indent=2)`
    wrote before, with `str` of every entry; each top-level key and each
    matrix row is on one line of its own."""
    assert main(["solve", *(f"--poly={line}" for line in text.split("\n")), "--json"]) == EXIT_OK
    out = capsys.readouterr().out
    variables, polys = parse_system(text)
    report = hermite_report(buchberger(polys, polys[0].order))
    expected = {
        "variables": variables,
        "order": "grevlex",
        "quotient_dimension": report.quotient_dimension,
        "basis": [format_monomial(m, variables) for m in report.form.basis.monomials],
        "hermite_matrix": [[str(x) for x in row] for row in report.form.entries],
        "rank": report.rank,
        "signature": report.signature,
        "distinct_complex_solutions": report.complex_count,
        "distinct_real_solutions": report.real_count,
    }
    assert json.loads(out) == expected
    lines = out.splitlines()
    assert (lines[0], lines[-1]) == ("{", "}")
    fields = iter(lines[1:-1])
    for key, value in expected.items():
        line = next(fields).rstrip(",")
        if key == "hermite_matrix" and value:
            assert line == '  "hermite_matrix": ['
            assert [json.loads(next(fields).rstrip(",")) for _ in value] == value
            assert next(fields).rstrip(",") == "  ]"
            continue
        assert json.loads("{" + line + "}") == {key: value}
    assert next(fields, None) is None


# The fixtures under every order (under lex, Hankel matrices), the unit
# ideal's empty matrix among them, a 77 x 77 staircase with 85 nonzeros, and
# H = [[2, -1/3], [-1/3, 7/9]] of 3*x1^2 + x1 - 1.
JSON_MATRIX_SYSTEMS = [(text, kind) for _, text in FIXTURE_SYSTEMS for kind in ORDER_KINDS]
JSON_MATRIX_SYSTEMS += [(staircase_pool(7)[0], "grevlex"), ("3*x1^2+x1-1", "grevlex")]


def test_matrix_strings_mirror_the_upper_triangle():
    """Each nonzero entry of the symmetric H is stringified once, and the
    text is that of every entry; each `--json` matrix line, joined by hand,
    is `json.dumps` of its row of strings.  An entry past the digit limit
    raises what the first such entry in row order does."""
    seen = set()
    for text, kind in JSON_MATRIX_SYSTEMS:
        form = cli._solve_text(text, kind, matrix=True).form
        strings = [[str(x) for x in row] for row in form.entries]
        assert cli._matrix_strings(form) == strings
        out = io.StringIO()
        config = RunConfiguration(inline_polynomials=tuple(text.split("\n")), order_kind=kind, json_output=True)
        assert run_solve(config, out) == EXIT_OK
        lines = out.getvalue().splitlines()
        if not strings:
            assert '  "hermite_matrix": [],' in lines
            continue
        start = lines.index('  "hermite_matrix": [') + 1
        rows = ["    " + json.dumps(row) for row in strings]
        assert lines[start : start + len(rows) + 1] == [row + "," for row in rows[:-1]] + [rows[-1], "  ],"]
        seen |= set("".join(map("".join, strings)))
    assert {"-", "/"} <= seen
    big = Fraction(-(10**40), 7)
    entries = ((Fraction(-1, 3), 0, big), (0, 0, -5), (big, -5, Fraction(2, 9)))
    assert cli._matrix_strings(HermiteForm(entries, None)) == [[str(x) for x in row] for row in entries]
    limit = int_str_limit()
    if limit is None or limit >= 7000:
        pytest.skip("this interpreter prints entries of any length")
    n = "1" + "0" * 3000
    form = cli._solve_text(f"x1^2-{n}\nx2^2-{n}*x1", "grevlex", matrix=True).form
    with pytest.raises(ValueError) as full:
        [[str(x) for x in row] for row in form.entries]
    with pytest.raises(ValueError) as mirrored:
        cli._matrix_strings(form)
    assert str(mirrored.value) == str(full.value)


def test_json_round_trip_consistency(capsys):
    main(["solve", "--poly", "x1^2-1", "--poly", "x2^2-2", "--poly", "x3^2-x1*x2", "--json"])
    payload = json.loads(capsys.readouterr().out)
    matrix = [[Fraction(v) for v in row] for row in payload["hermite_matrix"]]
    result = inertia(matrix)
    assert result.rank == payload["rank"] == payload["distinct_complex_solutions"]
    assert result.signature == payload["signature"] == payload["distinct_real_solutions"]
    assert len(matrix) == payload["quotient_dimension"] == len(payload["basis"])


def test_solve_with_check_flag_passes(capsys):
    code = main(["solve", "--poly", "x1*x2+x2-1", "--poly", "x1^2+x2^2-1", "--check"])
    assert code == EXIT_OK
    code = main(["solve", "--poly", "x1^3-x1", "--check"])  # and chi of x1 = the generator
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "number of real solutions: 3" in out


def test_check_builds_the_quotient_ring_once(monkeypatch):
    # The audit reads the border matrices that the Hermite matrix was built
    # from, so --check does not build the staircase again.
    calls = []
    build = quotient.standard_monomials

    def counted(basis):
        calls.append(basis)
        return build(basis)

    monkeypatch.setattr(quotient, "standard_monomials", counted)
    config = RunConfiguration(inline_polynomials=("x1*x2+x2-1", "x1^2+x2^2-1"), cross_check=True)
    assert run_solve(config, io.StringIO(), io.StringIO()) == EXIT_OK
    assert len(calls) == 1


def test_check_rejects_a_basis_of_another_ideal(monkeypatch, capsys):
    # The basis of x1^2-1, x2^2-3 under the generators x1^2-1, x2^2-2: monic,
    # reduced and closed under S-pairs, with a Hermite matrix the inertia
    # oracles agree on, but x2^2-2 does not reduce to zero.
    _, wrong = parse_system("x1^2-1\nx2^2-3")
    wrong_generators = buchberger(wrong, wrong[0].order).generators

    def corrupted(polys, order):
        return GroebnerBasis(wrong_generators, order, tuple(polys))

    monkeypatch.setattr(cli, "buchberger", corrupted)
    code = main(["solve", "--poly", "x1^2-1", "--poly", "x2^2-2", "--check"])
    assert code == EXIT_ORACLE_MISMATCH
    assert "does not reduce to zero" in capsys.readouterr().err
    assert main(["solve", "--poly", "x1^2-1", "--poly", "x2^2-2"]) == EXIT_OK


@pytest.mark.parametrize("flags", [[], ["--check"]], ids=["plain", "check"])
def test_a_basis_that_is_not_reduced_exits_4(monkeypatch, capsys, flags):
    # x2^2 in the tail of x1^2-x2^2 is the leading monomial of x2^2-1
    _, generators = parse_system("x1^2-x2^2\nx2^2-1")

    def unreduced(polys, order):
        return GroebnerBasis(tuple(generators), order, tuple(polys))

    monkeypatch.setattr(cli, "buchberger", unreduced)
    assert main(["solve", "--poly", "x1^2-1", "--poly", "x2^2-1", *flags]) == EXIT_ORACLE_MISMATCH
    assert "internal error: basis is not reduced" in capsys.readouterr().err


def drop_first(generators, order):
    return generators[1:]


def perturb_first_tail(generators, order):
    first, *rest = generators
    (lead, one), (mono, c), *others = first.terms
    return (Polynomial(order, [(lead, one), (mono, c + 1), *others]), *rest)


@pytest.mark.parametrize(
    "mutate, own_original, message",
    [
        (drop_first, False, "does not reduce to zero"),
        (perturb_first_tail, False, "does not reduce to zero"),
        # a basis that is its own original ideal: only the commuting
        # multiplication matrices can tell it is no Groebner basis
        (perturb_first_tail, True, "does not commute"),
    ],
    ids=["dropped-generator", "perturbed-tail", "perturbed-tail-own-ideal"],
)
def test_check_rejects_a_mutated_basis(monkeypatch, capsys, mutate, own_original, message):
    # circle-hyperbola: {x1*x2+x2-1, x1^2+x2^2-1, x2^3+x1-1} under grevlex;
    # both mutations keep the ideal zero-dimensional
    true_buchberger = cli.buchberger

    def corrupted(polys, order):
        generators = mutate(true_buchberger(polys, order).generators, order)
        return GroebnerBasis(generators, order, generators if own_original else tuple(polys))

    monkeypatch.setattr(cli, "buchberger", corrupted)
    argv = ["solve", "--poly", "x1*x2+x2-1", "--poly", "x1^2+x2^2-1"]
    assert main(argv + ["--check"]) == EXIT_ORACLE_MISMATCH
    assert message in capsys.readouterr().err
    assert main(argv) == EXIT_OK


def test_solve_many_unary_minus_signs(tmp_path, capsys):
    # the signs are counted, not recursed on; --poly cannot carry a leading -
    path = tmp_path / "system.txt"
    path.write_text("-" * 5000 + "x1\n", encoding="utf-8")
    code = main(["solve", str(path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "number of complex solutions: 1" in out
    assert "number of real solutions: 1" in out


def test_overlong_literal_is_a_parse_error(capsys):
    limit = int_str_limit()
    if limit is None:
        pytest.skip("this interpreter converts integers of any length")
    code = main(["solve", "--poly", "x1-" + "7" * (limit + 700)])
    assert code == EXIT_PARSE
    assert capsys.readouterr().err.startswith("parse error: 1:4: integer literal of")


def test_overlong_output_entry_exits_5(capsys):
    # H holds entries of about 6000 digits; the counts stay printable
    n = "1" + "0" * 3000
    argv = ["solve", "--poly", f"x1^2-{n}", "--poly", f"x2^2-{n}*x1"]
    assert main(argv) == EXIT_OK
    assert "number of real solutions: 2" in capsys.readouterr().out
    if int_str_limit() is None or int_str_limit() >= 7000:
        pytest.skip("this interpreter prints entries of any length")
    for flag in ("--json", "--print-matrix"):
        assert main(argv + [flag]) == EXIT_OUTPUT_LIMIT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the Hermite matrix cannot be printed exactly")


def test_solve_without_variables(capsys):
    # the zero ideal of the constants is one point; a nonzero constant has none
    code = main(["solve", "--poly", "0", "--check"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "quotient dimension: 1" in out
    assert "number of complex solutions: 1" in out
    assert "number of real solutions: 1" in out
    assert main(["solve", "--poly", "3"]) == EXIT_OK
    assert "number of complex solutions: 0" in capsys.readouterr().out
    assert main(["solve", "--poly", "0*x1"]) == EXIT_NOT_ZERO_DIMENSIONAL


def test_solve_from_file(tmp_path, capsys):
    path = tmp_path / "system.txt"
    path.write_text("# tangent line against the unit circle\nvars: x1, x2\nx1-1\nx1^2+x2^2-1\n", encoding="utf-8")
    code = main(["solve", str(path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "number of complex solutions: 1" in out


@pytest.mark.parametrize(
    "header, message",
    [("vars: a b", "1:9: expected ','"), ("vars: a, , b", "1:10: expected a variable name")],
    ids=["missing-comma", "empty-name"],
)
def test_malformed_vars_header_exits_2(tmp_path, capsys, header, message):
    path = tmp_path / "system.txt"
    path.write_text(f"{header}\na-1\n", encoding="utf-8")
    assert main(["solve", str(path)]) == EXIT_PARSE
    assert capsys.readouterr().err == f"parse error: {message}\n"


def test_solve_missing_file(capsys):
    code = main(["solve", "no-such-file.txt"])
    assert code == EXIT_PARSE
    assert capsys.readouterr().err


def test_solve_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "system.txt"
    path.write_bytes(b"\xff\xfe x1\n")
    code = main(["solve", str(path)])
    assert code == EXIT_PARSE
    assert capsys.readouterr().err.startswith("error: ")


def test_exactly_one_input_source_required(capsys):
    assert main(["solve"]) == EXIT_PARSE
    assert main(["solve", "file.txt", "--poly", "x1"]) == EXIT_PARSE


def test_unknown_order_rejected():
    assert main(["solve", "--poly", "x1", "--order", "elimination"]) == EXIT_PARSE


def test_order_flag_changes_basis_not_counts(capsys):
    main(["solve", "--poly", "x1*x2+x2-1", "--poly", "x1^2+x2^2-1", "--order", "lex", "--json"])
    lex_payload = json.loads(capsys.readouterr().out)
    main(["solve", "--poly", "x1*x2+x2-1", "--poly", "x1^2+x2^2-1", "--order", "grevlex", "--json"])
    grevlex_payload = json.loads(capsys.readouterr().out)
    assert lex_payload["basis"] != grevlex_payload["basis"]
    for key in ("rank", "signature", "quotient_dimension"):
        assert lex_payload[key] == grevlex_payload[key]


def direct_solve_text(text, kind, matrix=False):
    """The solve route before FGLM: Buchberger in the requested order, and
    the counts, the staircase and the form all on its ring."""
    variables, polys = parse_system(text, kind)
    basis = buchberger(polys, polys[0].order)
    report = hermite_report(basis)
    return cli.SolveResult(variables, report, report.form.basis, report.form)


def lex_texts():
    def as_text(polys):
        names = [f"x{i + 1}" for i in range(polys[0].nvars)]
        return "\n".join(format_polynomial(p, names) for p in polys)

    texts = [text for _, text in FIXTURE_SYSTEMS]
    texts += ["x1^2\nx2^3-x2", "x1^5-3*x1^2+1/2", "0", "5", "x1-1\nx2+2"]
    # not in shape position: squares(3), and four points on two lines x2 = +-1
    texts += ["x1^2-1\nx2^2-2\nx3^2-3", "x1^2-1\nx2^2-1"]
    texts += [as_text(polys) for _, _, polys in rational_systems(LEX)][::6]
    order = MonomialOrder(LEX, 3)
    texts += [as_text(rand_dense_system(Random(seed), order, 2)) for seed in range(2)]
    return texts


LEX_FLAGS = [["--json"], ["--print-matrix"], ["--json", "--check"], [], ["--check"]]


def assert_solve_prints_what_buchberger_gives(monkeypatch, capsys, kind, flags):
    orders = []
    true_buchberger = cli.buchberger

    def recorded(polys, order):
        orders.append(order.kind)
        return true_buchberger(polys, order)

    for text in lex_texts():
        argv = ["solve", *(f"--poly={line}" for line in text.split("\n")), "--order", kind, *flags]
        monkeypatch.setattr(cli, "buchberger", recorded)
        got = main(argv), capsys.readouterr()
        monkeypatch.setattr(cli, "_solve_text", direct_solve_text)
        expected = main(argv), capsys.readouterr()
        monkeypatch.undo()
        assert got == expected, text
        assert got[0] == EXIT_OK
    assert set(orders) == {"grevlex"}


@pytest.mark.parametrize("flags", LEX_FLAGS)
def test_lex_solve_prints_what_lex_buchberger_gives(monkeypatch, capsys, flags):
    # The counts come from the grevlex ring, and the lex staircase and H from
    # it in shape position or from FGLM's lex ring otherwise; the output and
    # the exit code are those of the basis that Buchberger computes in lex.
    assert_solve_prints_what_buchberger_gives(monkeypatch, capsys, LEX, flags)


@pytest.mark.parametrize("flags", LEX_FLAGS)
def test_grlex_solve_prints_what_grlex_buchberger_gives(monkeypatch, capsys, flags):
    # The counts, the grlex staircase and H come from FGLM's grlex ring, with
    # the output and the exit code of the basis that Buchberger computes in
    # grlex.
    assert_solve_prints_what_buchberger_gives(monkeypatch, capsys, GRLEX, flags)


@pytest.mark.parametrize("flags", LEX_FLAGS)
def test_grlex_solve_builds_one_hermite_matrix(monkeypatch, capsys, flags):
    # The grevlex basis only gives FGLM its staircase: H is built once, on
    # the grlex ring.
    orders = []
    build = quotient.hermite_form

    def counted(basis, ring):
        orders.append(ring.order.kind)
        return build(basis, ring)

    monkeypatch.setattr(quotient, "hermite_form", counted)
    monkeypatch.setattr(cli, "hermite_form", counted)
    argv = ["solve", "--poly", "x1*x2+x2-1", "--poly", "x1^2+x2^2-1", "--order", "grlex", *flags]
    assert main(argv) == EXIT_OK
    assert orders == ["grlex"]


@pytest.mark.parametrize("flags", LEX_FLAGS)
def test_lex_solve_falls_back_to_fglm_on_an_unlucky_prime(monkeypatch, capsys, flags):
    # Three points with x1 = x2^2/3 are in shape position, but the grevlex
    # coordinates of x2^2 are 3*x1: their numerators drop rank modulo 3, so
    # the certificate fails and the solve converts by FGLM instead.  --check
    # audits the grevlex basis, and in the fallback the lex basis as well.
    argv = ["solve", "--poly", "3*x1-x2^2", "--poly", "x2^3-x2", "--order", "lex", *flags]
    expected = main(argv), capsys.readouterr()
    converted, audited = [], []
    true_fglm, true_audit = cli.fglm, separating.audit_basis

    def recorded(ring, order):
        converted.append(order.kind)
        return true_fglm(ring, order)

    def recorded_audit(ring):
        audited.append(ring.source.order.kind)
        return true_audit(ring)

    monkeypatch.setattr(cli, "fglm", recorded)
    monkeypatch.setattr(separating, "audit_basis", recorded_audit)
    calls = count_hermite_and_inertia(monkeypatch)
    assert (main(argv), capsys.readouterr()) == expected and converted == []
    assert audited == (["grevlex"] if "--check" in flags else [])
    assert calls == []  # counts from chi of x2 = t^3 - t
    monkeypatch.setattr(quotient, "PRIME", 3)
    assert (main(argv), capsys.readouterr()) == expected and converted == ["lex"]
    assert audited == (["grevlex", "grevlex", "lex"] if "--check" in flags else [])
    assert calls[:2] == ["hermite_form", "inertia"]  # the grevlex H, then the lex H if printed
    assert expected[0] == EXIT_OK and "x2^2" in expected[1].out


def count_hermite_and_inertia(monkeypatch):
    """The calls that the solve route makes to `hermite_form` and to
    `linalg.inertia`, in order; the --check oracles import their own."""
    calls = []
    build, invert = quotient.hermite_form, linalg.inertia

    def counted_form(*args):
        calls.append("hermite_form")
        return build(*args)

    def counted_inertia(entries):
        calls.append("inertia")
        return invert(entries)

    monkeypatch.setattr(quotient, "hermite_form", counted_form)
    monkeypatch.setattr(cli, "hermite_form", counted_form)
    monkeypatch.setattr(linalg, "inertia", counted_inertia)
    return calls


def all_real(n):
    """x_i^2 = i and x_(n+1) = sum of 2^(i-1) * x_i: 2^n points, all real, in
    shape position, with distinct values of x_(n+1)."""
    return [f"x{i}^2-{i}" for i in range(1, n + 1)] + [
        f"x{n + 1}-" + "-".join(f"{2 ** (i - 1)}*x{i}" for i in range(1, n + 1))
    ]


KATSURA_3 = ["x1+2*x2+2*x3+2*x4-1", "x1^2+2*x2^2+2*x3^2+2*x4^2-x1",
             "2*x1*x2+2*x2*x3+2*x3*x4-x2", "x2^2+2*x1*x3+2*x2*x4-x3"]


@pytest.mark.parametrize("flags", [[], ["--json"], ["--print-matrix"]])
def test_lex_counts_in_shape_position_come_from_chi(monkeypatch, capsys, flags):
    # katsura-3 (D = 8) and all-real(6) (D = 64, at the cap): certified in
    # shape position with chi of x_n squarefree; {x1 - x2, x2^2}, whose chi
    # t^2 is not, and {x1 - x2, x2^2 - 3*x2}, whose chi t^2 - 3t is t^2
    # modulo 3, count on the squarefree part of chi over Z.  Neither the
    # grevlex H nor its inertia is computed, and only the lex H is printed
    cases = [  # the system, PRIME, the counts, and whether chi's exact squarefree part is taken
        (KATSURA_3, None, (8, 6), False),
        (all_real(6), None, (64, 64), False),
        (["x1-x2", "x2^2"], None, (1, 1), True),
        (["x1-x2", "x2^2-3*x2"], 3, (2, 2), True),
    ]
    for polys, prime, counts, exact in cases:
        if prime is not None:
            monkeypatch.setattr(quotient, "PRIME", prime)
        calls = count_hermite_and_inertia(monkeypatch)
        converted, parts = [], []
        true_part = quotient.integer_squarefree_part
        monkeypatch.setattr(cli, "fglm", lambda ring, order: converted.append(order))
        monkeypatch.setattr(quotient, "integer_squarefree_part", lambda chi: parts.append(chi) or true_part(chi))
        assert main(["solve", *(f"--poly={p}" for p in polys), "--order", "lex", *flags]) == EXIT_OK
        assert calls == [] and converted == []
        assert len(parts) == exact
        out = capsys.readouterr().out
        if "--json" in flags:
            payload = json.loads(out)
            assert (payload["distinct_complex_solutions"], payload["distinct_real_solutions"]) == counts
        else:
            assert f"number of complex solutions: {counts[0]}" in out
            assert f"number of real solutions: {counts[1]}" in out
        monkeypatch.undo()
    assert quotient.MAX_CHARPOLY_DIMENSION == 64


@pytest.mark.parametrize(
    "polys, dimension, counts",
    [(all_real(7), 128, (128, 128))],  # in shape position, D above the cap
    ids=["above-the-cap"],
)
def test_lex_counts_fall_back_to_the_inertia_of_h(monkeypatch, capsys, polys, dimension, counts):
    # in shape position, so FGLM does not run
    calls = count_hermite_and_inertia(monkeypatch)
    converted = []
    monkeypatch.setattr(cli, "fglm", lambda ring, order: converted.append(order))
    assert main(["solve", *(f"--poly={p}" for p in polys), "--order", "lex"]) == EXIT_OK
    assert calls == ["hermite_form", "inertia"] and converted == []
    out = capsys.readouterr().out
    assert f"quotient dimension: {dimension}" in out
    assert f"number of complex solutions: {counts[0]}" in out
    assert f"number of real solutions: {counts[1]}" in out
    assert quotient.MAX_CHARPOLY_DIMENSION < 128


def spy_on_tau(monkeypatch):
    """The parent chain of each `_traces` call and the matrix of each
    `transpose` call that `quotient` makes.  Both stay referenced, so two
    entries are the same ring's, or the same variable's, exactly when they
    are the same object."""
    traced, transposed = [], []
    true_traces, true_transpose = quotient._traces, quotient.transpose

    def traces(matrices, steps):
        traced.append(steps)
        return true_traces(matrices, steps)

    def transpose(columns):
        transposed.append(columns)
        return true_transpose(columns)

    monkeypatch.setattr(quotient, "_traces", traces)
    monkeypatch.setattr(quotient, "transpose", transpose)
    return traced, transposed


def test_tau_and_the_transposes_are_built_once_per_ring(monkeypatch, capsys):
    # In and out of shape position, radical or not, through FGLM, change_order
    # and the lex fallback above the chi cap (all-real(7), D = 128): each ring
    # runs `_traces` at most once, and transposes each matrix at most once.
    systems = [
        ["x1*x2+x2-1", "x1^2+x2^2-1"],
        ["x1-x2", "x2^2"],
        ["(x1^2-2)^2*(x1+1)"],
        ["3*x1-x2^2", "x2^3-x2"],
        ["x2^2-x1*x3", "x1^3-1", "x3^3-2"],
        ["x1^2-1", "x2^2-2", "x3^2-3"],
    ]
    corpus = [
        (system, kind, flags)
        for system in systems
        for kind in ORDER_KINDS
        for flags in ([], ["--json"], ["--check"], ["--json", "--check"])
    ]
    corpus += [(all_real(7), LEX, flags) for flags in ([], ["--check"])]
    for polys, kind, flags in corpus:
        traced, transposed = spy_on_tau(monkeypatch)
        assert main(["solve", *(f"--poly={p}" for p in polys), "--order", kind, *flags]) == EXIT_OK
        capsys.readouterr()
        assert traced, (polys, kind, flags)
        assert len(set(map(id, traced))) == len(traced), (polys, kind, flags)
        assert len(set(map(id, transposed))) == len(transposed), (polys, kind, flags)
        monkeypatch.undo()


def spy_on_krylov(monkeypatch):
    """The ring of each `QuotientBasis.krylov` run, whose mod-p echelon
    certifies shape position, and the vectors of each `traces_of` call that
    `quotient` makes; `separating` pairs tau through its own reference.
    Both stay referenced, so two vectors are one exactly when their ids are."""
    certified, paired = [], []
    true_krylov, true_traces_of = quotient.QuotientBasis.krylov.func, quotient.traces_of

    def krylov(ring):
        certified.append(ring)
        return true_krylov(ring)

    def traces_of(tau, vectors):
        vectors = list(vectors)
        paired.extend(vectors)
        return true_traces_of(tau, vectors)

    monkeypatch.setattr(quotient.QuotientBasis.krylov, "func", krylov)
    monkeypatch.setattr(quotient, "traces_of", traces_of)
    return certified, paired


@pytest.mark.parametrize("flags", [[], ["--json"], ["--print-matrix"], ["--check"]])
def test_a_lex_solve_runs_one_krylov_pass_and_pairs_each_vector_once(monkeypatch, capsys, flags):
    # katsura-3 and dense(3,2) are in shape position with D = 8: the echelon
    # runs once per ring, and tau meets v_0 .. v_D once, for chi and the
    # first Hankel sums, and v_(D+1) .. v_(2D-2) once, for the printed matrix
    for polys in (KATSURA_3, dense_lines(Random(1), 3, 2)):
        certified, paired = spy_on_krylov(monkeypatch)
        assert main(["solve", *(f"--poly={p}" for p in polys), "--order", "lex", *flags]) == EXIT_OK
        capsys.readouterr()
        (ring,) = certified
        dim = ring.dimension
        assert dim == 8 and paired[: dim + 1] == ring.krylov
        assert len(paired) == (dim + 1 if flags in ([], ["--check"]) else 2 * dim - 1), (polys, flags)
        assert len(set(map(id, paired))) == len(paired)
        monkeypatch.undo()


def test_check_catches_a_wrong_real_count_from_chi(monkeypatch, capsys):
    # circle-hyperbola: 4 points in shape position under lex, 2 of them real.
    # One more real root from `real_root_count` reaches the separating-form
    # oracle as well, which then agrees with the wrong count: only the
    # inertia of the grevlex H can refuse it.
    true_count = quotient.real_root_count

    def one_more(chi):
        return true_count(chi) + 1

    monkeypatch.setattr(quotient, "real_root_count", one_more)
    monkeypatch.setattr(separating, "real_root_count", one_more)
    argv = ["solve", "--poly", "x1*x2+x2-1", "--poly", "x1^2+x2^2-1", "--order", "lex"]
    assert main(argv) == EXIT_OK
    assert "number of real solutions: 3" in capsys.readouterr().out
    assert main(argv + ["--check"]) == EXIT_ORACLE_MISMATCH
    assert "chi of x_n gives rank 4 and signature 3, the trace form 4 and 2" in capsys.readouterr().err
    report = cli._solve_text("x1*x2+x2-1\nx1^2+x2^2-1", LEX).report
    assert report.form.entries is None and (report.rank, report.signature) == (4, 3)
    assert separating.separating_form_mismatch(report.form.basis, report.rank, report.signature) is None


def test_lex_solve_exit_codes_come_from_the_grevlex_ring(capsys):
    assert main(["solve", "--poly", "x1*x2", "--order", "lex"]) == EXIT_NOT_ZERO_DIMENSIONAL
    assert "the ideal is not zero-dimensional" in capsys.readouterr().err
    start = time.perf_counter()
    assert main(["solve", "--poly", "x1^1000000000", "--order", "lex"]) == EXIT_DIMENSION_LIMIT
    assert time.perf_counter() - start < 1
    assert f"over {quotient.MAX_DIMENSION} standard monomials" in capsys.readouterr().err


def test_output_is_deterministic(capsys):
    argv = ["solve", "--poly", "x1*x2+x2-1", "--poly", "x1^2+x2^2-1", "--print-matrix"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_run_configuration_validates_source():
    with pytest.raises(ValueError):
        RunConfiguration()
    with pytest.raises(ValueError):
        RunConfiguration(source_path="f.txt", inline_polynomials=("x1",))
    config = RunConfiguration(inline_polynomials=("x1-1",))
    assert config.order_kind == "grevlex"


def test_run_solve_empty_variety(capsys):
    config = RunConfiguration(inline_polynomials=("x1", "x1+1"))
    assert run_solve(config) == EXIT_OK
    out = capsys.readouterr().out
    assert "number of complex solutions: 0" in out
    assert "number of real solutions: 0" in out
    assert "basis: (empty)" in out


def test_family_generators():
    assert sphere_family(3) == ["x1-1", "x1^2+x2^2-1", "x1^2+x2^2+x3^2-1"]
    assert degree_family(4) == ["x1-x2", "x1^4-x2"]


def test_run_bench_counts(capsys):
    results = run_bench(max_spheres=3, max_degree=4, repeats=1)
    out = capsys.readouterr().out
    spheres = [r for r in results if r.family == "sphere"]
    degrees = [r for r in results if r.family == "degree"]
    assert [(r.complex_count, r.real_count) for r in spheres] == [(1, 1), (1, 1)]
    assert [(r.complex_count, r.real_count) for r in degrees] == [(2, 2), (3, 3), (4, 2)]
    assert [r.quotient_dimension for r in spheres] == [2, 4]
    assert all(r.seconds >= 0 for r in results)
    assert out.count("sphere n=") == 2
    assert out.count("degree d=") == 3


def test_bench_cli_exit_ok(capsys):
    assert main(["bench", "--spheres", "2", "--degrees", "2"]) == EXIT_OK
    assert capsys.readouterr().out


def test_bench_exits_4_on_a_count_mismatch(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_degree_family_expected", lambda d: (d + 1, d))
    with pytest.raises(OracleMismatchError):
        run_bench(max_spheres=2, max_degree=2, out=io.StringIO())
    assert main(["bench", "--spheres", "2", "--degrees", "2"]) == EXIT_ORACLE_MISMATCH
    err = capsys.readouterr().err
    assert err == "oracle mismatch: degree family d=2: expected counts (3, 2), got (2, 2)\n"


def test_bench_rejects_too_small_families(capsys):
    assert main(["bench", "--spheres", "1"]) == EXIT_PARSE
    with pytest.raises(ValueError):
        run_bench(max_spheres=1)


def test_importing_the_cli_loads_no_oracle_module():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    # the modules after the import, after an unchecked solve, after an
    # unchecked lex solve whose counts come from chi, after a checked one
    script = """
import io, sys
from hermitecount import cli
print(*sorted(sys.modules))
for order, check in (("grevlex", False), ("lex", False), ("lex", True)):
    config = cli.RunConfiguration(inline_polynomials=("x1^2+x2^2-5", "x1*x2-2"), order_kind=order, cross_check=check)
    assert cli.run_solve(config, io.StringIO(), io.StringIO()) == cli.EXIT_OK
    print(*sorted(sys.modules))
"""
    loaded, unchecked, lex, checked = (
        line.split()
        for line in subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        ).stdout.splitlines()
    )
    assert "hermitecount.cli" in loaded
    assert "hermitecount.univariate" not in loaded
    assert "hermitecount.separating" not in loaded
    assert "hermitecount.separating" not in unchecked
    assert "hermitecount.separating" not in lex
    assert "hermitecount.separating" in checked
    assert "hermitecount.univariate" not in checked


def test_solve_rejects_an_expansion_beyond_the_bound(capsys):
    assert main(["solve", "--poly", "(x1+x2+x3+x4)^40"]) == EXIT_PARSE
    assert "parse error: 1:14: expanding this power takes over 250000 term products" in capsys.readouterr().err


@pytest.mark.parametrize("exponent", [1_000_000_000, quotient.MAX_DIMENSION + 1])
def test_solve_refuses_a_quotient_past_the_dimension_cap(capsys, exponent):
    start = time.perf_counter()
    assert main(["solve", "--poly", f"x1^{exponent}"]) == EXIT_DIMENSION_LIMIT
    assert time.perf_counter() - start < 1
    assert f"over {quotient.MAX_DIMENSION} standard monomials" in capsys.readouterr().err


def test_solve_wide_staircase(capsys):
    # x1^400 = x2^400 = x1*x2 = 0: the origin with multiplicity 799
    code = main(["solve", "--poly", "x1^400", "--poly", "x2^400", "--poly", "x1*x2"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "quotient dimension: 799" in out
    assert "number of complex solutions: 1" in out
    assert "number of real solutions: 1" in out
