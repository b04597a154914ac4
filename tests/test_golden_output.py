"""Golden output: the sha256 of the exit code and stdout of a fixed corpus of
solves, against the digests in `golden_output.json` beside this file.

A change that claims byte-identical output (a speed-up, a refactor) must
pass this test unchanged.  The digests were recorded by running this file as
a script, `PYTHONPATH=src python tests/test_golden_output.py`, which rewrites
the JSON; rerun it only where the output is meant to change, and say so.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path
from random import Random

from hermitecount import ORDER_KINDS
from hermitecount.cli import main

from support import DENSE_2_5, FIXTURE_SYSTEMS, dense_lines, staircase_pool

DIGESTS = Path(__file__).resolve().parent / "golden_output.json"
FLAGS = {"text": [], "json": ["--json"], "matrix": ["--print-matrix"], "check": ["--check"]}


def corpus() -> dict[str, list[str]]:
    """{name: lines} of every system in the corpus."""
    systems = {name: text.split("\n") for name, text in FIXTURE_SYSTEMS}
    systems["dense(2,5)"] = DENSE_2_5
    for k, text in enumerate(staircase_pool(7)[:4]):
        systems[f"staircase:7:{k}"] = text.split("\n")
    for k in range(4):
        systems[f"dense(3,2):{k}"] = dense_lines(Random(k), 3, 2)
        systems[f"dense(2,4):{k}"] = dense_lines(Random(k), 2, 4)
    return systems


def digest(argv: list[str]) -> str:
    """sha256 of the exit code, a newline, and stdout of `main(argv)`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


def digests() -> dict[str, str]:
    """{"system/order/flag": digest} over the corpus, every order and flag."""
    return {
        f"{name}/{kind}/{flag}": digest(["solve", "--order", kind, *extra, *(f"--poly={p}" for p in lines)])
        for name, lines in corpus().items()
        for kind in ORDER_KINDS
        for flag, extra in FLAGS.items()
    }


def test_output_matches_the_recorded_digests():
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert len(expected) == 21 * 3 * 4
    got = digests()
    assert [key for key in expected if got.get(key) != expected[key]] == []
    assert got.keys() == expected.keys()


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(digests(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}", file=sys.stderr)
