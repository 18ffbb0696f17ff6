"""Golden CLI outputs: each command's stdout bytes and exit code.

The files under tests/golden/ hold the stdout of the commands below.  To
rewrite them after an intended output change, run

    PYTHONPATH=src python tests/test_golden.py --write

and review the diff.  Commands whose output carries a MILP witness are left
out, so the comparison checks this package rather than the solver build.
"""

import contextlib
import io
import os
import sys

import pytest

from simonovits import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# K_{3,3,3} in the inline format
K333 = ("9:0-3,0-4,0-5,0-6,0-7,0-8,1-3,1-4,1-5,1-6,1-7,1-8,2-3,2-4,2-5,"
        "2-6,2-7,2-8,3-6,3-7,3-8,4-6,4-7,4-8,5-6,5-7,5-8")

# (file name, argv, exit code)
CASES = [
    ("analyze-triangle.json", ["analyze-pattern", "--pattern", "triangle"], 0),
    ("analyze-c5.json", ["analyze-pattern", "--pattern", "c5"], 0),
    ("analyze-k4.json", ["analyze-pattern", "--pattern", "k4"], 0),
    ("analyze-k5.json", ["analyze-pattern", "--pattern", "k5"], 0),
    ("scan-c5.csv", ["scan-threshold", "--pattern", "c5", "--n-grid", "8,10",
                     "--trials", "8", "--seed", "3", "--no-timing"], 0),
    ("scan-c5-n17.csv", ["scan-threshold", "--pattern", "c5", "--n-grid", "17",
                         "--multipliers", "0.5,1", "--trials", "4",
                         "--seed", "1", "--no-timing"], 0),
    ("check-k5-triangle.json", ["check-simonovits", "--graph", "k5",
                                "--pattern", "triangle"], 0),
    ("check-c5-triangle.json", ["check-simonovits", "--graph", "c5",
                                "--pattern", "triangle"], 3),
    ("check-k333-triangle.json", ["check-simonovits", "--graph", K333,
                                  "--pattern", "triangle"], 0),
    ("check-k5-c5.json", ["check-simonovits", "--graph", "k5",
                          "--pattern", "c5"], 3),
    ("check-petersen-triangle.json", ["check-simonovits", "--graph",
                                      "petersen", "--pattern", "triangle"], 3),
    ("switching-n12.json", ["simulate-switching", "--n", "12", "--p", "0.5",
                            "--runs", "4", "--seed", "3"], 0),
    ("switching-k4-n12.json", ["simulate-switching", "--pattern", "k4",
                               "--n", "12", "--p", "0.7", "--runs", "4",
                               "--seed", "1"], 0),
    ("lemma-fql.json", ["verify-lemma", "--lemma", "fql"], 0),
    ("lemma-high.json", ["verify-lemma", "--lemma", "high"], 0),
    ("lemma-balanced.json", ["verify-lemma", "--lemma", "balanced"], 0),
]


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_golden_output(name, argv, code, capsys):
    got_code = cli.main(argv)
    with open(os.path.join(GOLDEN, name), encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert (got_code, capsys.readouterr().out) == (code, expected)


def _write():
    os.makedirs(GOLDEN, exist_ok=True)
    for name, argv, code in CASES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            got = cli.main(argv)
        if got != code:
            raise SystemExit("%s exited %d, expected %d" % (name, got, code))
        with open(os.path.join(GOLDEN, name), "w", encoding="utf-8",
                  newline="") as fh:
            fh.write(buf.getvalue())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_golden.py --write")
    _write()
