"""CLI output against the bytes recorded in bench/golden.json.

The digests were taken from the output of the original implementation, so
any change to a printed digit of the README examples, or of the first
seed-0 ops of the benchmark's ``cli-oneshot`` and ``cli-bulk`` workloads,
fails here and not only in the benchmark.  The argv are rebuilt by the
workloads' own ``make_input``.  This test only reads the files under
``bench/``.
"""

import contextlib
import hashlib
import io
import json
import runpy
from pathlib import Path

import pytest

from lexopt.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
GOLDEN = BENCH / "golden.json"

#: The README's examples, in the order of the "readme" digests.
README_EXAMPLES = [
    ["solve", "--alpha", "2", "--beta", "1", "--p1", "1", "--p2", "1", "--P_C", "6"],
    ["bargain", "--p", "0.5", "--W_B", "100", "--S_B", "60", "--C_b", "4", "--C_a", "10",
     "--format", "csv"],
    ["sweep", "--seed", "0", "--format", "csv"],
]


@pytest.mark.parametrize("index", range(len(README_EXAMPLES)))
def test_readme_example_matches_golden_digest(capsys, index):
    digests = json.loads(GOLDEN.read_text(encoding="utf-8"))["readme"]
    assert len(digests) == len(README_EXAMPLES)
    assert main(README_EXAMPLES[index]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digests[index]


def workload(name: str):
    """The benchmark workload class ``name`` at the golden seed, with no digests to check."""
    # run_path compiles the file from its text, so no bytecode is written under bench/
    workloads = runpy.run_path(str(BENCH / "workloads.py"))
    return workloads[name](workloads["GOLDEN_SEED"], workloads["Monitor"](), golden=None)


#: The leading seed-0 cli-oneshot ops checked here: ops cycle through the
#: nine commands and the two formats, so each command and format pair runs 4 times.
CLI_ONESHOT_OPS = 72


def test_cli_oneshot_matches_golden_digests():
    digests = json.loads(GOLDEN.read_text(encoding="utf-8"))["cli-oneshot"][:CLI_ONESHOT_OPS]
    assert len(digests) == CLI_ONESHOT_OPS
    oneshot = workload("CliOneshot")
    pairs = set()
    for i, want in enumerate(digests):
        _, _, argv = oneshot.make_input(i)
        pairs.add((argv[0], argv[-1]))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0, f"op {i}"
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == want, f"op {i}"
    assert len(pairs) == 18  # all nine commands in both formats


#: The leading seed-0 cli-bulk ops checked here; each runs 2000 ticks in both formats.
CLI_BULK_OPS = 32


def test_cli_bulk_matches_golden_digests():
    digests = json.loads(GOLDEN.read_text(encoding="utf-8"))["cli-bulk"][:CLI_BULK_OPS]
    assert len(digests) == CLI_BULK_OPS
    bulk = workload("CliBulk")
    for i, want in enumerate(digests):
        _, argv = bulk.make_input(i)
        texts = []
        for fmt in ("json", "csv"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main([*argv, "--format", fmt]) == 0
            texts.append(out.getvalue().encode())
        # the benchmark's digest of an op: both outputs joined by a NUL byte
        assert hashlib.sha256(b"\0".join(texts)).hexdigest() == want, f"op {i}"
