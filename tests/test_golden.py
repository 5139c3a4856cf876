"""CLI output against the bytes recorded in bench/golden.json.

The digests were taken from the output of the original implementation, so
any change to a printed digit of the README examples, or of the first
seed-0 ops of the benchmark's ``cli-oneshot`` and ``cli-bulk`` workloads,
fails here and not only in the benchmark.  So does a last-bit change in any
field of the results of the first seed-0 ``alpha-dense`` and ``sim-long``
ops.  The argv and inputs are rebuilt by the workloads' own ``make_input``,
and the library results digested by their own ``run`` and ``digest``.  This
test only reads the files under ``bench/``.
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


def _plain_call(_name, fn, *args, **kwargs):
    """A workload's ``call`` hook with no tracing: the benchmark's untimed call."""
    return fn(*args, **kwargs)


def check_library_digests(name: str, ops: int):
    """Run the first ``ops`` seed-0 ops of library workload ``name`` against their digests."""
    lib = workload(name)
    digests = json.loads(GOLDEN.read_text(encoding="utf-8"))[lib.name][:ops]
    assert len(digests) == ops
    for i, want in enumerate(digests):
        out = lib.run(lib.make_input(i), _plain_call)
        assert lib.digest(out) == want, f"op {i}"
    return lib


#: The leading seed-0 alpha-dense ops checked here: ops cycle through the two
#: Hessian variants with and without cross terms, so each setting runs 16 times.
ALPHA_DENSE_OPS = 64


def test_alpha_dense_matches_golden_digests():
    dense = check_library_digests("AlphaDense", ALPHA_DENSE_OPS)
    settings = {(inp["hessian_variant"], inp["include_cross_terms"])
                for inp in map(dense.make_input, range(ALPHA_DENSE_OPS))}
    assert len(settings) == 4


#: The leading seed-0 sim-long ops checked here; each is a 20-cell sweep of 500 ticks.
SIM_LONG_OPS = 64


def test_sim_long_matches_golden_digests():
    check_library_digests("SimLong", SIM_LONG_OPS)
