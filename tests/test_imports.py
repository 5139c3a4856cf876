"""numpy stays off the import path of commands that only do float arithmetic.

Each check runs in a fresh interpreter, because this test process has numpy
loaded already.
"""

import json
import subprocess
import sys

PROBE = """
import contextlib, io, json, sys
import lexopt
loaded = {"import lexopt": "numpy" in sys.modules}
from lexopt.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"{argv} exited with {code}")
    loaded[argv[0]] = "numpy" in sys.modules
print(json.dumps(loaded))
"""

PROBLEM = ["--alpha", "2", "--beta", "1", "--p1", "1", "--p2", "1", "--P_C", "6"]
CASE = ["--p", "0.5", "--W_B", "100", "--S_B", "60", "--C_b", "4", "--C_a", "10"]

NUMPY_FREE = [
    ["bargain", *CASE],
    ["classify", *CASE],
    ["solve", *PROBLEM],
    ["hessian", *PROBLEM, "--cross_terms"],
    ["phi", "--rates", "[[0.2, 0.3], [0.1, 0.4]]", "--L", "[5, -2]", "--R_B", "11",
     "--P_C", "55"],
    ["alpha-search", "--alpha_grid", "[0.25, 0.5, 2]", "--beta", "0.5", "--p1", "1",
     "--p2", "1", "--P_C", "2", "--hessian_variant", "DirectForm"],
    ["comply", "--utilities", '{"a": 3, "b": 1}', "--allowed", '["b"]'],
    ["simulate", "--seed", "0", "--ticks", "5"],
    ["sweep", "--seed", "0", "--ticks", "5", "--C_a_grid", "[0, 10, 30]"],
]


def probe(commands: list[list[str]]) -> dict[str, bool]:
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(commands)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_arithmetic_commands_never_import_numpy():
    loaded = probe(NUMPY_FREE)
    assert loaded == {"import lexopt": False, **{argv[0]: False for argv in NUMPY_FREE}}


def test_probe_sees_numpy_where_it_is_used():
    # the default sweep grid and stochastic draws do load numpy, so the probe
    # above would notice an import
    assert probe([["sweep", "--seed", "0", "--ticks", "2"]])["sweep"]
    assert probe([["simulate", "--seed", "0", "--ticks", "2", "--stochastic"]])["simulate"]
