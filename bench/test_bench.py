"""Smoke test of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

Runs every workload at a tiny length, untraced and traced, and checks the
result line, that traced and untraced outputs are byte-identical, and that
no run had more than one thread or more than one child process at a time.
Also shows that a one-digit change in an output fails the op's checks on a
seed with golden digests and on one without, that every workload's first op
at the golden seed matches its golden digest and fails on another, and that
the benchmark refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "0.3", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run(workload):
    digests = {}
    for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        done = _run_bench(workload, trace)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, done.stderr
        assert result["attempted"] >= 1
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in listed}
        for name, unit in units.items():
            assert any(line.startswith(f"{workload} {name} = ") and line.endswith(f" {unit}")
                       for line in lines), name
        assert f"{workload} ops_failed_ratio = 0 ratio" in done.stdout

        detail = json.loads((BENCH / "out" / f"{workload}-seed0-trace{trace}.json").read_text())
        assert detail["stamp"]["max_threads"] == 1
        assert detail["stamp"]["max_children"] <= 1
        digests[trace] = detail["digests"]
    common = min(len(digests[0]), len(digests[1]))
    assert common >= 1
    assert digests[0][:common] == digests[1][:common]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run_bench("sim-long", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    import run

    run.use_checkout_program()
    import workloads

    return workloads


def _bump_last_digit(text: str) -> str:
    i = max(i for i, ch in enumerate(text) if ch.isdigit())
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


@pytest.mark.parametrize("seed", [0, 1])
def test_one_digit_fails_a_cli_bulk_op(workloads, seed):
    from spans import plain_call

    wl = workloads.CliBulk(seed, workloads.Monitor(), workloads.load_golden())
    inp = wl.inputs[0]
    out = wl.run(inp, plain_call)
    wl.check(0, inp, out, plain_call)
    for k in range(len(out)):
        changed = list(out)
        changed[k] = (out[k][0], _bump_last_digit(out[k][1]))
        with pytest.raises(workloads.CheckFailed):
            wl.check(0, inp, changed, plain_call)
        if seed == 0:
            with pytest.raises(workloads.CheckFailed, match="golden"):
                wl.check_golden(0, changed)


@pytest.mark.parametrize("seed", [0, 1])
def test_one_digit_fails_a_cli_oneshot_op(workloads, seed):
    from spans import plain_call

    wl = workloads.CliOneshot(seed, workloads.Monitor(), workloads.load_golden())
    inp = wl.inputs[2]
    _, text = workloads.cli_output(inp[2])
    wl.check(2, inp, workloads.Child(0, text.encode(), b"", 0), plain_call)
    changed = workloads.Child(0, _bump_last_digit(text).encode(), b"", 0)
    with pytest.raises(workloads.CheckFailed):
        wl.check(2, inp, changed, plain_call)
    if seed == 0:
        with pytest.raises(workloads.CheckFailed, match="golden"):
            wl.check_golden(2, changed)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_golden_digest_holds_and_fails_a_changed_op(workloads, workload):
    from spans import plain_call

    golden = workloads.load_golden()
    wl = workloads.WORKLOADS[workload](0, workloads.Monitor(), golden)
    out = wl.run(wl.inputs[0], plain_call)
    wl.check_golden(0, out)
    golden[workload] = ["0" * 64] + golden[workload][1:]
    with pytest.raises(workloads.CheckFailed, match="golden"):
        wl.check_golden(0, out)
