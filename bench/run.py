"""Run one lexopt benchmark workload and print its metrics.

    python3 bench/run.py --workload sim-long --seed 0 --seconds 25 --trace 0

With ``--trace 0`` every op is timed with tracing off and the run reports
the end-to-end metrics.  With ``--trace 1`` every op runs once untraced and
once traced, their outputs must be byte-identical, and the run reports the
per-layer metrics.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the environment stamp.  The stamp, the failures, the per-op output
digests and, in a traced run, the spans also go to
``bench/out/<workload>-seed<seed>-trace<0|1>.json``.

The program measured is ``src/lexopt`` of the checkout this file sits in.
Without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

from spans import Tracer, plain_call

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("cli-oneshot", "alpha-dense", "sim-long", "cli-bulk")
#: Fresh processes timed from spawn to the end of set-up, spread over the run.
SETUP_SAMPLES = 12
#: One process on one thread: numpy's BLAS would otherwise start a thread per core.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def use_checkout_program() -> None:
    """Import lexopt from this checkout's src/, here and in every child, on one thread."""
    os.environ.update(SINGLE_THREAD_ENV)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="how long the ops run; at least one op always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


class Tally:
    """What one pass of ops did: op times, output digests and failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.times: list[float] = []
        self.traced_times: list[float] = []
        self.digests: list[str] = []

    def count_setup_checks(self, wl) -> None:
        for what, error in wl.setup_checks:
            self.attempted += 1
            if error is not None:
                self.failures.append(f"{wl.name} set-up check {what}: {error}")


class SetupSampler:
    """Times fresh processes from spawn to the end of set-up, between ops.

    The samples are spread evenly over the run so that they meet the same
    machine load as the ops do.
    """

    def __init__(self, args, monitor, seconds: float) -> None:
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                    "--seed", str(args.seed), "--setup-only"]
        self.monitor = monitor
        self.due = [seconds * (k + 0.5) / SETUP_SAMPLES for k in range(SETUP_SAMPLES)]
        self.samples: list[float] = []

    def take(self, elapsed: float) -> float:
        """Take the samples due by ``elapsed``; return the seconds they took."""
        spent = 0.0
        while len(self.samples) < len(self.due) and elapsed >= self.due[len(self.samples)]:
            t0 = perf_counter()
            child = self.monitor.spawn(self.cmd)
            self.samples.append(perf_counter() - t0)
            spent += self.samples[-1]
            if child.returncode != 0:
                raise SystemExit(f"error: set-up failed: {child.stderr.decode(errors='replace')}")
        return spent


def run_ops(wl, seconds, min_ops, tracer, monitor, tally, sampler=None) -> None:
    """Run ops until ``seconds`` of op time have passed and at least ``min_ops`` ran.

    Time spent in ``sampler`` between ops does not count toward ``seconds``.
    """
    start = perf_counter()
    paused = 0.0
    i = 0
    while i < min_ops or perf_counter() - start - paused < seconds:
        inp = wl.inputs[i % len(wl.inputs)]
        tally.attempted += 1
        try:
            if tracer is None:
                t0 = perf_counter()
                out = wl.run(inp, plain_call)
                tally.times.append(perf_counter() - t0)
                wl.check(i, inp, out, plain_call)
            else:
                out = _traced_op(wl, i, inp, tracer, tally)
            wl.check_golden(i, out)
            tally.digests.append(wl.digest(out))
        except Exception as exc:  # a failed op is counted and the run goes on
            tally.failures.append(f"{wl.name} op {i}: {type(exc).__name__}: {exc}")
        monitor.sample_threads()
        i += 1
        if sampler is not None:
            paused += sampler.take(perf_counter() - start - paused)
    if sampler is not None:
        sampler.take(float("inf"))


def _traced_op(wl, i, inp, tracer, tally):
    from workloads import CheckFailed

    tracer.op = i
    # alternate which run goes first so that warm caches favour neither
    for traced in ((False, True) if i % 2 == 0 else (True, False)):
        if traced:
            with tracer.span("bench.op"):
                t0 = perf_counter()
                traced_out = wl.run(inp, tracer.call)
                tally.traced_times.append(perf_counter() - t0)
        else:
            t0 = perf_counter()
            out = wl.run(inp, plain_call)
            tally.times.append(perf_counter() - t0)
    if wl.digest(out) != wl.digest(traced_out):
        raise CheckFailed("traced output differs from untraced output")
    ref = wl.check(i, inp, out, tracer.call)
    wl.replay(i, inp, out, ref, tracer)
    return out


def quartiles(values) -> list[float]:
    values = list(values)
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def git_sha() -> str | None:
    """HEAD of the checkout, read without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(args, wl, tally, monitor, quartile_table) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": len(tally.times),
        "items_per_op": wl.items_per_op,
        "item": wl.item,
        "ops_failed_ratio": len(tally.failures) / tally.attempted,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "max_threads": monitor.max_threads,
        "max_children": monitor.max_children,
        "quartiles": quartile_table,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lexopt" / "__init__.py").is_file():
        print(f"error: no lexopt sources under {SRC}", file=sys.stderr)
        return 2
    use_checkout_program()

    import lexopt
    import workloads

    if SRC not in Path(lexopt.__file__).resolve().parents:
        print(f"error: imported lexopt from {lexopt.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    monitor = workloads.Monitor()
    golden = workloads.load_golden()
    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed, monitor, golden)
        return 0

    wl = workloads.WORKLOADS[args.workload](args.seed, monitor, golden)
    tally = Tally()
    tally.count_setup_checks(wl)
    tracer = Tracer() if args.trace else None
    sampler = None if args.trace else SetupSampler(args, monitor, args.seconds)
    run_ops(wl, args.seconds, wl.min_trace_ops if args.trace else 1, tracer, monitor, tally,
            sampler)
    if not tally.times:
        for failure in tally.failures[:10]:
            print(failure, file=sys.stderr)
        print("error: no op completed", file=sys.stderr)
        return 1
    p50 = statistics.median(tally.times)
    detail: dict = {"op_ms": [t * 1e3 for t in tally.times]}
    if tracer is None:
        # the 75th percentile, not the median: this machine's speed shifts
        # between levels from run to run and the median jumps with it; the
        # 90th percentile is steady in such runs but follows bursts of heavy
        # load on the host into its tail
        metrics = {
            "setup_s": (statistics.median(sampler.samples), "s"),
            "op_ms_p75": (quartiles(tally.times)[2] * 1e3, "ms"),
            "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
        }
        quartile_table = {"setup_s": quartiles(sampler.samples),
                          "op_ms": quartiles(detail["op_ms"])}
        detail["setup_s"] = sampler.samples
    else:
        overhead = statistics.median(tally.traced_times) / p50 - 1.0
        metrics = {}
        # every traced run reports every layer: the layers this workload does
        # not reach come from the fewest ops of the workload that does
        for name in WORKLOAD_NAMES:
            if name == wl.name:
                w, t = wl, tracer
            else:
                w, t = workloads.WORKLOADS[name](args.seed, monitor, golden), Tracer()
                other = Tally()
                run_ops(w, 0.0, w.min_trace_ops, t, monitor, other)
                tally.attempted += other.attempted
                tally.failures += other.failures
            metrics.update(w.layer_metrics(t))
            detail[name] = {"self_times": t.self_times(), "spans": t.spans}
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        quartile_table = {"op_ms": quartiles(detail["op_ms"]),
                          "traced_op_ms": quartiles(t * 1e3 for t in tally.traced_times)}

    env = stamp(args, wl, tally, monitor, quartile_table)
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"stamp": env, "result": result, "failures": tally.failures,
                   "digests": tally.digests, **detail}, fh)
    for failure in tally.failures[:10]:
        print(failure, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} ops_failed_ratio = {env['ops_failed_ratio']:.6g} ratio "
          f"({len(tally.failures)} of {tally.attempted})")
    if tracer is None:
        p90 = statistics.quantiles(tally.times, n=10)[-1] if len(tally.times) > 1 else p50
        print(f"{args.workload} op_ms_p50 = {p50 * 1e3:.6g} ms, op_ms_p90 = {p90 * 1e3:.6g} ms "
              "(reported, not bounded)")
    print("stamp " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
