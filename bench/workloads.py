"""The four benchmark workloads.

A workload makes its inputs from the seed when it is constructed, runs one
op at a time (``run``, the timed part), checks each op's output (``check``),
and in a traced run replays the op's inner calls on the op's own inputs
(``replay``) so that every module layer gets a per-call number
(``layer_metrics``).  lexopt itself is only called through its public
functions; nothing inside ``src/`` is instrumented.

``run``, ``check`` and ``replay`` take ``call(name, fn, *args)``, which is
:func:`spans.plain_call` in an untraced run and :meth:`Tracer.call`
in a traced one, so both runs execute the same code.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

import lexopt
from lexopt import cli
from lexopt.alpha_search import AlphaSearchConfig, search_alpha
from lexopt.cobb_douglas import CobbDouglasProblem, solve_closed_form
from lexopt.compliance import StrategyGame, min_compliance_penalty
from lexopt.core_model import CaseParameters, classify_scenario, reasonable_bargain
from lexopt.cost_schedule import CostSchedule, phi_total
from lexopt.hessian import (
    HessianVariant,
    SecondOrderClass,
    build_bordered_hessian,
    classify_second_order,
    hessian_determinant,
)
from lexopt.oracle import GridSpec, default_clamp_epsilon, grid_max_on_budget
from lexopt.sim import (
    INITIAL_STATE,
    CaseTemplate,
    ExponentialHarm,
    SimConfig,
    choose_precaution,
    default_config,
    default_sweep_grid,
    run_simulation,
    step,
    sweep_admin_cost,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN_PATH = BENCH / "golden.json"

#: Golden digests exist for this seed only; other seeds are held out and get
#: the seed-independent checks alone.
GOLDEN_SEED = 0

#: Inputs made per workload at set-up; ops cycle through them.  More than a
#: 60-second run reaches, so no input repeats within a run.
N_INPUTS = 1024

#: The README's command-line examples, checked byte for byte in cli-oneshot.
README_EXAMPLES = (
    ("solve", "--alpha", "2", "--beta", "1", "--p1", "1", "--p2", "1", "--P_C", "6"),
    ("bargain", "--p", "0.5", "--W_B", "100", "--S_B", "60", "--C_b", "4", "--C_a", "10",
     "--format", "csv"),
    ("sweep", "--seed", "0", "--format", "csv"),
)

HEADER = f"# lexopt {lexopt.__version__}\n"
SIM_COLUMNS = ("injuries", "filings", "settlements", "trials", "aggregate_trials", "welfare")


def _rendered(state) -> list[str]:
    """A simulate row as the CLI must print it: every float in 17 digits."""
    return [str(state.tick), *(format(getattr(state, c), ".17g") for c in SIM_COLUMNS)]


def _lines(text: str, start: int):
    """The lines of ``text`` from ``start`` on, one at a time."""
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        yield text[start:end]
        start = end


class CheckFailed(Exception):
    """An op's output is wrong."""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canon(x):
    """JSON-able form of a result in which every float keeps all its bits."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, Enum):
        return x.value
    if dataclasses.is_dataclass(x):
        return [_canon(getattr(x, f.name)) for f in dataclasses.fields(x)]
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    if isinstance(x, dict):
        return [[_canon(k), _canon(v)] for k, v in x.items()]
    return x


def canonical_digest(obj) -> str:
    return sha256(json.dumps(_canon(obj)).encode())


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def cli_output(argv) -> tuple[int, str]:
    """Exit code and stdout of one in-process ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# child processes


class Child(NamedTuple):
    returncode: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


class Monitor:
    """Starts child processes one at a time and records the most threads and
    live children the benchmark process ever had."""

    def __init__(self) -> None:
        self.max_children = 0
        self.max_threads = 0
        self._children_file = Path(f"/proc/self/task/{os.getpid()}/children")

    def spawn(self, argv) -> Child:
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT) as p:
            try:
                if self._children_file.exists():
                    live = len(self._children_file.read_text().split())
                    self.max_children = max(self.max_children, live)
                out = p.stdout.read()
                err = p.stderr.read()
            except BaseException:
                p.kill()
                raise
            # wait4 gives this child's own peak RSS, which Popen.wait drops
            _, status, usage = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
        return Child(p.returncode, out, err, usage.ru_maxrss)

    def sample_threads(self) -> None:
        try:
            with open("/proc/self/status", encoding="ascii") as fh:
                threads = int(next(line for line in fh if line.startswith("Threads:")).split()[1])
        except OSError:
            threads = threading.active_count()
        self.max_threads = max(self.max_threads, threads)


# ---------------------------------------------------------------------------
# seeded parameters


def _rng(workload: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{i}")


def _u(r: random.Random, lo: float, hi: float) -> float:
    return round(r.uniform(lo, hi), 4)


def _flags(params: dict) -> list[str]:
    out = []
    for key, value in params.items():
        if isinstance(value, bool):
            out.append(f"--{key}" if value else f"--no-{key}")
        elif isinstance(value, (list, dict)):
            out += [f"--{key}", json.dumps(value)]
        elif isinstance(value, str):
            out += [f"--{key}", value]
        else:
            out += [f"--{key}", repr(value)]
    return out


def _case(r):
    return {"p": _u(r, 0.05, 0.95), "W_B": _u(r, 50, 200), "S_B": _u(r, 20, 120),
            "C_a": _u(r, 0, 60), "C_b": _u(r, 0, 30)}


def _problem(r):
    return {"alpha": _u(r, 0.2, 3), "beta": _u(r, 0.2, 3), "p1": _u(r, 0.5, 2),
            "p2": _u(r, 0.5, 2), "P_C": _u(r, 1, 20)}


def _sim(r, ticks: int):
    return {"n_injurers": r.randint(1000, 50_000), "harm_p0": _u(r, 0.02, 0.2),
            "harm_decay": _u(r, 0.05, 0.2), "L_harm": _u(r, 100, 300), "p": _u(r, 0.2, 0.8),
            "W_B": _u(r, 60, 150), "S_B": _u(r, 30, 90), "C_b": _u(r, 1, 10),
            "discount": _u(r, 0, 1), "ticks": ticks, "seed": r.randrange(2**31)}


def _classify(r):
    params = _case(r)
    if r.random() < 0.5:
        params.update(theta_a=_u(r, 1, 60), theta_b=_u(r, 1, 30))
    return params


def _hessian(r):
    return {**_problem(r), "cross_terms": r.random() < 0.5}


def _phi(r):
    return {"rates": [[_u(r, 0, 2), _u(r, 0, 2)] for _ in range(3)],
            "L": [_u(r, -5, 5) for _ in range(3)], "C_b_fixed": _u(r, 0, 2),
            "with_fixed": r.random() < 0.5, "R_B": _u(r, 1, 30), "P_C": _u(r, 10, 60)}


def _alpha_search(r):
    start = _u(r, 0.1, 0.5)
    return {"alpha_grid": [round(start + 0.1 * k, 4) for k in range(40)],
            **{k: v for k, v in _problem(r).items() if k != "alpha"},
            "objective": r.choice(["MaxUtility", "MaxLambda"]),
            "hessian_variant": r.choice(["ShadowForm", "DirectForm"]),
            "cross_terms": r.random() < 0.5}


def _comply(r):
    names = ["s0", "s1", "s2", "s3"]
    params = {"utilities": {n: _u(r, -10, 10) for n in names},
              "allowed": sorted(r.sample(names, r.randint(1, 3)))}
    if r.random() < 0.5:
        params["margin"] = _u(r, 0.01, 1)
    return params


def _simulate(r):
    return {**_sim(r, 50), "C_a": _u(r, 0, 55), "stochastic": r.random() < 0.5}


def _sweep(r):
    return _sim(r, 10)


#: Parameter makers for the nine commands, in the order cli-oneshot cycles.
CLI_PARAMS = {
    "bargain": _case, "classify": _classify, "solve": _problem, "hessian": _hessian,
    "phi": _phi, "alpha-search": _alpha_search, "comply": _comply,
    "simulate": _simulate, "sweep": _sweep,
}


def _sim_config(params: dict, C_a: float, stochastic: bool) -> SimConfig:
    base = default_config()
    return SimConfig(
        n_injurers=params["n_injurers"],
        precaution_cost_grid=base.precaution_cost_grid,
        harm_probability_fn=ExponentialHarm(p0=params["harm_p0"], decay=params["harm_decay"]),
        L_harm=params["L_harm"],
        case_template=CaseTemplate(p=params["p"], W_B=params["W_B"], S_B=params["S_B"],
                                   C_b=params["C_b"]),
        C_a_policy=C_a,
        settlement_liability_discount=params["discount"],
        ticks=params["ticks"],
        seed=params["seed"],
        stochastic=stochastic,
    )


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    #: Work items in one op, and what an item is.
    items_per_op = 1
    item = ""
    #: Fewest ops that give every layer metric of the workload a value.
    min_trace_ops = 1

    def __init__(self, seed: int, monitor: Monitor, golden: dict | None) -> None:
        self.seed = seed
        self.monitor = monitor
        self.golden = golden if seed == GOLDEN_SEED else None
        #: Checks made at set-up that count as ops: (description, error or None).
        self.setup_checks: list[tuple[str, str | None]] = []
        self.inputs = [self.make_input(i) for i in range(N_INPUTS)]

    def make_input(self, i: int):
        raise NotImplementedError

    def run(self, inp, call):
        raise NotImplementedError

    def digest(self, out) -> str:
        return canonical_digest(out)

    def check(self, i: int, inp, out, call):
        """Raise CheckFailed if ``out`` is wrong; may return data for replay."""
        raise NotImplementedError

    def check_golden(self, i: int, out) -> None:
        """Raise CheckFailed if op ``i`` of the golden seed changed its output."""
        if self.golden is not None and i < len(self.golden[self.name]):
            if self.digest(out) != self.golden[self.name][i]:
                raise CheckFailed("output differs from the golden digest")

    def replay(self, i: int, inp, out, ref, tracer) -> None:
        pass

    def layer_metrics(self, tracer) -> dict[str, tuple[float, str]]:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CliOneshot(Workload):
    """One ``python -m lexopt <command>`` process per op, spawn to exit."""

    name = "cli-oneshot"
    item = "process"
    min_trace_ops = len(CLI_PARAMS)
    PROBES = (
        ("interp.start", ("-c", "pass")),
        ("import.numpy", ("-c", "import numpy")),
        ("import.lexopt", ("-c", "import lexopt")),
    )
    REPLAY_CALLS = 200

    def __init__(self, seed, monitor, golden):
        super().__init__(seed, monitor, golden)
        self.child_rss_kb = 0
        # the README examples take no seed, so every seed checks them
        if golden is not None:
            for argv, want in zip(README_EXAMPLES, golden["readme"]):
                code, text = cli_output(argv)
                error = None
                if code != 0 or sha256(text.encode()) != want:
                    error = f"README example {' '.join(argv)!r} changed its output"
                self.setup_checks.append((" ".join(argv), error))

    def make_input(self, i):
        r = _rng(self.name, self.seed, i)
        command = list(CLI_PARAMS)[i % len(CLI_PARAMS)]
        params = CLI_PARAMS[command](r)
        fmt = ("json", "csv")[i % 2]
        return command, params, [command, *_flags(params), "--format", fmt]

    def run(self, inp, call):
        return call("cli.process", self.monitor.spawn, [sys.executable, "-m", "lexopt", *inp[2]])

    def digest(self, out):
        return sha256(out.stdout)

    def check(self, i, inp, out, call):
        self.child_rss_kb = max(self.child_rss_kb, out.maxrss_kb)
        if out.returncode != 0 or out.stderr:
            raise CheckFailed(f"exit {out.returncode}: {out.stderr.decode(errors='replace')}")
        code, text = call("cli.main", cli_output, inp[2])
        if code != 0 or out.stdout != text.encode():
            raise CheckFailed("process stdout differs from in-process cli.main")

    def replay(self, i, inp, out, ref, tracer):
        tracer.block("cli.build_parser", 1, cli.build_parser)
        name, args = self.PROBES[i % len(self.PROBES)]
        tracer.call(name, self.monitor.spawn, [sys.executable, *args])
        command, p, _ = inp
        n = self.REPLAY_CALLS
        if command == "bargain":
            case = CaseParameters(**p)
            tracer.block("core_model.reasonable_bargain", n,
                         lambda: [reasonable_bargain(case) for _ in range(n)])
        elif command == "phi":
            schedule = CostSchedule(C_b_fixed=p["C_b_fixed"], rates=tuple(map(tuple, p["rates"])))
            L = tuple(p["L"])
            tracer.block("cost_schedule.phi_total", n,
                         lambda: [phi_total(schedule, L, p["with_fixed"]) for _ in range(n)])
        elif command == "comply":
            game = StrategyGame(utilities=p["utilities"], allowed=frozenset(p["allowed"]))
            margin = p.get("margin")
            tracer.block("compliance.min_compliance_penalty", n,
                         lambda: [min_compliance_penalty(game, margin) for _ in range(n)])

    def layer_metrics(self, tracer):
        interp = tracer.median("interp.start", 1e3)
        main_by_op = {s[4]: s[2] - s[1] for s in tracer.spans if s[0] == "cli.main"}
        process_by_op = {s[4]: s[2] - s[1] for s in tracer.spans if s[0] == "cli.process"}
        metrics = {
            "interp.start_ms": (interp, "ms"),
            "import.numpy_ms": (tracer.median("import.numpy", 1e3) - interp, "ms"),
            "import.lexopt_ms": (tracer.median("import.lexopt", 1e3) - interp, "ms"),
            "cli.build_parser_ms": (tracer.median("cli.build_parser", 1e3), "ms"),
            "cli.process_ms": (statistics.median(process_by_op.values()) * 1e3, "ms"),
            "cli.startup_share": (statistics.median(
                1.0 - main_by_op[op] / process_by_op[op] for op in main_by_op), "ratio"),
        }
        for command in CLI_PARAMS:
            times = [t for op, t in main_by_op.items()
                     if self.inputs[op % N_INPUTS][0] == command]
            metrics[f"cli.main_ms.{command}"] = (statistics.median(times) * 1e3, "ms")
        for layer in ("cost_schedule.phi_total", "compliance.min_compliance_penalty",
                      "core_model.reasonable_bargain"):
            metrics[f"{layer}_us"] = (tracer.median(layer, 1e6), "us")
        return metrics

    def peak_rss_mb(self):
        return self.child_rss_kb / 1024.0


#: The fixed 10^3-point alpha grid of alpha-dense.
ALPHA_GRID = tuple(0.05 + k * (4.95 / 999) for k in range(1000))
ALPHA_SETTINGS = tuple((v, cross) for v in HessianVariant for cross in (False, True))
#: Relative tolerance between the cofactor determinant and np.linalg.det.
DET_RTOL = 1e-9


class AlphaDense(Workload):
    """search_alpha over ALPHA_GRID, then the certificate and the oracle at the winner."""

    name = "alpha-dense"
    items_per_op = len(ALPHA_GRID)
    item = "alpha candidate"
    min_trace_ops = len(ALPHA_SETTINGS)

    def __init__(self, seed, monitor, golden):
        super().__init__(seed, monitor, golden)
        self.admitted = {s: [0, 0] for s in ALPHA_SETTINGS}

    def make_input(self, i):
        r = _rng(self.name, self.seed, i)
        variant, cross = ALPHA_SETTINGS[i % len(ALPHA_SETTINGS)]
        return {"beta": _u(r, 0.3, 2.0), "p1": _u(r, 0.5, 2.0), "p2": _u(r, 0.5, 2.0),
                "P_C": _u(r, 2, 20), "hessian_variant": variant, "include_cross_terms": cross}

    def run(self, inp, call):
        cfg = AlphaSearchConfig(alpha_grid=ALPHA_GRID, **inp)
        res = call("alpha_search.search_alpha", search_alpha, cfg)
        if res.alpha_star is None:
            return res, None, None
        winner = next(e for e in res.admissible if e.alpha == res.alpha_star)
        prob = self._problem(inp, winner.alpha)
        cls = call("hessian.classify_second_order", classify_second_order,
                   prob, winner.solution, inp["include_cross_terms"])
        gm = call("oracle.grid_max_on_budget", grid_max_on_budget, prob)
        return res, cls, gm

    @staticmethod
    def _problem(inp, alpha):
        return CobbDouglasProblem(alpha=alpha, beta=inp["beta"], p1=inp["p1"], p2=inp["p2"],
                                  P_C=inp["P_C"])

    def check(self, i, inp, out, call):
        res, cls, gm = out
        if res.alpha_star is None:
            raise CheckFailed("no admissible alpha")
        variant, cross = inp["hessian_variant"], inp["include_cross_terms"]
        for e in res.admissible:
            h = build_bordered_hessian(self._problem(inp, e.alpha), e.solution, variant, cross)
            ref = float(np.linalg.det(h.entries))
            if not (e.det_H > 0.0 and abs(e.det_H - ref) <= DET_RTOL * max(abs(e.det_H), abs(ref))):
                raise CheckFailed(f"alpha={e.alpha!r}: det_H {e.det_H!r} vs np.linalg.det {ref!r}")
        if cls[variant] is not SecondOrderClass.LOCAL_MAX:
            raise CheckFailed(f"winner classifies as {cls[variant].value} under {variant.value}")
        prob = self._problem(inp, res.alpha_star)
        eps = default_clamp_epsilon(prob)
        spacing = (prob.P_C / prob.p1 - 2 * eps) / (GridSpec().points_per_axis - 1)
        if abs(res.L_C_opt - gm.L_C) > spacing * (1 + 1e-9):
            raise CheckFailed(f"L_C* {res.L_C_opt!r} is not within one grid step of {gm.L_C!r}")

    def replay(self, i, inp, out, ref, tracer):
        res = out[0]
        variant, cross = inp["hessian_variant"], inp["include_cross_terms"]
        counts = self.admitted[(variant, cross)]
        counts[0] += len(res.admissible)
        counts[1] += len(ALPHA_GRID)
        n = len(ALPHA_GRID)
        probs = [self._problem(inp, a) for a in ALPHA_GRID]
        sols = tracer.block("cobb_douglas.solve_closed_form", n,
                            lambda: [solve_closed_form(p) for p in probs])
        hs = tracer.block("hessian.build_bordered_hessian", n,
                          lambda: [build_bordered_hessian(p, s, variant, cross)
                                   for p, s in zip(probs, sols)])
        tracer.block("hessian.hessian_determinant", n, lambda: [hessian_determinant(h) for h in hs])

    def layer_metrics(self, tracer):
        by_op: dict[int, dict[str, float]] = {}
        for name, start, end, _parent, op, calls in tracer.spans:
            by_op.setdefault(op, {})[name] = (end - start) / calls
        inner = ("cobb_douglas.solve_closed_form", "hessian.build_bordered_hessian",
                 "hessian.hessian_determinant")
        self_shares = [
            1.0 - len(ALPHA_GRID) * sum(t[k] for k in inner) / t["alpha_search.search_alpha"]
            for t in by_op.values() if all(k in t for k in inner)
        ]
        metrics = {
            "alpha_search.search_alpha_ms": (tracer.median("alpha_search.search_alpha", 1e3), "ms"),
            "alpha_search.candidates": (float(len(ALPHA_GRID)), "count"),
            "alpha_search.self_share": (statistics.median(self_shares), "ratio"),
            "cobb_douglas.solve_closed_form_us": (
                tracer.median("cobb_douglas.solve_closed_form", 1e6), "us"),
            "hessian.build_bordered_hessian_us": (
                tracer.median("hessian.build_bordered_hessian", 1e6), "us"),
            "hessian.hessian_determinant_us": (
                tracer.median("hessian.hessian_determinant", 1e6), "us"),
            "hessian.classify_second_order_us": (
                tracer.median("hessian.classify_second_order", 1e6), "us"),
            "oracle.grid_max_on_budget_ms": (tracer.median("oracle.grid_max_on_budget", 1e3), "ms"),
            "oracle.points": (float(GridSpec().points_per_axis), "count"),
        }
        for (variant, cross), (admitted, attempted) in self.admitted.items():
            suffix = f"{variant.value}.{'cross' if cross else 'nocross'}"
            metrics[f"alpha_search.admissible_ratio.{suffix}"] = (admitted / attempted, "ratio")
        return metrics


#: Ticks per sweep cell in sim-long; 20 cells make 10^4 ticks per op.
SIM_TICKS = 500


class SimLong(Workload):
    """sweep_admin_cost over default_sweep_grid() on a perturbed default_config()."""

    name = "sim-long"
    item = "tick"

    def __init__(self, seed, monitor, golden):
        self.grid = default_sweep_grid()
        self.items_per_op = len(self.grid) * SIM_TICKS
        super().__init__(seed, monitor, golden)

    def make_input(self, i):
        params = _sim(_rng(self.name, self.seed, i), SIM_TICKS)
        return _sim_config(params, C_a=10.0, stochastic=False)

    def run(self, inp, call):
        return call("sim.sweep_admin_cost", sweep_admin_cost, inp, self.grid)

    def check(self, i, inp, out, call):
        welfare = [r.welfare for r in out]
        trials = [r.aggregate_trials for r in out]
        best = [k for k, r in enumerate(out) if r.best_welfare]
        fewest = [k for k, r in enumerate(out) if r.fewest_trials]
        if best != [welfare.index(max(welfare))] or fewest != [trials.index(min(trials))]:
            raise CheckFailed(f"flags best_welfare={best} fewest_trials={fewest}")
        k = i % len(self.grid)
        cell = dataclasses.replace(inp, C_a_policy=self.grid[k])
        states = call("sim.run_simulation", run_simulation, cell)
        for s in states:
            if s.settlements + s.trials != s.filings:
                raise CheckFailed(f"tick {s.tick}: settlements + trials != filings")
        filings = sum(s.filings for s in states)
        rate = sum(s.settlements for s in states) / filings if filings > 0.0 else 0.0
        row = out[k]
        got = (row.C_a, row.aggregate_trials, row.settlement_rate, row.welfare)
        want = (float(self.grid[k]), states[-1].aggregate_trials, rate, states[-1].welfare)
        if got != want:
            raise CheckFailed(f"sweep row {k} is {got}, its own run gives {want}")
        return cell, states

    def replay(self, i, inp, out, ref, tracer):
        cell, states = ref
        n = cell.ticks

        def ticks():
            state = INITIAL_STATE
            for _ in range(n):
                state = step(state, cell)

        tracer.block("sim.step", n, ticks)
        rates = [0.0] + [s.settlements / s.filings if s.filings > 0.0 else 0.0
                         for s in states[:-1]]
        tracer.block("sim.choose_precaution", n,
                     lambda: [choose_precaution(cell, r) for r in rates])
        tracer.block("sim.thresholds", n, lambda: [cell.thresholds() for _ in range(n)])
        case = cell.case_template.with_admin_cost(cell.C_a_policy)
        theta_a, theta_b = cell.thresholds()
        tracer.block("core_model.classify_scenario", n,
                     lambda: [classify_scenario(case, theta_a, theta_b) for _ in range(n)])

    def layer_metrics(self, tracer):
        per_call = {name: tracer.median(name, 1e6) for name in (
            "sim.step", "sim.choose_precaution", "sim.thresholds", "core_model.classify_scenario")}
        invariant = (per_call["sim.choose_precaution"] + per_call["sim.thresholds"]
                     + per_call["core_model.classify_scenario"])
        return {
            "sim.sweep_admin_cost_ms": (tracer.median("sim.sweep_admin_cost", 1e3), "ms"),
            "sim.run_simulation_ms": (tracer.median("sim.run_simulation", 1e3), "ms"),
            "sim.step_us": (per_call["sim.step"], "us"),
            "sim.choose_precaution_us": (per_call["sim.choose_precaution"], "us"),
            "sim.thresholds_us": (per_call["sim.thresholds"], "us"),
            "core_model.classify_scenario_us": (per_call["core_model.classify_scenario"], "us"),
            "sim.ticks": (float(self.items_per_op), "count"),
            "sim.tick_invariant_share": (invariant / per_call["sim.step"], "ratio"),
        }


#: Ticks per ``simulate --stochastic`` call in cli-bulk.
BULK_TICKS = 2000
BULK_FORMATS = ("json", "csv")


class CliBulk(Workload):
    """In-process ``cli.main(["simulate", "--stochastic", ...])``, once per format."""

    name = "cli-bulk"
    items_per_op = BULK_TICKS * len(BULK_FORMATS)
    item = "rendered tick row"

    def __init__(self, seed, monitor, golden):
        super().__init__(seed, monitor, golden)
        self.bytes_per_op: list[int] = []

    def make_input(self, i):
        r = _rng(self.name, self.seed, i)
        params = {**_sim(r, BULK_TICKS), "C_a": _u(r, 0, 55)}
        return params, ["simulate", "--stochastic", *_flags(params)]

    def run(self, inp, call):
        return [call("cli.main", cli_output, [*inp[1], "--format", fmt]) for fmt in BULK_FORMATS]

    def digest(self, out):
        return sha256(b"\0".join(text.encode() for _, text in out))

    def check(self, i, inp, out, call):
        params = inp[0]
        (json_code, json_text), (csv_code, csv_text) = out
        if json_code != 0 or csv_code != 0:
            raise CheckFailed(f"exit codes {json_code}, {csv_code}")
        if not (json_text.startswith(HEADER) and csv_text.startswith(HEADER)):
            raise CheckFailed("missing version line")
        self.bytes_per_op.append(len(json_text.encode()) + len(csv_text.encode()))
        states = call("sim.run_simulation", run_simulation,
                      _sim_config(params, params["C_a"], stochastic=True))
        # numbers stay text, so each must equal the 17-digit rendering of the
        # library's value: a printed digit that changes fails even when the
        # parsed double would not.  Rows are compared one at a time as they
        # are parsed, so the check holds less memory than the op it checks
        # and does not set peak_rss_mb.
        want = map(_rendered, states)
        json_rows = 0

        def json_row(obj):
            nonlocal json_rows
            if "rows" in obj:
                return obj
            if list(obj) != ["tick", *SIM_COLUMNS] or list(obj.values()) != next(want, None):
                raise CheckFailed(f"json: row {json_rows} differs from run_simulation")
            json_rows += 1
            return None

        payload = json.loads(json_text[len(HEADER):], parse_int=str, parse_float=str,
                             object_hook=json_row)
        if (payload["seed"], payload["ticks"]) != (str(params["seed"]), str(params["ticks"])):
            raise CheckFailed("json: seed or ticks differ")
        if json_rows != len(states):
            raise CheckFailed(f"json: {json_rows} rows for {len(states)} ticks")
        rows = csv.reader(_lines(csv_text, len(HEADER)))
        if next(rows, None) != ["tick", *SIM_COLUMNS]:
            raise CheckFailed("csv: column header differs")
        for k, (row, s) in enumerate(itertools.zip_longest(rows, states)):
            if row is None or s is None or row != _rendered(s):
                raise CheckFailed(f"csv: row {k} differs from run_simulation")

    def layer_metrics(self, tracer):
        main_by_op: dict[int, float] = {}
        for name, start, end, _parent, op, _calls in tracer.spans:
            if name == "cli.main":
                main_by_op[op] = main_by_op.get(op, 0.0) + (end - start) / len(BULK_FORMATS)
        main_ms = statistics.median(main_by_op.values()) * 1e3
        sim_ms = tracer.median("sim.run_simulation", 1e3)
        return {
            "cli.main_ms": (main_ms, "ms"),
            "sim.run_simulation_stochastic_ms": (sim_ms, "ms"),
            "cli.overhead_ms": (main_ms - sim_ms, "ms"),
            "cli.output_bytes": (float(statistics.median(self.bytes_per_op)), "bytes"),
        }


WORKLOADS = {w.name: w for w in (CliOneshot, AlphaDense, SimLong, CliBulk)}
