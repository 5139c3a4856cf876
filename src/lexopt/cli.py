"""Command-line front end.

Every command reads parameters from an optional JSON config file plus
``--key value`` flags; a flag wins over the file and the override is noted
on stderr so nothing merges silently.  Output goes to stdout as JSON
(default) or CSV (``--format csv``) behind a single ``#``-prefixed version
line, with numbers rendered to 17 significant digits so values round-trip
exactly.  Identical invocations produce byte-identical output.

Exit codes: 0 success (an empty search result is still success), 1 invalid
input (the message names the offending field), 2 domain failure, 64 usage
error.  Commands that simulate (``simulate``, ``sweep``) require a seed,
either via ``--seed`` or the LEXOPT_SEED environment variable; the flag
wins.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from . import __version__
from .alpha_search import AlphaSearchConfig, Objective, search_alpha
from .cobb_douglas import CobbDouglasProblem, first_order_residuals, mrs, solve_closed_form
from .compliance import (
    StrategyGame,
    apply_penalty,
    best_allowed,
    best_overall,
    compliance_dominant,
    default_margin,
    min_compliance_penalty,
)
from .core_model import CaseParameters, classify_scenario, reasonable_bargain, resolve_thresholds
from .cost_schedule import CostSchedule, admissible, phi_component, phi_total, within_budget
from .errors import DomainError, InvalidParameterError
from .hessian import HessianVariant, _second_order
from .sim import (
    CaseTemplate,
    ExponentialHarm,
    SimConfig,
    default_sweep_grid,
    run_simulation,
    sweep_admin_cost,
)


# ---------------------------------------------------------------------------
# serialization


def _fmt_float(x: float) -> str:
    # a non-finite value here means the computation overflowed, not that the
    # caller passed a bad field, so it is a domain failure
    if not math.isfinite(x):
        raise DomainError(f"result overflowed the representable range: {x!r}")
    return format(x, ".17g")


def _json_render(obj: Any, level: int = 0) -> str:
    pad = "  " * level
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = ",\n".join(f"{pad}  {_json_render(v, level + 1)}" for v in obj)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_json_render(v, level + 1)}" for k, v in obj.items()
        )
        return "{\n" + body + "\n" + pad + "}"
    raise TypeError(f"unsupported payload type {type(obj)!r}")


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, int):
        return str(value)
    return str(value)


def _csv_lines(columns: Sequence[str], rows: Sequence[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(row[c]) for c in columns])
    return buf.getvalue()


@dataclass
class CommandOutput:
    json_payload: dict
    csv_columns: list[str]
    csv_rows: list[dict]
    csv_comments: list[str] = field(default_factory=list)


def _emit(out: CommandOutput, fmt: str) -> str:
    header = f"# lexopt {__version__}\n"
    if fmt == "json":
        return header + _json_render(out.json_payload) + "\n"
    comments = "".join(f"# {c}\n" for c in out.csv_comments)
    return header + comments + _csv_lines(out.csv_columns, out.csv_rows)


# ---------------------------------------------------------------------------
# parameter schemas and merging

FLOAT, INT, BOOL, STR, JSONVAL = "float", "int", "bool", "str", "json"

_REQUIRED = object()


@dataclass(frozen=True)
class Field:
    key: str
    kind: str
    default: Any = _REQUIRED
    help: str = ""

    @property
    def required(self) -> bool:
        return self.default is _REQUIRED


_CASE_FIELDS = [
    Field("p", FLOAT, help="plaintiff win probability"),
    Field("W_B", FLOAT, help="benefit of winning at trial"),
    Field("S_B", FLOAT, help="settlement benefit"),
    Field("C_a", FLOAT, help="administration (trial) costs"),
    Field("C_b", FLOAT, help="bargaining (settlement) costs"),
]

_PROBLEM_FIELDS = [
    Field("alpha", FLOAT, help="exponent on L_C"),
    Field("beta", FLOAT, help="exponent on R_B"),
    Field("p1", FLOAT, help="price on L_C"),
    Field("p2", FLOAT, help="price on R_B"),
    Field("P_C", FLOAT, help="resource level"),
]

_SIM_COMMON_FIELDS = [
    Field("n_injurers", INT, 10_000),
    Field("precaution_grid", JSONVAL, [0.0, 5.0, 10.0, 15.0, 20.0]),
    Field("harm_p0", FLOAT, 0.1),
    Field("harm_decay", FLOAT, 0.1),
    Field("L_harm", FLOAT, 200.0),
    Field("p", FLOAT, 0.5),
    Field("W_B", FLOAT, 100.0),
    Field("S_B", FLOAT, 60.0),
    Field("C_b", FLOAT, 4.0),
    Field("discount", FLOAT, 0.5),
    Field("theta_a", FLOAT, None),
    Field("theta_b", FLOAT, None),
    Field("ticks", INT, 100),
    Field("stochastic", BOOL, False),
    Field("seed", INT, _REQUIRED),
]


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
    except OSError as exc:
        raise InvalidParameterError(f"config: cannot read {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(f"config: {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise InvalidParameterError(f"config: {path!r} must contain a JSON object")
    return loaded


def _coerce(field_spec: Field, value: Any, source: str) -> Any:
    key, kind = field_spec.key, field_spec.kind
    if value is None:
        return None
    if kind == FLOAT:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InvalidParameterError(f"{key} must be a number ({source}), got {value!r}")
        return float(value)
    if kind == INT:
        if isinstance(value, bool) or not isinstance(value, int):
            raise InvalidParameterError(f"{key} must be an integer ({source}), got {value!r}")
        return value
    if kind == BOOL:
        if not isinstance(value, bool):
            raise InvalidParameterError(f"{key} must be a boolean ({source}), got {value!r}")
        return value
    if kind == STR:
        if not isinstance(value, str):
            raise InvalidParameterError(f"{key} must be a string ({source}), got {value!r}")
        return value
    return value  # JSONVAL: structure checked by the command runner


def _resolve_seed_from_env() -> int:
    raw = os.environ.get("LEXOPT_SEED")
    if raw is None:
        raise InvalidParameterError("seed is required (--seed flag or LEXOPT_SEED)")
    try:
        return int(raw)
    except ValueError as exc:
        raise InvalidParameterError(f"LEXOPT_SEED must be an integer, got {raw!r}") from exc


def _merge_params(fields: Sequence[Field], args: argparse.Namespace) -> dict:
    file_values = _load_config_file(args.config) if args.config else {}
    known = {f.key for f in fields}
    unknown = set(file_values) - known
    if unknown:
        raise InvalidParameterError(
            f"config: unknown key(s) {sorted(unknown)}; expected a subset of {sorted(known)}"
        )

    merged: dict[str, Any] = {}
    for f in fields:
        flag_value = getattr(args, f.key, None)
        file_value = file_values.get(f.key)
        if flag_value is not None and f.key in file_values and flag_value != file_value:
            print(
                f"note: --{f.key}={flag_value!r} overrides config file value {file_value!r}",
                file=sys.stderr,
            )
        value = flag_value if flag_value is not None else file_value
        if value is None:
            if f.key == "seed" and f.required:
                merged[f.key] = _resolve_seed_from_env()
                continue
            if f.required:
                raise InvalidParameterError(f"{f.key} is required (flag --{f.key} or config file)")
            merged[f.key] = f.default
            continue
        source = "flag" if flag_value is not None else "config file"
        merged[f.key] = _coerce(f, value, source)
    return merged


def _float_list(key: str, value: Any) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise InvalidParameterError(f"{key} must be a nonempty JSON array of numbers")
    out = []
    for i, v in enumerate(value):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise InvalidParameterError(f"{key}[{i}] must be a number, got {v!r}")
        out.append(float(v))
    return tuple(out)


# ---------------------------------------------------------------------------
# command runners


def _run_bargain(params: dict) -> CommandOutput:
    case = CaseParameters(**{f.key: params[f.key] for f in _CASE_FIELDS})
    d = reasonable_bargain(case)
    record = {
        "R_B": d.R_B,
        "P_C": d.P_C,
        "L_C": d.L_C,
        "negative_bargain": d.negative_bargain,
    }
    return CommandOutput(record, list(record), [record])


def _run_classify(params: dict) -> CommandOutput:
    case = CaseParameters(**{f.key: params[f.key] for f in _CASE_FIELDS})
    theta_a, theta_b = resolve_thresholds(case, params["theta_a"], params["theta_b"])
    scenario = classify_scenario(case, theta_a, theta_b)
    record = {
        "label": scenario.label.value,
        "decision": scenario.decision.value,
        "theta_a": theta_a,
        "theta_b": theta_b,
    }
    return CommandOutput(record, list(record), [record])


def _run_solve(params: dict) -> CommandOutput:
    prob = CobbDouglasProblem(**{f.key: params[f.key] for f in _PROBLEM_FIELDS})
    sol = solve_closed_form(prob)
    r_L, r_R, r_budget = first_order_residuals(prob, sol)
    record = {
        "L_C_star": sol.L_C_star,
        "R_B_star": sol.R_B_star,
        "lambda": sol.lam,
        "U_star": sol.U_star,
        "kkt_ok": sol.kkt_ok,
        "identity_residual": sol.identity_residual,
        "foc_residual_L_C": r_L,
        "foc_residual_R_B": r_R,
        "budget_residual": r_budget,
        "mrs": mrs(prob, sol.L_C_star, sol.R_B_star),
        "price_ratio": prob.p1 / prob.p2,
    }
    return CommandOutput(record, list(record), [record])


def _run_hessian(params: dict) -> CommandOutput:
    prob = CobbDouglasProblem(**{f.key: params[f.key] for f in _PROBLEM_FIELDS})
    sol = solve_closed_form(prob)
    cross = params["cross_terms"]
    payload: dict[str, Any] = {
        "L_C_star": sol.L_C_star,
        "R_B_star": sol.R_B_star,
        "lambda": sol.lam,
        "include_cross_terms": cross,
    }
    rows = []
    for variant, key in ((HessianVariant.SHADOW_FORM, "shadow_form"),
                         (HessianVariant.DIRECT_FORM, "direct_form")):
        (b1, b2, h11, h12, h22), det, cls = _second_order(
            prob.alpha, prob.beta, prob.p1, prob.p2, prob.P_C, sol, variant, cross
        )
        label = cls.value
        payload[key] = {
            "matrix": [[0.0, b1, b2], [b1, h11, h12], [b2, h12, h22]],
            "det": det,
            "classification": label,
        }
        rows.append(
            {
                "variant": variant.value,
                "m00": 0.0, "m01": b1, "m02": b2,
                "m11": h11, "m12": h12, "m22": h22,
                "det": det,
                "classification": label,
            }
        )
    columns = ["variant", "m00", "m01", "m02", "m11", "m12", "m22", "det", "classification"]
    return CommandOutput(payload, columns, rows)


def _run_phi(params: dict) -> CommandOutput:
    raw_rates = params["rates"]
    if not isinstance(raw_rates, (list, tuple)) or not raw_rates:
        raise InvalidParameterError("rates must be a nonempty JSON array of [plus, minus] pairs")
    rates = []
    for i, pair in enumerate(raw_rates):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise InvalidParameterError(f"rates[{i}] must be a [plus, minus] pair, got {pair!r}")
        rates.append(_float_list(f"rates[{i}]", pair))
    schedule = CostSchedule(C_b_fixed=params["C_b_fixed"], rates=tuple(rates))
    L = _float_list("L", params["L"])
    with_fixed = params["with_fixed"]

    total = phi_total(schedule, L, with_fixed)
    components = [phi_component(schedule, i, L_i, with_fixed) for i, L_i in enumerate(L)]
    R_B, P_C = params["R_B"], params["P_C"]
    payload = {
        "components": components,
        "total": total,
        "admissible": None if R_B is None else admissible(schedule, L, R_B, with_fixed),
        "within_budget": (
            None if R_B is None or P_C is None else within_budget(schedule, L, R_B, P_C, with_fixed)
        ),
    }
    rows = [{"component": i, "L": L_i, "phi": c} for i, (L_i, c) in enumerate(zip(L, components))]
    comments = [f"total={_fmt_float(total)}"]
    if payload["admissible"] is not None:
        comments.append(f"admissible={'true' if payload['admissible'] else 'false'}")
    if payload["within_budget"] is not None:
        comments.append(f"within_budget={'true' if payload['within_budget'] else 'false'}")
    return CommandOutput(payload, ["component", "L", "phi"], rows, comments)


def _parse_enum(key: str, enum_cls, raw: str):
    try:
        return enum_cls(raw)
    except ValueError:
        allowed = ", ".join(v.value for v in enum_cls)
        raise InvalidParameterError(f"{key} must be one of: {allowed}; got {raw!r}") from None


def _run_alpha_search(params: dict) -> CommandOutput:
    cfg = AlphaSearchConfig(
        alpha_grid=_float_list("alpha_grid", params["alpha_grid"]),
        beta=params["beta"],
        p1=params["p1"],
        p2=params["p2"],
        P_C=params["P_C"],
        objective=_parse_enum("objective", Objective, params["objective"]),
        hessian_variant=_parse_enum("hessian_variant", HessianVariant, params["hessian_variant"]),
        include_cross_terms=params["cross_terms"],
    )
    result = search_alpha(cfg)
    rows = [
        {
            "alpha": e.alpha,
            "L_C_star": e.solution.L_C_star,
            "R_B_star": e.solution.R_B_star,
            "lambda": e.solution.lam,
            "U_star": e.solution.U_star,
            "det_H": e.det_H,
        }
        for e in result.admissible
    ]
    payload = {
        "objective": cfg.objective.value,
        "hessian_variant": cfg.hessian_variant.value,
        "include_cross_terms": cfg.include_cross_terms,
        "admissible": rows,
        "alpha_star": result.alpha_star,
        "L_C_opt": result.L_C_opt,
        "U_star_final": result.U_star_final,
    }
    comments = [
        "alpha_star=" + ("null" if result.alpha_star is None else _fmt_float(result.alpha_star)),
        "L_C_opt=" + ("null" if result.L_C_opt is None else _fmt_float(result.L_C_opt)),
        "U_star_final="
        + ("null" if result.U_star_final is None else _fmt_float(result.U_star_final)),
    ]
    columns = ["alpha", "L_C_star", "R_B_star", "lambda", "U_star", "det_H"]
    return CommandOutput(payload, columns, rows, comments)


def _run_comply(params: dict) -> CommandOutput:
    raw_utilities = params["utilities"]
    if not isinstance(raw_utilities, dict) or not raw_utilities:
        raise InvalidParameterError("utilities must be a nonempty JSON object of strategy: utility")
    utilities = {}
    for name, u in raw_utilities.items():
        if isinstance(u, bool) or not isinstance(u, (int, float)):
            raise InvalidParameterError(f"utilities[{name!r}] must be a number, got {u!r}")
        utilities[str(name)] = float(u)
    raw_allowed = params["allowed"]
    if not isinstance(raw_allowed, (list, tuple)):
        raise InvalidParameterError("allowed must be a JSON array of strategy names")
    game = StrategyGame(utilities=utilities, allowed=frozenset(str(s) for s in raw_allowed))

    margin = params["margin"]
    if margin is None:
        margin = default_margin(game)
    tau = min_compliance_penalty(game, margin)
    penalized = apply_penalty(game, tau)
    best_in, best_in_u = best_allowed(game)
    post_name, post_u = best_overall(penalized)
    record = {
        "best_allowed_strategy": best_in,
        "best_allowed_utility": best_in_u,
        "margin": margin,
        "penalty": tau,
        "post_penalty_best_strategy": post_name,
        "post_penalty_best_utility": post_u,
        "compliance_dominant": compliance_dominant(penalized, margin),
    }
    return CommandOutput(record, list(record), [record])


def _build_sim_config(params: dict, C_a_policy: float) -> SimConfig:
    return SimConfig(
        n_injurers=params["n_injurers"],
        precaution_cost_grid=_float_list("precaution_grid", params["precaution_grid"]),
        harm_probability_fn=ExponentialHarm(p0=params["harm_p0"], decay=params["harm_decay"]),
        L_harm=params["L_harm"],
        case_template=CaseTemplate(
            p=params["p"], W_B=params["W_B"], S_B=params["S_B"], C_b=params["C_b"]
        ),
        C_a_policy=C_a_policy,
        settlement_liability_discount=params["discount"],
        ticks=params["ticks"],
        seed=params["seed"],
        theta_a=params["theta_a"],
        theta_b=params["theta_b"],
        stochastic=params["stochastic"],
    )


def _run_simulate(params: dict) -> CommandOutput:
    cfg = _build_sim_config(params, params["C_a"])
    states = run_simulation(cfg)
    rows = [
        {
            "tick": s.tick,
            "injuries": s.injuries,
            "filings": s.filings,
            "settlements": s.settlements,
            "trials": s.trials,
            "aggregate_trials": s.aggregate_trials,
            "welfare": s.welfare,
        }
        for s in states
    ]
    columns = ["tick", "injuries", "filings", "settlements", "trials", "aggregate_trials", "welfare"]
    payload = {"seed": cfg.seed, "ticks": cfg.ticks, "rows": rows}
    return CommandOutput(payload, columns, rows)


def _run_sweep(params: dict) -> CommandOutput:
    raw_grid = params["C_a_grid"]
    grid = _float_list("C_a_grid", default_sweep_grid() if raw_grid is None else raw_grid)
    cfg = _build_sim_config(params, grid[0])
    sweep = sweep_admin_cost(cfg, grid)
    rows = [
        {
            "C_a": r.C_a,
            "aggregate_trials": r.aggregate_trials,
            "settlement_rate": r.settlement_rate,
            "welfare": r.welfare,
        }
        for r in sweep
    ]
    best_welfare_C_a = next(r.C_a for r in sweep if r.best_welfare)
    fewest_trials_C_a = next(r.C_a for r in sweep if r.fewest_trials)
    payload = {
        "seed": cfg.seed,
        "rows": [
            {**row, "best_welfare": r.best_welfare, "fewest_trials": r.fewest_trials}
            for row, r in zip(rows, sweep)
        ],
        "best_welfare_C_a": best_welfare_C_a,
        "fewest_trials_C_a": fewest_trials_C_a,
    }
    comments = [
        f"best_welfare_C_a={_fmt_float(best_welfare_C_a)}",
        f"fewest_trials_C_a={_fmt_float(fewest_trials_C_a)}",
    ]
    columns = ["C_a", "aggregate_trials", "settlement_rate", "welfare"]
    return CommandOutput(payload, columns, rows, comments)


# ---------------------------------------------------------------------------
# argument parsing


@dataclass(frozen=True)
class CommandSpec:
    fields: tuple[Field, ...]
    runner: Callable[[dict], CommandOutput]
    help: str


COMMANDS: dict[str, CommandSpec] = {
    "bargain": CommandSpec(tuple(_CASE_FIELDS), _run_bargain,
                           "decompose the reasonable bargain"),
    "classify": CommandSpec(
        tuple(_CASE_FIELDS) + (Field("theta_a", FLOAT, None), Field("theta_b", FLOAT, None)),
        _run_classify,
        "cost-quadrant label and settle/trial decision",
    ),
    "solve": CommandSpec(tuple(_PROBLEM_FIELDS), _run_solve,
                         "closed-form constrained optimum with diagnostics"),
    "hessian": CommandSpec(
        tuple(_PROBLEM_FIELDS) + (Field("cross_terms", BOOL, False),),
        _run_hessian,
        "bordered-Hessian matrices, determinants, classifications",
    ),
    "phi": CommandSpec(
        (
            Field("rates", JSONVAL),
            Field("L", JSONVAL),
            Field("C_b_fixed", FLOAT, 0.0),
            Field("with_fixed", BOOL, False),
            Field("R_B", FLOAT, None),
            Field("P_C", FLOAT, None),
        ),
        _run_phi,
        "piecewise transaction costs and admissibility",
    ),
    "alpha-search": CommandSpec(
        (
            Field("alpha_grid", JSONVAL),
            Field("beta", FLOAT),
            Field("p1", FLOAT),
            Field("p2", FLOAT),
            Field("P_C", FLOAT),
            Field("objective", STR, "MaxUtility"),
            Field("hessian_variant", STR, "ShadowForm"),
            Field("cross_terms", BOOL, False),
        ),
        _run_alpha_search,
        "admissible exponents and the objective-maximizing alpha*",
    ),
    "comply": CommandSpec(
        (Field("utilities", JSONVAL), Field("allowed", JSONVAL), Field("margin", FLOAT, None)),
        _run_comply,
        "minimal penalty that makes the allowed strategies dominant",
    ),
    "simulate": CommandSpec(
        tuple(_SIM_COMMON_FIELDS) + (Field("C_a", FLOAT, 10.0),),
        _run_simulate,
        "run the litigation market over the configured horizon",
    ),
    "sweep": CommandSpec(
        # None: _run_sweep takes default_sweep_grid(), so numpy loads only then
        tuple(_SIM_COMMON_FIELDS) + (Field("C_a_grid", JSONVAL, None),),
        _run_sweep,
        "rerun the horizon across an administration-cost grid",
    ),
}


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2 for usage errors; this CLI uses 64."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lexopt", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"lexopt {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, spec in COMMANDS.items():
        sub = subparsers.add_parser(name, help=spec.help)
        sub.add_argument("--config", help="JSON config file; flags override its values")
        sub.add_argument("--format", choices=("json", "csv"), default="json")
        for f in spec.fields:
            flag = f"--{f.key}"
            if f.kind == BOOL:
                sub.add_argument(flag, action=argparse.BooleanOptionalAction, default=None,
                                 help=f.help or None)
            elif f.kind == FLOAT:
                sub.add_argument(flag, type=float, default=None, help=f.help or None)
            elif f.kind == INT:
                sub.add_argument(flag, type=int, default=None, help=f.help or None)
            elif f.kind == STR:
                sub.add_argument(flag, type=str, default=None, help=f.help or None)
            else:
                sub.add_argument(flag, type=json.loads, default=None,
                                 help=(f.help or "") + " (JSON literal)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if isinstance(exc.code, int):
            return exc.code
        return 0 if exc.code is None else 1

    spec = COMMANDS[args.command]
    try:
        params = _merge_params(spec.fields, args)
        out = spec.runner(params)
        text = _emit(out, args.format)
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return 0


def entry() -> None:
    sys.exit(main())
