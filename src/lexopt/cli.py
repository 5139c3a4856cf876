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
import functools
import io
import json
import math
import os
import sys
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Sequence

from . import __version__
from ._validation import as_float
from .errors import DomainError, InvalidParameterError

if TYPE_CHECKING:
    from .sim import SimConfig

# Each command runner imports the model modules it uses inside its body, so
# a process loads only what its command runs.


# ---------------------------------------------------------------------------
# serialization: one walk for both formats.  A scalar's text comes from one
# table keyed by exact type; any other type, a subclass such as
# numpy.float64 included, is a TypeError.  Every table is a _Table; a table
# of numbers renders through one row template per format.  Values render in
# payload order, so the first non-finite float is the one reported.


def _fmt_float(x: float) -> str:
    # a non-finite value here means the computation overflowed, not that the
    # caller passed a bad field, so it is a domain failure
    if not math.isfinite(x):
        raise DomainError(f"result overflowed the representable range: {x!r}")
    return "%.17g" % x  # the text of format(x, ".17g"), made faster


def _unsupported(value: Any) -> str:
    raise TypeError(f"unsupported payload type {type(value)!r}")


_SCALAR_TEXT: dict[type, Callable[[Any], str]] = {
    float: _fmt_float, int: int.__repr__, bool: {True: "true", False: "false"}.__getitem__
}
# the formats differ only in how they write None and strings
_JSON_TEXT = {**_SCALAR_TEXT, type(None): lambda _: "null", str: json.dumps}
_CSV_TEXT = {**_SCALAR_TEXT, type(None): lambda _: "", str: str}


def _json_template(keys: tuple, level: int) -> str:
    """A dict's JSON text at this nesting level, with %s where each value goes."""
    pad = "  " * level
    body = ",\n".join(f"{pad}  {json.dumps(str(k)).replace('%', '%%')}: %s" for k in keys)
    return "{\n" + body + "\n" + pad + "}"


def _json_render(obj: Any, level: int = 0) -> str:
    text = _JSON_TEXT.get(type(obj))
    if text is not None:
        return text(obj)
    if type(obj) is _Table:
        return obj.json(level)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        pad = "  " * level
        items = [f"{pad}  {_json_render(item, level + 1)}" for item in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        get, nested = _JSON_TEXT.get, functools.partial(_json_render, level=level + 1)
        values = tuple([get(type(v), nested)(v) for v in obj.values()])
        return _json_template(tuple(obj), level) % values if obj else "{}"
    return _unsupported(obj)


# the printf directive of a number cell by its exact type; "%.17g" % x is
# _fmt_float(x) for every finite x
_NUMBER_SPECS = {int: "%d", float: "%.17g"}


class _Table:
    """Named columns over tuple rows, each column of one exact type.

    It renders as a list of dicts with ``columns`` as keys would, to the
    byte.  When the first row holds only ints and floats, a row template
    made once per table types each cell (``%d``, ``%.17g``) and a row is one
    ``%``.  Otherwise JSON renders the rows as those dicts, and CSV writes
    the cells with ``csv.writer``, which quotes text as the csv module does.
    A plain class, not a dataclass: making a dataclass costs every command
    process about a millisecond.
    """

    def __init__(self, columns: tuple[str, ...], rows: Sequence[tuple]) -> None:
        self.columns = columns
        self.rows = rows

    def _specs(self) -> tuple[str, ...] | None:
        """The typed cell directives, once every float is known to be finite;
        None when there is no row or the first holds anything but ints and floats."""
        if not self.rows or not all(type(v) in _NUMBER_SPECS for v in self.rows[0]):
            return None
        first = self.rows[0]
        floats = [j for j, v in enumerate(first) if type(v) is float]
        if not all(all(map(math.isfinite, map(itemgetter(j), self.rows))) for j in floats):
            for row in self.rows:  # render order, so the first bad value is reported
                for j in floats:
                    _fmt_float(row[j])
        return tuple(_NUMBER_SPECS[type(v)] for v in first)

    def json(self, level: int) -> str:
        specs = self._specs()
        if specs is None:  # no row, or not all numbers: render the dicts it stands for
            return _json_render([dict(zip(self.columns, row)) for row in self.rows], level)
        # the JSON template is itself %-formatted with the directives, so a %
        # in a column name is escaped once for each of the two formattings
        keys = tuple(c.replace("%", "%%") for c in self.columns)
        pad = "  " * level
        row = pad + "  " + _json_template(keys, level + 1) % specs
        return "[\n" + ",\n".join(map(row.__mod__, self.rows)) + "\n" + pad + "]"

    def csv(self) -> str:
        import csv  # only a --format csv process loads the module

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        specs = self._specs()
        if specs is not None:  # number text never needs quoting
            return buf.getvalue() + "".join(map((",".join(specs) + "\n").__mod__, self.rows))
        text = _CSV_TEXT.get
        writer.writerows([text(type(v), _unsupported)(v) for v in row] for row in self.rows)
        return buf.getvalue()


class CommandOutput(NamedTuple):
    json_payload: dict
    csv_rows: _Table | None = None  # None: the payload is the one row
    csv_comments: tuple[str, ...] = ()  # payload keys, each printed as "# key=value"


def _emit(out: CommandOutput, fmt: str) -> str:
    header = f"# lexopt {__version__}\n"
    payload = out.json_payload
    if fmt == "json":
        return header + _json_render(payload) + "\n"
    comments = "".join(f"# {k}={_json_render(payload[k])}\n" for k in out.csv_comments)
    table = out.csv_rows
    if table is None:
        table = _Table(tuple(payload), [tuple(payload.values())])
    return header + comments + table.csv()


# ---------------------------------------------------------------------------
# parameter schemas and merging

FLOAT, INT, BOOL, STR, JSONVAL = "float", "int", "bool", "str", "json"

_REQUIRED = object()


class Field(NamedTuple):
    key: str
    kind: str
    default: Any = _REQUIRED
    help: str = ""


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
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise InvalidParameterError(f"config: {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise InvalidParameterError(f"config: {path!r} must contain a JSON object")
    return loaded


# what a value of each scalar kind must be, and how an error names it
_KIND_TYPES = {FLOAT: ((int, float), "a number"), INT: (int, "an integer"),
               BOOL: (bool, "a boolean"), STR: (str, "a string")}


def _coerce(field_spec: Field, value: Any) -> Any:
    """A config-file value checked against its field's kind (argparse types the flags)."""
    kind = field_spec.kind
    if kind == JSONVAL:
        return value  # structure checked by the command runner
    types, noun = _KIND_TYPES[kind]
    if not isinstance(value, types) or (isinstance(value, bool) and kind != BOOL):
        raise InvalidParameterError(f"{field_spec.key} must be {noun} (config file), got {value!r}")
    return as_float(field_spec.key, value) if kind == FLOAT else value


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
        if flag_value is not None:
            merged[f.key] = flag_value
        elif file_value is not None:
            merged[f.key] = _coerce(f, file_value)
        elif f.key == "seed":
            merged[f.key] = _resolve_seed_from_env()
        elif f.default is _REQUIRED:
            raise InvalidParameterError(f"{f.key} is required (flag --{f.key} or config file)")
        else:
            merged[f.key] = f.default
    return merged


def _number(key: str, value: Any) -> float:
    """A JSON number as a float; a boolean is not a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidParameterError(f"{key} must be a number, got {value!r}")
    return as_float(key, value)


def _float_list(key: str, value: Any) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise InvalidParameterError(f"{key} must be a nonempty JSON array of numbers")
    return tuple(_number(f"{key}[{i}]", v) for i, v in enumerate(value))


# ---------------------------------------------------------------------------
# command runners: each is registered with the flags it reads, and main calls
# it with every flag as a keyword argument


class CommandSpec(NamedTuple):
    fields: tuple[Field, ...]
    runner: Callable[..., CommandOutput]
    help: str


COMMANDS: dict[str, CommandSpec] = {}  # in registration order, which is --help's


def _command(name: str, help: str, *fields: Field) -> Callable:
    """Register the decorated runner as command ``name`` with these flags."""

    def register(runner: Callable[..., CommandOutput]) -> Callable[..., CommandOutput]:
        COMMANDS[name] = CommandSpec(fields, runner, help)
        return runner

    return register


@_command("bargain", "decompose the reasonable bargain", *_CASE_FIELDS)
def _run_bargain(**case: float) -> CommandOutput:
    from .core_model import CaseParameters, reasonable_bargain

    d = reasonable_bargain(CaseParameters(**case))
    # vars() of the record is its fields in order
    return CommandOutput({**vars(d), "negative_bargain": d.negative_bargain})


@_command("classify", "cost-quadrant label and settle/trial decision",
          *_CASE_FIELDS, Field("theta_a", FLOAT, None), Field("theta_b", FLOAT, None))
def _run_classify(theta_a: float | None, theta_b: float | None, **case: float) -> CommandOutput:
    from .core_model import CaseParameters, classify_scenario, resolve_thresholds

    case_params = CaseParameters(**case)
    theta_a, theta_b = resolve_thresholds(case_params, theta_a, theta_b)
    scenario = classify_scenario(case_params, theta_a, theta_b)
    return CommandOutput({
        "label": scenario.label.value,
        "decision": scenario.decision.value,
        "theta_a": theta_a,
        "theta_b": theta_b,
    })


@_command("solve", "closed-form constrained optimum with diagnostics", *_PROBLEM_FIELDS)
def _run_solve(**problem: float) -> CommandOutput:
    from .cobb_douglas import CobbDouglasProblem, first_order_residuals, mrs, solve_closed_form

    prob = CobbDouglasProblem(**problem)
    sol = solve_closed_form(prob)
    r_L, r_R, r_budget = first_order_residuals(prob, sol)
    return CommandOutput({
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
    })


@_command("hessian", "bordered-Hessian matrices, determinants, classifications",
          *_PROBLEM_FIELDS, Field("cross_terms", BOOL, False))
def _run_hessian(cross_terms: bool, **problem: float) -> CommandOutput:
    from .cobb_douglas import CobbDouglasProblem, solve_closed_form
    from .hessian import HessianVariant, _matrix, _point, _second_order

    prob = CobbDouglasProblem(**problem)
    sol = solve_closed_form(prob)
    payload: dict[str, Any] = {
        "L_C_star": sol.L_C_star,
        "R_B_star": sol.R_B_star,
        "lambda": sol.lam,
        "include_cross_terms": cross_terms,
    }
    # a CSV row holds the upper triangle of the symmetric matrix
    upper = [(i, j) for i in range(3) for j in range(i, 3)]
    rows = []
    point = _point(sol)
    for variant in HessianVariant:  # payload keys shadow_form, direct_form
        entries, det, cls = _second_order(
            prob.alpha, prob.beta, prob.p1, prob.p2, prob.P_C, *point, variant, cross_terms
        )
        m = _matrix(*entries)
        payload[variant.name.lower()] = {"matrix": m, "det": det, "classification": cls.value}
        rows.append((variant.value, *(m[i][j] for i, j in upper), det, cls.value))
    columns = ("variant", *(f"m{i}{j}" for i, j in upper), "det", "classification")
    return CommandOutput(payload, _Table(columns, rows))


@_command(
    "phi", "piecewise transaction costs and admissibility",
    Field("rates", JSONVAL),
    Field("L", JSONVAL),
    Field("C_b_fixed", FLOAT, 0.0),
    Field("with_fixed", BOOL, False),
    Field("R_B", FLOAT, None),
    Field("P_C", FLOAT, None),
)
def _run_phi(rates: Any, L: Any, C_b_fixed: float, with_fixed: bool,
             R_B: float | None, P_C: float | None) -> CommandOutput:
    from .cost_schedule import CostSchedule, admissible, phi_component, phi_total, within_budget

    if not isinstance(rates, (list, tuple)) or not rates:
        raise InvalidParameterError("rates must be a nonempty JSON array of [plus, minus] pairs")
    pairs = []
    for i, pair in enumerate(rates):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise InvalidParameterError(f"rates[{i}] must be a [plus, minus] pair, got {pair!r}")
        pairs.append(_float_list(f"rates[{i}]", pair))
    schedule = CostSchedule(C_b_fixed=C_b_fixed, rates=tuple(pairs))
    L = _float_list("L", L)

    total = phi_total(schedule, L, with_fixed)
    components = [phi_component(schedule, i, L_i, with_fixed) for i, L_i in enumerate(L)]
    payload = {
        "components": components,
        "total": total,
        "admissible": None if R_B is None else admissible(schedule, L, R_B, with_fixed),
        "within_budget": (
            None if R_B is None or P_C is None else within_budget(schedule, L, R_B, P_C, with_fixed)
        ),
    }
    rows = _Table(("component", "L", "phi"),
                  [(i, L_i, c) for i, (L_i, c) in enumerate(zip(L, components))])
    comments = tuple(k for k in ("total", "admissible", "within_budget") if payload[k] is not None)
    return CommandOutput(payload, rows, comments)


def _parse_enum(key: str, enum_cls, raw: str):
    try:
        return enum_cls(raw)
    except ValueError:
        allowed = ", ".join(v.value for v in enum_cls)
        raise InvalidParameterError(f"{key} must be one of: {allowed}; got {raw!r}") from None


# beta, p1, p2 and P_C without help text: _PROBLEM_FIELDS would add help lines
@_command(
    "alpha-search", "admissible exponents and the objective-maximizing alpha*",
    Field("alpha_grid", JSONVAL),
    Field("beta", FLOAT),
    Field("p1", FLOAT),
    Field("p2", FLOAT),
    Field("P_C", FLOAT),
    Field("objective", STR, "MaxUtility"),
    Field("hessian_variant", STR, "ShadowForm"),
    Field("cross_terms", BOOL, False),
)
def _run_alpha_search(alpha_grid: Any, objective: str, hessian_variant: str, cross_terms: bool,
                      **problem: float) -> CommandOutput:
    from .alpha_search import AlphaSearchConfig, Objective, search_alpha
    from .hessian import HessianVariant

    cfg = AlphaSearchConfig(
        alpha_grid=_float_list("alpha_grid", alpha_grid),
        **problem,
        objective=_parse_enum("objective", Objective, objective),
        hessian_variant=_parse_enum("hessian_variant", HessianVariant, hessian_variant),
        include_cross_terms=cross_terms,
    )
    result = search_alpha(cfg)
    # the table keeps its header when no alpha is admissible
    rows = _Table(
        ("alpha", "L_C_star", "R_B_star", "lambda", "U_star", "det_H"),
        [(e.alpha, e.solution.L_C_star, e.solution.R_B_star, e.solution.lam, e.solution.U_star,
          e.det_H) for e in result.admissible],
    )
    payload = {
        "objective": cfg.objective.value,
        "hessian_variant": cfg.hessian_variant.value,
        "include_cross_terms": cfg.include_cross_terms,
        "admissible": rows,
        "alpha_star": result.alpha_star,
        "L_C_opt": result.L_C_opt,
        "U_star_final": result.U_star_final,
    }
    return CommandOutput(payload, rows, ("alpha_star", "L_C_opt", "U_star_final"))


@_command("comply", "minimal penalty that makes the allowed strategies dominant",
          Field("utilities", JSONVAL), Field("allowed", JSONVAL), Field("margin", FLOAT, None))
def _run_comply(utilities: Any, allowed: Any, margin: float | None) -> CommandOutput:
    from .compliance import (StrategyGame, apply_penalty, best_allowed, best_overall,
                             compliance_dominant, default_margin, min_compliance_penalty)

    if not isinstance(utilities, dict) or not utilities:
        raise InvalidParameterError("utilities must be a nonempty JSON object of strategy: utility")
    utilities = {str(name): _number(f"utilities[{name!r}]", u) for name, u in utilities.items()}
    if not isinstance(allowed, (list, tuple)):
        raise InvalidParameterError("allowed must be a JSON array of strategy names")
    game = StrategyGame(utilities=utilities, allowed=frozenset(str(s) for s in allowed))

    if margin is None:
        margin = default_margin(game)
    tau = min_compliance_penalty(game, margin)
    penalized = apply_penalty(game, tau)
    best_in, best_in_u = best_allowed(game)
    post_name, post_u = best_overall(penalized)
    return CommandOutput({
        "best_allowed_strategy": best_in,
        "best_allowed_utility": best_in_u,
        "margin": margin,
        "penalty": tau,
        "post_penalty_best_strategy": post_name,
        "post_penalty_best_utility": post_u,
        "compliance_dominant": compliance_dominant(penalized, margin),
    })


# the SimConfig fields whose flags are spelled otherwise, field -> flag
_SIM_FLAG_NAMES = {"precaution_cost_grid": "precaution_grid", "p0": "harm_p0",
                   "decay": "harm_decay", "C_a_policy": "C_a",
                   "settlement_liability_discount": "discount"}


def _build_sim_config(params: dict, C_a_policy: float) -> SimConfig:
    from .sim import CaseTemplate, ExponentialHarm, SimConfig

    try:
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
    except InvalidParameterError as exc:
        # a message starts with its field: "p0 must ...", "precaution_cost_grid[0] must ..."
        name = str(exc).split(" ", 1)[0].split("[", 1)[0]
        if name not in _SIM_FLAG_NAMES:
            raise
        raise InvalidParameterError(_SIM_FLAG_NAMES[name] + str(exc)[len(name):]) from exc


@_command("simulate", "run the litigation market over the configured horizon",
          *_SIM_COMMON_FIELDS, Field("C_a", FLOAT, 10.0))
def _run_simulate(C_a: float, **sim: Any) -> CommandOutput:
    from dataclasses import fields

    from .sim import SimState, _run_columns

    cfg = _build_sim_config(sim, C_a)
    # each row holds the SimState fields in declaration order; a stochastic
    # run's counts are ints, which print through %d as their floats would
    names = tuple(f.name for f in fields(SimState))
    rows = _Table(names, list(zip(*_run_columns(cfg, whole_counts=True))))
    return CommandOutput({"seed": cfg.seed, "ticks": cfg.ticks, "rows": rows}, rows)


# C_a_grid None: _run_sweep takes default_sweep_grid(), so building the parser needs no sim
@_command("sweep", "rerun the horizon across an administration-cost grid",
          *_SIM_COMMON_FIELDS, Field("C_a_grid", JSONVAL, None))
def _run_sweep(C_a_grid: Any, **sim: Any) -> CommandOutput:
    from dataclasses import astuple, fields

    from .sim import SweepRow, default_sweep_grid, require_admin_cost_grid, sweep_admin_cost

    grid = _float_list("C_a_grid", default_sweep_grid() if C_a_grid is None else C_a_grid)
    # the grid is checked first, so that its errors do not name C_a_policy
    cfg = _build_sim_config(sim, require_admin_cost_grid(grid)[0])
    sweep = sweep_admin_cost(cfg, grid)
    rows = _Table(tuple(f.name for f in fields(SweepRow)), [astuple(r) for r in sweep])
    payload = {
        "seed": cfg.seed,
        "rows": rows,
        "best_welfare_C_a": next(r.C_a for r in sweep if r.best_welfare),
        "fewest_trials_C_a": next(r.C_a for r in sweep if r.fewest_trials),
    }
    # the CSV leaves out the rows' best_welfare and fewest_trials flags
    csv_rows = _Table(rows.columns[:4], [r[:4] for r in rows.rows])
    return CommandOutput(payload, csv_rows, ("best_welfare_C_a", "fewest_trials_C_a"))


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2 for usage errors; this CLI uses 64."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")

    def _parse_optional(self, arg_string: str):
        # argparse reads only -1 and -.5 spellings as negative numbers; any
        # text float() takes (-1e3, -inf) is a value, never an option
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone when it is given."""
    def loads(text: str) -> Any:
        # argparse makes a ValueError a usage error naming this function
        try:
            return json.loads(text)
        except RecursionError as exc:
            raise ValueError("JSON nested too deeply") from exc

    # allow_abbrev=False: a flag spelled in part is a usage error, never another flag
    parser = _Parser(prog="lexopt", description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"lexopt {__version__}")
    # one command's usage line lists every command, in the text argparse's
    # default metavar gives the full parser; the full parser keeps the
    # default, so its missing-command error still names "command"
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    subparsers = parser.add_subparsers(dest="command", required=True, parser_class=_Parser,
                                       metavar=metavar)
    for name in COMMANDS if command is None else (command,):
        spec = COMMANDS[name]
        sub = subparsers.add_parser(name, help=spec.help, allow_abbrev=False)
        sub.add_argument("--config", help="JSON config file; flags override its values")
        sub.add_argument("--format", choices=("json", "csv"), default="json")
        for f in spec.fields:
            if f.kind == BOOL:
                sub.add_argument(f"--{f.key}", action=argparse.BooleanOptionalAction,
                                 default=None, help=f.help or None)
            else:
                parse = {FLOAT: float, INT: int, STR: str, JSONVAL: loads}[f.kind]
                help_text = f"{f.help} (JSON literal)" if f.kind == JSONVAL else f.help or None
                sub.add_argument(f"--{f.key}", type=parse, default=None, help=help_text)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a command word needs only its own subparser; any other first word
    # (top-level --help, no or an unknown command) builds all nine
    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args = build_parser(command).parse_args(argv)
    except SystemExit as exc:  # argparse exits with an int: 0 for --help, 64 for usage
        return exc.code

    spec = COMMANDS[args.command]
    try:
        params = _merge_params(spec.fields, args)
        out = spec.runner(**params)
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
