"""The CLI renderer against the recursive renderer it replaced.

``ref_json_render``, ``ref_csv_cell`` and ``ref_csv_lines`` are the earlier
serialization code of ``lexopt.cli``, kept verbatim as the reference: an
isinstance chain and a recursive call per value, and one ``writerow`` per
CSV row of dicts.  The renderer in ``lexopt.cli`` must give the same bytes
for every payload of exact builtin types, and the same ``DomainError``
message where a value is not finite.  That holds for every ``_Table`` as
well: the reference renders one as the list of dicts it stands for, and
``simulate``'s table as the per-tick dicts the command printed before, built
from the per-tick reference loop in ``test_sim``.

``csv.writer`` is the byte reference for CSV text only where every supported
Python writes alike: it quotes a field holding CR from Python 3.13 on only,
and refuses one holding NUL before 3.11.  ``rule_csv_lines`` is written from
the quoting rule the README states, and is the reference for all text; CSV
text without NUL also reads back through ``csv.reader``.

The reference renders a scalar subclass (``numpy.float64``) by its base
type, and a CSV cell of any other type by ``str()``; the renderer takes
exact types only and raises ``TypeError`` for the rest, so the payloads here
are drawn from exact types.
"""

import contextlib
import csv
import io
import json
import math
import random
import struct
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexopt import CaseTemplate, ExponentialHarm, SimConfig, __version__
from lexopt.cli import _fmt_float, _json_render, _Table, main
from lexopt.errors import DomainError, InvalidParameterError
from test_sim import reference_run

# ---------------------------------------------------------------------------
# the reference


def ref_fmt_float(x):
    if not math.isfinite(x):
        raise DomainError(f"result overflowed the representable range: {x!r}")
    return format(x, ".17g")


def ref_json_render(obj, level=0):
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
        return ref_fmt_float(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = ",\n".join(f"{pad}  {ref_json_render(v, level + 1)}" for v in obj)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {ref_json_render(v, level + 1)}" for k, v in obj.items()
        )
        return "{\n" + body + "\n" + pad + "}"
    raise TypeError(f"unsupported payload type {type(obj)!r}")


def ref_csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return ref_fmt_float(value)
    if isinstance(value, int):
        return str(value)
    return str(value)


def ref_csv_lines(columns, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([ref_csv_cell(row[c]) for c in columns])
    return buf.getvalue()


def rule_csv_field(text):
    """The README's rule: text holding a comma, a double quote, CR or LF is
    wrapped in double quotes, with inner quotes doubled."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_cells(columns, rows):
    """The header and each row's cells, as text."""
    return [list(columns), *([ref_csv_cell(row[c]) for c in columns] for row in rows)]


def rule_csv_lines(columns, rows):
    """Each line's cells by the rule; a line whose only cell is empty is
    written "", as the csv module writes it."""
    return "".join(('""' if cells == [""] else ",".join(map(rule_csv_field, cells))) + "\n"
                   for cells in csv_cells(columns, rows))


def csv_texts(columns, rows):
    return [*columns, *(v for row in rows for v in row.values() if type(v) is str)]


def csv_writer_agrees(columns, rows):
    """Whether every supported Python's csv.writer writes these cells as the rule does."""
    refused = "\r\x00" if sys.version_info < (3, 11) else "\r"
    return not any(c in text for text in csv_texts(columns, rows) for c in refused)


def outcome(render, *args):
    """The text, or the type and message of the error the render raised."""
    try:
        return render(*args)
    except (DomainError, TypeError) as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# payloads


class PlainInt(int):
    """An int subclass, which the renderer refuses as it does numpy.float64."""


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 1e16, 1e17, 123456789012345680.0]
NON_FINITE = [math.inf, -math.inf, math.nan]
# separators, quotes, line breaks, escapes, format directives and non-ASCII
TEXT = st.text(alphabet=list('ab ,;"\'\n\r\t\\%/\xe9\u20ac\x00\U0001f600'), max_size=6)


INTS = st.integers(-10, 10) | st.integers(-(2**80), 2**80) | st.sampled_from([2**64, -(10**40)])


def floats(non_finite=False):
    return st.floats(allow_nan=non_finite, allow_infinity=non_finite) | st.sampled_from(
        EDGE_FLOATS + (NON_FINITE if non_finite else []))


def scalars(non_finite=False):
    """Scalars of the exact builtin types a payload holds."""
    return st.one_of(st.none(), st.booleans(), INTS, floats(non_finite), TEXT)


@st.composite
def row_lists(draw, values):
    """Dicts sharing one key order, sometimes with one row whose keys deviate."""
    keys = draw(st.lists(TEXT, min_size=1, max_size=5, unique=True))
    rows = [
        {k: draw(values) for k in keys}
        for _ in range(draw(st.integers(1, 6)))
    ]
    deviation = draw(st.sampled_from(["none", "reordered", "extra", "missing", "not a dict"]))
    at = draw(st.integers(0, len(rows) - 1))
    if deviation == "reordered":
        rows[at] = dict(reversed(list(rows[at].items())))
    elif deviation == "extra":
        rows[at] = {**rows[at], "extra key": draw(values)}
    elif deviation == "missing" and len(keys) > 1:
        rows[at] = {k: v for k, v in rows[at].items() if k != keys[0]}
    elif deviation == "not a dict":
        rows[at] = draw(values)
    return rows


def payloads(non_finite=False):
    leaves = scalars(non_finite)
    nested = st.recursive(
        leaves,
        lambda children: st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(TEXT, children, max_size=4)
        | row_lists(children),
        max_leaves=12,
    )
    return st.dictionaries(TEXT, nested | row_lists(leaves), max_size=5)


@st.composite
def tables(draw, non_finite=False):
    """A _Table and the same rows as dicts, each column of one exact type.

    About half the tables hold only ints and floats, and render through the
    typed row template; in the rest a column may also hold None, booleans or
    text.
    """
    columns = draw(st.lists(TEXT, min_size=1, max_size=5, unique=True))
    kinds = [INTS, floats(non_finite)]
    if draw(st.booleans()):
        kinds += [st.none(), st.booleans(), TEXT]
    n = draw(st.integers(0, 6))
    cells = [draw(st.lists(draw(st.sampled_from(kinds)), min_size=n, max_size=n))
             for _ in columns]
    return _Table(tuple(columns), cells), [dict(zip(columns, row)) for row in zip(*cells)]


SIM_LIKE = {
    "seed": 3,
    "ticks": 2,
    "rows": [
        {"tick": 1, "injuries": 61.0, "filings": 61.0, "settlements": 0.0, "trials": 61.0,
         "aggregate_trials": 61.0, "welfare": -0.1},
        {"tick": 2, "injuries": 0.5, "filings": 0.5, "settlements": 0.5, "trials": 0.0,
         "aggregate_trials": 61.0, "welfare": 1.7976931348623157e308},
    ],
}


# ---------------------------------------------------------------------------
# tests


class TestAgainstReference:
    @settings(max_examples=120)
    @given(payload=payloads())
    @example(payload=SIM_LIKE)
    @example(payload={"a%sb": [{"%d": 1.5, "%%": "%s"}], "": {}, "e": [], "t": ()})
    def test_json_bytes(self, payload):
        assert _json_render(payload) == ref_json_render(payload)

    @settings(max_examples=120)
    @given(payload=payloads(non_finite=True))
    def test_json_outcome_with_non_finite_values(self, payload):
        assert outcome(_json_render, payload) == outcome(ref_json_render, payload)

    @settings(max_examples=300)
    @given(table=tables(), level=st.integers(0, 2))
    @example(table=(_Table(("a%sb", "%d", "%%"), [[1], [0.5], [-0.0]]),
                    [{"a%sb": 1, "%d": 0.5, "%%": -0.0}]), level=1)
    @example(table=(_Table(("a%sb", "%d", "%%"), [["%s"], [0.5], [None]]),
                    [{"a%sb": "%s", "%d": 0.5, "%%": None}]), level=1)
    @example(table=(_Table(("a,b", 'c"d'), [["", "x\ny"], [True, False]]),
                    [{"a,b": "", 'c"d': True}, {"a,b": "x\ny", 'c"d': False}]), level=0)
    @example(table=(_Table(tuple(SIM_LIKE["rows"][0]),
                           [[r[k] for r in SIM_LIKE["rows"]] for k in SIM_LIKE["rows"][0]]),
                    SIM_LIKE["rows"]), level=1)
    @example(table=(_Table(("a", "b"), [[], []]), []), level=1)
    # csv.writer wrote the CR bare before Python 3.13, and refused the NUL before 3.11
    @example(table=(_Table(("a\rb", "c"), [["\r", "x\x00y"], [1, 2]]),
                    [{"a\rb": "\r", "c": 1}, {"a\rb": "x\x00y", "c": 2}]), level=0)
    # a line whose only cell is empty
    @example(table=(_Table(("",), [["", "x"]]), [{"": ""}, {"": "x"}]), level=0)
    @example(table=(_Table(("a",), [[None]]), [{"a": None}]), level=0)
    def test_table_bytes(self, table, level):
        table, rows = table
        columns = list(table.columns)
        assert _json_render(table, level) == ref_json_render(rows, level)
        text = table.csv()
        assert text == rule_csv_lines(columns, rows)
        if csv_writer_agrees(columns, rows):
            assert text == ref_csv_lines(columns, rows)
        if not any("\x00" in t for t in csv_texts(columns, rows)):
            # csv.reader refuses a line holding NUL before Python 3.11
            assert list(csv.reader(io.StringIO(text, newline=""))) == csv_cells(columns, rows)

    @settings(max_examples=300)
    @given(table=tables(non_finite=True))
    def test_table_outcome_with_non_finite_values(self, table):
        table, rows = table
        assert outcome(_json_render, table) == outcome(ref_json_render, rows)
        assert outcome(table.csv) == outcome(rule_csv_lines, list(table.columns), rows)

    def test_unsupported_type_is_the_same_type_error(self):
        for payload in ({"a": np.int64(1)}, {"a": [{"b": object}]}, {"a": np.bool_(True)}):
            assert outcome(_json_render, payload) == outcome(ref_json_render, payload)
            assert outcome(_json_render, payload)[0] is TypeError


class TestExactTypesOnly:
    """A scalar of any type but an exact builtin one is a TypeError in both formats.

    The reference rendered a subclass (numpy.float64, numpy.str_) by its
    base type.
    """

    SCALARS = [np.float64(1.5), PlainInt(3), np.str_("x"), np.int64(2), np.bool_(True)]

    @pytest.mark.parametrize("value", SCALARS, ids=lambda v: type(v).__name__)
    def test_subclass_scalar_raises_type_error(self, value):
        message = f"unsupported payload type {type(value)!r}"
        for render in (
            lambda: _json_render({"a": value}),
            lambda: _json_render(_Table(("a", "b"), [["x"], [value]])),
            _Table(("a", "b"), [["x"], [value]]).csv,
        ):
            with pytest.raises(TypeError) as got:
                render()
            assert str(got.value) == message
        # nor does a typed template take it: its row is not all int and float
        assert outcome(_Table(("a",), [[value]]).csv)[0] is TypeError

    def test_a_list_is_no_csv_cell(self):
        # the reference wrote it as str() writes it
        assert outcome(_Table(("a",), [[[1]]]).csv) == (
            TypeError, "unsupported payload type <class 'list'>")


class TestNonFiniteAtEveryPosition:
    """Each position of a simulate-like payload, with one non-finite value put there.

    The rows render as dicts, as the typed table ``simulate`` prints, and as
    a table with a leading text column, which renders cell by cell.
    """

    POSITIONS = [(i, key) for i in range(2) for key in SIM_LIKE["rows"][0] if key != "tick"]

    @staticmethod
    def table_of(rows):
        return _Table(tuple(rows[0]), [[r[k] for r in rows] for k in rows[0]])

    @pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
    @pytest.mark.parametrize("i,key", POSITIONS)
    @pytest.mark.parametrize("lead", [{}, {"label": "x"}], ids=["typed", "text"])
    def test_same_domain_error(self, i, key, bad, lead):
        rows = [{**lead, **r} for r in SIM_LIKE["rows"]]
        rows[i][key] = bad
        payload = {**SIM_LIKE, "rows": rows}
        table = self.table_of(rows)
        message = f"result overflowed the representable range: {bad!r}"
        for render, reference in (
            (lambda: _json_render(payload), lambda: ref_json_render(payload)),
            (lambda: _json_render({**payload, "rows": table}), lambda: ref_json_render(payload)),
            (table.csv, lambda: ref_csv_lines(list(rows[0]), rows)),
        ):
            with pytest.raises(DomainError) as got:
                render()
            with pytest.raises(DomainError) as want:
                reference()
            assert str(got.value) == str(want.value) == message

    @pytest.mark.parametrize("lead", [{}, {"label": "x"}], ids=["typed", "text"])
    def test_the_first_non_finite_value_is_reported(self, lead):
        rows = [{**lead, **r} for r in SIM_LIKE["rows"]]
        rows[0]["welfare"], rows[1]["injuries"] = -math.inf, math.nan
        table = self.table_of(rows)
        for render, args in ((_json_render, ({"rows": rows},)), (_json_render, ({"rows": table},)),
                             (table.csv, ())):
            with pytest.raises(DomainError, match="range: -inf$"):
                render(*args)


class TestColumns:
    """A _Table holds columns: an empty one has one empty column per name, and
    columns of unequal length are a ValueError in either format."""

    def test_empty_columns_render_no_rows(self):
        table = _Table(("a", "b"), [[], []])
        assert (_json_render(table), table.csv()) == ("[]", "a,b\n")

    @pytest.mark.parametrize("cells", [[[1, 2], [0.5]], [[0.5], [1, 2]], [[1], []],
                                       [[], [1]], [["x", "y"], [None]]],
                             ids=["typed", "typed-longer", "empty-last", "empty-first", "text"])
    def test_ragged_columns_raise_value_error(self, cells):
        table = _Table(("a", "b"), cells)
        for render in (lambda: _json_render(table), table.csv):
            with pytest.raises(ValueError, match=r"^zip\(\) argument 2 is (shorter|longer)"):
                render()


# ---------------------------------------------------------------------------
# simulate against the per-tick loop and the reference renderer


@st.composite
def simulate_params(draw):
    """simulate's flags, as values; None leaves a flag out."""
    theta = st.one_of(st.none(), st.floats(0.5, 60.0))
    return {
        "n_injurers": draw(st.integers(1, 10**6)),
        "precaution_grid": draw(st.lists(st.floats(0.0, 30.0), min_size=1, max_size=5)),
        "harm_p0": draw(st.floats(0.0, 1.0)),
        "harm_decay": draw(st.floats(0.0, 1.0)),
        "L_harm": draw(st.floats(0.0, 500.0)),
        "p": draw(st.floats(0.0, 1.0)),
        "W_B": draw(st.floats(0.0, 200.0)),
        "S_B": draw(st.floats(0.0, 120.0)),
        "C_b": draw(st.floats(0.0, 40.0)),
        "C_a": draw(st.floats(0.0, 60.0)),
        "discount": draw(st.floats(0.0, 1.0)),
        "theta_a": draw(theta),
        "theta_b": draw(theta),
        "ticks": draw(st.integers(1, 300)),
        "seed": draw(st.integers(0, 2**32)),
        "stochastic": draw(st.booleans()),
    }


def simulate_argv(params):
    argv = ["simulate"]
    for key, value in params.items():
        if isinstance(value, bool):
            argv.append(f"--{key}" if value else f"--no-{key}")
        elif value is not None:
            argv += [f"--{key}", json.dumps(value)]  # repr of a float: the same double back
    return argv


def simulate_config(params):
    return SimConfig(
        n_injurers=params["n_injurers"],
        precaution_cost_grid=tuple(params["precaution_grid"]),
        harm_probability_fn=ExponentialHarm(p0=params["harm_p0"], decay=params["harm_decay"]),
        L_harm=params["L_harm"],
        case_template=CaseTemplate(p=params["p"], W_B=params["W_B"], S_B=params["S_B"],
                                   C_b=params["C_b"]),
        C_a_policy=params["C_a"],
        settlement_liability_discount=params["discount"],
        ticks=params["ticks"],
        seed=params["seed"],
        theta_a=params["theta_a"],
        theta_b=params["theta_b"],
        stochastic=params["stochastic"],
    )


#: Defaults but for the run length, the mode and C_a: 10 goes to trial, 55 settles.
DEFAULT_SIMULATE = {"n_injurers": 10_000, "precaution_grid": [0.0, 5.0, 10.0, 15.0, 20.0],
                    "harm_p0": 0.1, "harm_decay": 0.1, "L_harm": 200.0, "p": 0.5, "W_B": 100.0,
                    "S_B": 60.0, "C_b": 4.0, "discount": 0.5, "theta_a": None, "theta_b": None,
                    "seed": 0}


class TestSimulateAgainstTheReference:
    @settings(max_examples=60)
    @given(params=simulate_params())
    @example(params={**DEFAULT_SIMULATE, "C_a": 10.0, "ticks": 300, "stochastic": False})
    @example(params={**DEFAULT_SIMULATE, "C_a": 55.0, "ticks": 300, "stochastic": True})
    @example(params={**DEFAULT_SIMULATE, "C_a": 10.0, "ticks": 1, "stochastic": True})
    @example(params={**DEFAULT_SIMULATE, "C_a": 55.0, "ticks": 1, "stochastic": False})
    # where the counts print as ints and where they switch back to floats: draws
    # above 1e17, past 2**53, so every count column renders through %.17g ...
    @example(params={**DEFAULT_SIMULATE, "C_a": 10.0, "ticks": 5, "stochastic": True,
                     "n_injurers": 2**63 - 1})
    @example(params={**DEFAULT_SIMULATE, "C_a": 55.0, "ticks": 5, "stochastic": True,
                     "n_injurers": 2**63 - 1})
    # ... and draws of about 3e13 a tick, whose aggregate_trials in a trial run
    # crosses 2**53 at tick 298 of 300 and renders as floats; a settling run
    # tries nothing, so there it stays 0 and every count column prints as ints
    @example(params={**DEFAULT_SIMULATE, "C_a": 10.0, "ticks": 300, "stochastic": True,
                     "n_injurers": 5 * 10**14})
    @example(params={**DEFAULT_SIMULATE, "C_a": 55.0, "ticks": 300, "stochastic": True,
                     "n_injurers": 5 * 10**14})
    def test_stdout_bytes(self, params):
        try:
            rows = [s._asdict() for s in reference_run(simulate_config(params))]
        except InvalidParameterError:  # thresholds that are not > 0
            want = {"json": (1, ""), "csv": (1, "")}
        else:
            header = f"# lexopt {__version__}\n"
            payload = {"seed": params["seed"], "ticks": params["ticks"], "rows": rows}
            want = {
                "json": (0, header + ref_json_render(payload) + "\n"),
                "csv": (0, header + ref_csv_lines(list(rows[0]), rows)),
            }
        for fmt in ("json", "csv"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main([*simulate_argv(params), "--format", fmt])
            assert (code, out.getvalue()) == want[fmt]

    def test_examples_reach_both_decisions(self):
        for C_a, settles in ((10.0, False), (55.0, True)):
            states = reference_run(simulate_config({**DEFAULT_SIMULATE, "C_a": C_a, "ticks": 1,
                                                    "stochastic": False}))
            assert (states[0].settlements > 0.0) is settles
            assert (states[0].trials > 0.0) is not settles


class TestFloatText:
    @settings(max_examples=300)
    @given(x=st.integers(0, 2**53 - 1).map(float))
    @example(x=0.0)
    @example(x=float(2**53 - 1))
    @example(x=1e15)
    @example(x=float(2**52 + 1))
    def test_whole_floats_below_2_to_the_53_print_as_their_int(self, x):
        # simulate prints a stochastic run's counts as ints through %d
        assert "%d" % int(x) == "%.17g" % x

    def test_percent_format_equals_format_on_random_bit_patterns(self):
        # _fmt_float writes "%.17g" % x where the earlier code wrote format(x, ".17g")
        rng = random.Random(20211)
        for _ in range(200_000):
            (x,) = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))
            assert "%.17g" % x == format(x, ".17g")

    @settings(max_examples=300)
    @given(x=st.floats(allow_nan=False, allow_infinity=False))
    @example(x=-0.0)
    @example(x=5e-324)
    @example(x=1.7976931348623157e308)
    def test_fmt_float_round_trips(self, x):
        text = _fmt_float(x)
        assert text == format(x, ".17g")
        assert struct.pack("<d", float(text)) == struct.pack("<d", x)


class TestCsvQuoting:
    @pytest.mark.parametrize("allowed,quoted", [("a,b", '"a,b"'), ('c"d', '"c""d"')])
    def test_comply_strategy_names_are_quoted_as_the_csv_module_quotes(
        self, capsys, allowed, quoted
    ):
        utilities = json.dumps({"a,b": 10, 'c"d': 14} if allowed == "a,b" else
                               {"a,b": 14, 'c"d': 10})
        code = main(["comply", "--utilities", utilities, "--allowed", json.dumps([allowed]),
                     "--margin", "1", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        record = {
            "best_allowed_strategy": allowed,
            "best_allowed_utility": "10",
            "margin": "1",
            "penalty": "5",
            "post_penalty_best_strategy": allowed,
            "post_penalty_best_utility": "10",
            "compliance_dominant": "true",
        }
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([list(record), list(record.values())])
        assert out == "# lexopt 0.1.0\n" + buf.getvalue()
        assert out.splitlines()[2] == f"{quoted},10,1,5,{quoted},10,true"

    @pytest.mark.parametrize("name, cell", [
        ("a\rb", '"a\rb"'), ("a\nb", '"a\nb"'), ("a,b", '"a,b"'), ('a"b', '"a""b"'),
        ("a\x00b", "a\x00b"), ("a\tb", "a\tb"), ('\r\n,"\x00\t', '"\r\n,""\x00\t"'),
    ], ids=["CR", "LF", "comma", "quote", "NUL", "tab", "all"])
    def test_comply_csv_bytes_are_the_same_on_every_python(self, capsys, name, cell):
        # csv.writer wrote the CR bare before Python 3.13, and refused the NUL
        # before 3.11 (a _csv.Error traceback)
        code = main(["comply", "--utilities", json.dumps({name: 10, "b": 14}),
                     "--allowed", json.dumps([name]), "--margin", "1", "--format", "csv"])
        assert code == 0
        assert capsys.readouterr().out.encode() == (
            b"# lexopt 0.1.0\n"
            b"best_allowed_strategy,best_allowed_utility,margin,penalty,"
            b"post_penalty_best_strategy,post_penalty_best_utility,compliance_dominant\n"
            + f"{cell},10,1,5,{cell},10,true\n".encode()
        )
