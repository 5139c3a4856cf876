"""The CLI renderer against the recursive renderer it replaced.

``ref_json_render``, ``ref_csv_cell`` and ``ref_csv_lines`` are the earlier
serialization code of ``lexopt.cli``, kept verbatim as the reference: an
isinstance chain and a recursive call per value, and one ``writerow`` per
CSV row.  The renderer in ``lexopt.cli`` must give the same bytes for every
payload, and the same ``DomainError`` message where a value is not finite.
"""

import csv
import io
import json
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexopt.cli import _csv_lines, _fmt_float, _json_render, main
from lexopt.errors import DomainError

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


def outcome(render, *args):
    """The text, or the type and message of the error the render raised."""
    try:
        return render(*args)
    except (DomainError, TypeError) as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# payloads


class PlainInt(int):
    """An int subclass, coerced to int like numpy.float64 is to float."""


class PlainStr(str):
    pass


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 1e16, 1e17, 123456789012345680.0]
NON_FINITE = [math.inf, -math.inf, math.nan]
# separators, quotes, line breaks, escapes, format directives and non-ASCII
TEXT = st.text(alphabet=list('ab ,;"\'\n\r\t\\%/\xe9\u20ac\x00\U0001f600'), max_size=6)


def scalars(non_finite=False):
    floats = st.floats(allow_nan=non_finite, allow_infinity=non_finite) | st.sampled_from(
        EDGE_FLOATS + (NON_FINITE if non_finite else []))
    return st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-10, 10) | st.integers(-(2**80), 2**80) | st.sampled_from([2**64, -(10**40)]),
        floats,
        floats.map(np.float64),
        st.integers(-(2**70), 2**70).map(PlainInt),
        TEXT,
        TEXT.map(PlainStr),
    )


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
    """CSV columns and rows: every row has the columns, in any order, plus extras."""
    # cells that are not scalars are written as str() writes them
    others = st.lists(st.integers(0, 9), max_size=2) | st.integers(-5, 5).map(np.int64) | (
        st.booleans().map(np.bool_))
    values = scalars(non_finite) | others
    columns = draw(st.lists(TEXT, min_size=1, max_size=5, unique=True))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        row = {c: draw(values) for c in draw(st.permutations(columns))}
        if draw(st.booleans()):
            row[draw(TEXT)] = draw(values)
        rows.append(row)
    return columns, rows


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
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(payload=payloads())
    @example(payload=SIM_LIKE)
    @example(payload={"a%sb": [{"%d": 1.5, "%%": "%s"}], "": {}, "e": [], "t": ()})
    def test_json_bytes(self, payload):
        assert _json_render(payload) == ref_json_render(payload)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(table=tables())
    @example(table=(list(SIM_LIKE["rows"][0]), SIM_LIKE["rows"]))
    def test_csv_bytes(self, table):
        columns, rows = table
        assert _csv_lines(columns, rows) == ref_csv_lines(columns, rows)

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(payload=payloads(non_finite=True))
    def test_json_outcome_with_non_finite_values(self, payload):
        assert outcome(_json_render, payload) == outcome(ref_json_render, payload)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(table=tables(non_finite=True))
    def test_csv_outcome_with_non_finite_values(self, table):
        assert outcome(_csv_lines, *table) == outcome(ref_csv_lines, *table)

    def test_unsupported_type_is_the_same_type_error(self):
        for payload in ({"a": np.int64(1)}, {"a": [{"b": object}]}, {"a": np.bool_(True)}):
            assert outcome(_json_render, payload) == outcome(ref_json_render, payload)
            assert outcome(_json_render, payload)[0] is TypeError


class TestNonFiniteAtEveryPosition:
    """Each position of a simulate-like payload, with one non-finite value put there."""

    POSITIONS = [(i, key) for i in range(2) for key in SIM_LIKE["rows"][0] if key != "tick"]

    @pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
    @pytest.mark.parametrize("i,key", POSITIONS)
    def test_same_domain_error(self, i, key, bad):
        rows = [dict(r) for r in SIM_LIKE["rows"]]
        rows[i][key] = bad
        payload = {**SIM_LIKE, "rows": rows}
        message = f"result overflowed the representable range: {bad!r}"
        for render, reference, args in (
            (_json_render, ref_json_render, (payload,)),
            (_csv_lines, ref_csv_lines, (list(rows[0]), rows)),
        ):
            with pytest.raises(DomainError) as got:
                render(*args)
            with pytest.raises(DomainError) as want:
                reference(*args)
            assert str(got.value) == str(want.value) == message

    def test_the_first_non_finite_value_is_reported(self):
        rows = [dict(r) for r in SIM_LIKE["rows"]]
        rows[0]["welfare"], rows[1]["injuries"] = -math.inf, math.nan
        for render, args in ((_json_render, ({"rows": rows},)), (_csv_lines, (list(rows[0]), rows))):
            with pytest.raises(DomainError, match="range: -inf$"):
                render(*args)


class TestFloatText:
    def test_percent_format_equals_format_on_random_bit_patterns(self):
        # _fmt_float writes "%.17g" % x where the earlier code wrote format(x, ".17g")
        rng = random.Random(20211)
        for _ in range(200_000):
            (x,) = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))
            assert "%.17g" % x == format(x, ".17g")

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
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
