"""Generated argv for all nine commands keeps the CLI's exit-code contract.

Each case starts from a valid invocation of one command, replaces or drops a
few of its flags, may move some of them into a JSON config file (or swap the
file for bytes that do not decode), and may add a malformed token, a JSON
flag nested too deeply, or a bad config key.  Every run must exit 0, 1, 2 or
64 without an exception escaping; a failure prints nothing on stdout and
exactly one ``error:`` line on stderr (after any override notes), and an
exit 1 prints an InvalidParameterError whose field is a flag of the command,
the config file or the seed; a success prints the same bytes when run
again, and they parse as the JSON or CSV they claim to be.  An argv whose
every token is a value its flag's parser accepts is never a usage error, so
a value argparse mistakes for an option (``--R_B -1e3``) fails the test.
"""

import contextlib
import csv
import io
import json
import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexopt import __version__, cli
from lexopt.cli import BOOL, COMMANDS, FLOAT, INT, JSONVAL, STR, _Table, main
from lexopt.errors import InvalidParameterError
from test_golden import CLI_ONESHOT_OPS, workload

PROBLEM = {"alpha": "2", "beta": "1", "p1": "1", "p2": "1", "P_C": "6"}
CASE = {"p": "0.5", "W_B": "100", "S_B": "60", "C_a": "10", "C_b": "4"}
SIM = {"seed": "0", "ticks": "5", "n_injurers": "1000"}

# one valid invocation per command, flag -> value text (True: a bare boolean flag)
BASES = {
    "bargain": CASE,
    "classify": {**CASE, "theta_a": "20"},
    "solve": PROBLEM,
    "hessian": {**PROBLEM, "cross_terms": True},
    "phi": {"rates": "[[0.2, 0.3], [0.1, 0.4]]", "L": "[5, -2]", "R_B": "11", "P_C": "55"},
    "alpha-search": {"alpha_grid": "[0.25, 0.5, 2]", "beta": "0.5", "p1": "1", "p2": "1",
                     "P_C": "2", "hessian_variant": "DirectForm"},
    "comply": {"utilities": '{"a": 3, "b": 1}', "allowed": '["b"]'},
    "simulate": {**SIM, "stochastic": True},
    "sweep": {**SIM, "C_a_grid": "[0, 10, 30]"},
}
assert set(BASES) == set(COMMANDS)

# spellings on which argparse and float() disagree, and the edges of the float range
FLOAT_SPELLINGS = ["-1e3", "-1E3", "-inf", "inf", "-Infinity", "nan", "-nan", "1e308",
                   "-1e308", "1e-320", "-0.0", "-.5", "1e+2", "5e-324", "-7"]
floats = st.one_of(
    st.sampled_from(FLOAT_SPELLINGS),
    st.floats().map(repr),
    st.integers(-10**4, 10**4).map(str),
)
# 10**400 is a JSON integer that float() refuses
numbers = st.one_of(st.floats(), st.integers(-10**4, 10**4),
                    st.sampled_from([1e308, -1e308, 10**400]))
number_lists = st.lists(numbers, max_size=5)
# no NUL: csv.reader refuses a line holding one before Python 3.11
names = st.sampled_from(["a", "b", "c", "a,b", 'c"d', "a\rb"])
json_junk = st.one_of(st.none(), st.booleans(), numbers, names, st.just({}))

# the run length and the grids stay small so that a case takes milliseconds
INT_VALUES = {
    "ticks": st.integers(-2, 30),
    "n_injurers": st.one_of(st.integers(-3, 10**6), st.sampled_from([2**63 - 1, 2**63, 10**20])),
    "seed": st.one_of(st.integers(-3, 10**6), st.just(2**64)),
}
JSON_VALUES = {
    "rates": st.lists(st.lists(numbers, min_size=1, max_size=3), max_size=3),
    "utilities": st.dictionaries(names, numbers, max_size=4),
    "allowed": st.lists(names, max_size=3),
}
STR_VALUES = ["MaxUtility", "MaxLambda", "ShadowForm", "DirectForm", "other", ""]
MALFORMED = ["half", "{", "[1,", "--", "-x", "--nope", "stray", "1.5.2"]
# JSON nested deeper than the parser's recursion limit, given to a JSON flag
DEEP_JSON = "[" * 5000 + "]" * 5000
# config files that are not UTF-8, hold an integer past int()'s digit limit,
# nest too deeply, or are not JSON at all
RAW_CONFIGS = [b"\xff\xfe{}", b"\xef\xbb\xbf{}", b'{"seed": ' + b"9" * 5000 + b"}",
               b'{"x": ' + DEEP_JSON.encode() + b"}", b"{not json", b""]
# what a config file holds for a flag's value text, by the flag's kind
FILE_VALUE = {FLOAT: float, INT: int, STR: str, BOOL: bool, JSONVAL: json.loads}


def value_text(key: str, kind: str) -> st.SearchStrategy:
    if kind == FLOAT:
        return floats
    if kind == INT:
        return INT_VALUES[key].map(str)
    if kind == STR:
        return st.sampled_from(STR_VALUES)
    if kind == BOOL:
        return st.booleans()
    return st.one_of(JSON_VALUES.get(key, number_lists), json_junk).map(json.dumps)


@st.composite
def cases(draw):
    """(argv, config, well_formed): well_formed when every value suits its flag.

    config is None, a dict to write as JSON, or the raw bytes of the file.
    """
    command = draw(st.sampled_from(sorted(COMMANDS)))
    kinds = {f.key: f.kind for f in COMMANDS[command].fields}
    values = dict(BASES[command])
    for key in draw(st.sets(st.sampled_from(sorted(kinds)), max_size=3)):
        values[key] = draw(value_text(key, kinds[key]))
    for key in draw(st.sets(st.sampled_from(sorted(values)), max_size=1)):
        del values[key]
    config = None
    if draw(st.booleans()):
        in_file = draw(st.sets(st.sampled_from(sorted(values)), max_size=3))
        config = {key: FILE_VALUE[kinds[key]](values.pop(key)) for key in sorted(in_file)}
        # a key the command does not have, or a value of the wrong JSON type
        config.update(draw(st.sampled_from([{}, {}, {"nope": 1}, {sorted(kinds)[0]: "x"}])))
        config = draw(st.sampled_from([config] * len(RAW_CONFIGS) + RAW_CONFIGS))
    groups = []
    for key, value in values.items():
        if kinds[key] == BOOL:
            groups.append([f"--{key}" if value else f"--no-{key}"])
        elif draw(st.booleans()):
            groups.append([f"--{key}={value}"])
        else:
            groups.append([f"--{key}", value])
    groups.append(["--format", draw(st.sampled_from(["json", "csv"]))])
    deep_flags = [f"--{key}={DEEP_JSON}" for key in sorted(kinds) if kinds[key] == JSONVAL]
    malformed = draw(st.lists(st.sampled_from(MALFORMED + deep_flags), max_size=1))
    argv = [command, *(t for g in draw(st.permutations(groups)) for t in g), *malformed]
    return argv, config, not malformed


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def base_argv(command: str) -> list[str]:
    return [command, *(t for k, v in BASES[command].items()
                       for t in ([f"--{k}"] if v is True else [f"--{k}", v]))]


@pytest.mark.parametrize("command", sorted(BASES))
def test_every_base_invocation_succeeds(command):
    for fmt in ("json", "csv"):
        code, out, err = run([*base_argv(command), "--format", fmt])
        assert (code, err) == (0, ""), err
        assert out.startswith("# lexopt ")


EXACT = (type(None), bool, int, float, str)


def check_exact_types(obj, where="payload"):
    """Every scalar is of an exact builtin type, and every _Table column holds one type.

    The renderer looks a scalar's text up by its exact type, and a table
    renders each row through directives typed by the first value of each
    column.  A table has one column of cells per name, all of
    one length.
    """
    if type(obj) is _Table:
        assert all(type(c) is str for c in obj.columns), where
        assert len(obj.cells) == len(obj.columns), where
        assert len({len(cells) for cells in obj.cells}) == 1, where
        for name, cells in zip(obj.columns, obj.cells):
            kinds = {type(v) for v in cells}
            assert len(kinds) <= 1 and kinds <= set(EXACT), f"{where}.{name}"
    elif type(obj) in (list, tuple):
        for i, value in enumerate(obj):
            check_exact_types(value, f"{where}[{i}]")
    elif type(obj) is dict:
        for key, value in obj.items():
            assert type(key) is str, where
            check_exact_types(value, f"{where}.{key}")
    else:
        assert type(obj) in EXACT, (where, type(obj))


def test_rendered_outputs_hold_exact_types(monkeypatch):
    seen = []

    def emit(out, fmt):
        seen.append(out)
        return emit_text(out, fmt)

    emit_text = cli._emit
    monkeypatch.setattr(cli, "_emit", emit)
    oneshot = workload("CliOneshot")
    argvs = [[*base_argv(c), "--format", fmt] for c in sorted(BASES) for fmt in ("json", "csv")]
    argvs += [oneshot.make_input(i)[2] for i in range(CLI_ONESHOT_OPS)]
    for argv in argvs:
        assert run(argv)[0] == 0, argv
    assert len(seen) == len(argvs)
    for out, argv in zip(seen, argvs):
        check_exact_types(out.json_payload, argv[0])
        if out.csv_rows is not None:
            check_exact_types(out.csv_rows, f"{argv[0]} csv_rows")
        assert set(out.csv_comments) <= set(out.json_payload), argv


@contextlib.contextmanager
def field_errors():
    """A list of the InvalidParameterErrors that main's merge or command runner raises."""
    seen = []

    def recording(fn):
        def call(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except InvalidParameterError as exc:
                seen.append(exc)
                raise
        return call

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_merge_params", recording(cli._merge_params))
        for name, spec in COMMANDS.items():
            mp.setitem(COMMANDS, name, spec._replace(runner=recording(spec.runner)))
        yield seen


@settings(max_examples=400)
@given(case=cases())
def test_generated_argv_keeps_the_exit_code_contract(case):
    argv, config, well_formed = case
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = os.path.join(tmp, "config.json")
            with open(path, "wb") as fh:
                fh.write(config if isinstance(config, bytes) else json.dumps(config).encode())
            argv = [*argv, "--config", path]
        check_contract(argv, well_formed)


def check_contract(argv: list[str], well_formed: bool) -> None:
    with field_errors() as seen:
        code, out, err = run(argv)
    assert code in ((0, 1, 2) if well_formed else (0, 1, 2, 64)), (code, err)
    if code == 1:
        # the field names a flag of the command, the config file, or the seed
        [exc] = seen
        assert err.endswith(f"error: {exc}\n"), (err, exc)
        flags = {f.key for f in COMMANDS[argv[0]].fields} | {"config", "seed"}
        assert re.match(r"\w+", exc.field).group() in flags, (argv, exc.field, str(exc))
    if code != 0:
        assert out == ""
    if code in (1, 2):
        # a flag that overrides the config file adds a note line before the error
        *notes, last = err.splitlines()
        assert last.startswith("error: ") and all(n.startswith("note: ") for n in notes), err
    if code == 0:
        assert run(argv) == (code, out, err)
        check_parses(out, argv[argv.index("--format") + 1])


def check_parses(out: str, fmt: str) -> None:
    """The version line, then one JSON document, or CSV rows as wide as their header."""
    header, _, body = out.partition("\n")
    assert header == f"# lexopt {__version__}"
    if fmt == "json":
        json.loads(body)
        return
    lines = body.splitlines(keepends=True)
    while lines and lines[0].startswith("# "):  # the key=value comment lines
        lines.pop(0)
    columns, *rows = csv.reader(lines)
    assert columns and all(len(row) == len(columns) for row in rows), body
