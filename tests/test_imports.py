"""Each command loads only the modules it runs; numpy stays off the import
path of commands that only do float arithmetic, and no command loads the csv
module, as the CLI quotes CSV text itself.  ``lexopt.hessian`` imports
neither numpy nor dataclasses.

Each check that looks at sys.modules runs in a fresh interpreter, because
this test process has loaded numpy and every lexopt module already.
"""

import ast
import importlib
import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import lexopt
from lexopt.sim import default_sweep_grid

PROBE = """
import contextlib, io, json, sys
import lexopt

def loaded():
    return {"numpy": "numpy" in sys.modules, "csv": "csv" in sys.modules,
            "lexopt": sorted(m for m in sys.modules if m.startswith("lexopt."))}

seen = [loaded()]
from lexopt.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"{argv} exited with {code}")
    seen.append(loaded())
print(json.dumps(seen))
"""

PROBLEM = ["--alpha", "2", "--beta", "1", "--p1", "1", "--p2", "1", "--P_C", "6"]
CASE = ["--p", "0.5", "--W_B", "100", "--S_B", "60", "--C_b", "4", "--C_a", "10"]
STOCHASTIC = ["simulate", "--seed", "0", "--ticks", "2", "--stochastic"]

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
    ["sweep", "--seed", "0", "--ticks", "5"],  # the default grid
]


def probe(commands: list[list[str]]) -> list[dict]:
    """What is loaded after `import lexopt` and after each command, in order."""
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(commands)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_arithmetic_commands_never_import_numpy():
    assert [seen["numpy"] for seen in probe(NUMPY_FREE)] == [False] * (len(NUMPY_FREE) + 1)


def test_no_command_loads_the_csv_module():
    commands = [*NUMPY_FREE, STOCHASTIC]
    seen = probe([*commands, *([*argv, "--format", "csv"] for argv in commands)])
    assert [s["csv"] for s in seen] == [False] * (2 * len(commands) + 1)


def test_probe_sees_numpy_where_it_is_used():
    # stochastic draws do load numpy, so the probe above would notice an import
    assert probe([STOCHASTIC])[-1]["numpy"]


def test_import_lexopt_loads_no_submodule():
    assert probe([])[0]["lexopt"] == []


@pytest.mark.parametrize("argv", [["bargain", *CASE], ["classify", *CASE]])
def test_case_commands_load_only_the_case_model(argv):
    loaded = probe([argv])[-1]["lexopt"]
    assert "lexopt.core_model" in loaded
    for unused in ("sim", "alpha_search", "hessian", "oracle"):
        assert f"lexopt.{unused}" not in loaded


def test_no_command_loads_the_oracle():
    loaded = probe([*NUMPY_FREE, STOCHASTIC])[-1]["lexopt"]
    assert "lexopt.sim" in loaded and "lexopt.oracle" not in loaded


#: public top-level names of an exported submodule that are not exported, and why
INTERNAL = {
    ("errors", "invalid"): "builds the package's InvalidParameterErrors; callers catch them",
    ("core_model", "resolve_thresholds"): "classify_scenario's cutoffs, shared with sim and cli",
    ("sim", "require_admin_cost_grid"): "sweep_admin_cost's grid check, shared with cli",
}


def _top_level_names(tree: ast.Module) -> list[str]:
    """The names a module's own top-level def, class and assignment statements bind."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def test_every_export_is_its_submodule_attribute():
    # and, conversely, every public name of an exported submodule is exported or listed
    unlisted = []
    for module, names in lexopt._EXPORTS.items():
        submodule = importlib.import_module(f"lexopt.{module}")
        for name in names:
            assert getattr(lexopt, name) is getattr(submodule, name), name
        tree = ast.parse(pathlib.Path(submodule.__file__).read_text("utf-8"))
        unlisted += [f"{module}.{name}" for name in _top_level_names(tree)
                     if not name.startswith("_") and name not in names
                     and (module, name) not in INTERNAL]
    assert unlisted == []
    for module, name in INTERNAL:  # a listed name is still there, and still not exported
        assert hasattr(importlib.import_module(f"lexopt.{module}"), name)
        assert name not in lexopt._EXPORTS[module]
    assert lexopt.__all__ == ["__version__", *lexopt._SOURCE]
    assert set(lexopt.__all__) <= set(dir(lexopt))
    star: dict = {}
    exec("from lexopt import *", star)
    assert sorted(set(star) - {"__builtins__"}) == sorted(lexopt.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="'lexopt' has no attribute 'no_such_name'"):
        lexopt.no_such_name  # noqa: B018
    assert not hasattr(lexopt, "_admitted")  # private names are not exported


def test_submodule_attribute_loads_on_first_use():
    code = ("import sys, lexopt; step = lexopt.sim.step; "
            "print(step is lexopt.step, 'lexopt.hessian' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "False"]


HESSIAN_PROBE = """
import json, sys
from lexopt.cobb_douglas import CobbDouglasProblem, solve_closed_form

before = set(sys.modules)
from lexopt.hessian import (HessianVariant, build_bordered_hessian, classify_second_order,
                            hessian_determinant)

prob = CobbDouglasProblem(2.0, 1.0, 1.0, 1.0, 6.0)
sol = solve_closed_form(prob)
for variant in HessianVariant:
    hessian_determinant(build_bordered_hessian(prob, sol, variant, True))
classify_second_order(prob, sol, True)
print(json.dumps({"added": sorted(set(sys.modules) - before), "numpy": "numpy" in sys.modules}))
"""


def test_the_hessian_module_loads_no_numpy_and_no_dataclasses():
    # CobbDouglasProblem, the problem record, is a dataclass, so importing
    # lexopt.cobb_douglas loads dataclasses; lexopt.hessian adds no module of
    # its own, run or imported, and imports neither numpy nor dataclasses
    done = subprocess.run([sys.executable, "-c", HESSIAN_PROBE], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"added": ["lexopt.hessian"], "numpy": False}
    source = pathlib.Path(importlib.import_module("lexopt.hessian").__file__).read_text("utf-8")
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            imported.add(node.module)
    assert imported == {"__future__", "enum", "typing"}


def test_default_sweep_grid_is_numpy_linspace_as_plain_floats():
    grid = default_sweep_grid()
    assert all(type(c) is float for c in grid)
    assert [c.hex() for c in grid] == [float(c).hex() for c in np.linspace(0.0, 55.0, 20)]
