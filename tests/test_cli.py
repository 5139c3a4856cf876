import argparse
import hashlib
import inspect
import json
import math
import os
import shlex
import subprocess
import sys
import warnings

import pytest

from lexopt import __version__, cli, default_config, run_simulation, solve_closed_form
from lexopt.cli import (COMMANDS, _build_sim_config, _emit, _merge_params, build_parser, entry,
                        main)
from lexopt.errors import DomainError, InvalidParameterError
from lexopt.sim import _MAX_ROWS
from test_sim import UNALLOCATABLE_TICKS, run_bounded

BARGAIN_ARGS = ["--p", "0.5", "--W_B", "100", "--S_B", "60", "--C_a", "10", "--C_b", "4"]
SQRT_ARGS = ["--alpha", "0.5", "--beta", "0.5", "--p1", "1", "--p2", "1", "--P_C", "2"]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_json(out: str):
    header, _, body = out.partition("\n")
    assert header == f"# lexopt {__version__}"
    return json.loads(body)


class TestOutputContract:
    def test_version_header_on_every_command(self, capsys):
        for argv in (
            ["bargain", *BARGAIN_ARGS],
            ["solve", *SQRT_ARGS],
            ["solve", *SQRT_ARGS, "--format", "csv"],
        ):
            code, out, _ = run_cli(capsys, argv)
            assert code == 0
            assert out.splitlines()[0] == f"# lexopt {__version__}"

    def test_bargain_json_is_byte_stable(self, capsys):
        code, out, _ = run_cli(capsys, ["bargain", *BARGAIN_ARGS])
        assert code == 0
        assert out == (
            f"# lexopt {__version__}\n"
            "{\n"
            '  "R_B": 44,\n'
            '  "P_C": 55,\n'
            '  "L_C": 11,\n'
            '  "negative_bargain": false\n'
            "}\n"
        )

    def test_bargain_csv(self, capsys):
        code, out, _ = run_cli(capsys, ["bargain", *BARGAIN_ARGS, "--format", "csv"])
        assert code == 0
        assert out == f"# lexopt {__version__}\nR_B,P_C,L_C,negative_bargain\n44,55,11,false\n"

    def test_floats_round_trip_exactly(self, capsys):
        argv = ["solve", "--alpha", "0.3", "--beta", "0.7", "--p1", "1.1", "--p2", "0.9",
                "--P_C", "13.7"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        payload = parse_json(out)
        from lexopt import CobbDouglasProblem

        sol = solve_closed_form(CobbDouglasProblem(0.3, 0.7, 1.1, 0.9, 13.7))
        assert payload["L_C_star"] == sol.L_C_star
        assert payload["lambda"] == sol.lam

    def test_version_flag(self, capsys):
        code, out, _ = run_cli(capsys, ["--version"])
        assert code == 0
        assert out.strip() == f"lexopt {__version__}"


class TestBargainAndClassify:
    def test_negative_bargain_is_reported_not_clamped(self, capsys):
        argv = ["bargain", "--p", "0.5", "--W_B", "100", "--S_B", "60",
                "--C_a", "100", "--C_b", "20"]
        code, out, _ = run_cli(capsys, argv)
        payload = parse_json(out)
        assert code == 0
        assert payload["R_B"] == -25.0
        assert payload["negative_bargain"] is True

    def test_classify_defaults(self, capsys):
        code, out, _ = run_cli(capsys, ["classify", *BARGAIN_ARGS])
        payload = parse_json(out)
        assert code == 0
        assert payload == {
            "label": "LowCb_LowCa",
            "decision": "Trial",
            "theta_a": 27.5,
            "theta_b": 27.5,
        }

    def test_classify_explicit_thresholds(self, capsys):
        argv = ["classify", *BARGAIN_ARGS, "--theta_a", "5", "--theta_b", "3"]
        code, out, _ = run_cli(capsys, argv)
        payload = parse_json(out)
        assert payload["label"] == "HighCb_HighCa"
        assert payload["decision"] == "Trial"


class TestSolveAndHessian:
    def test_solve_reports_all_diagnostics(self, capsys):
        code, out, _ = run_cli(capsys, ["solve", *SQRT_ARGS])
        payload = parse_json(out)
        assert code == 0
        assert payload["L_C_star"] == 1.0
        assert payload["R_B_star"] == 1.0
        assert payload["lambda"] == 0.5
        assert payload["U_star"] == 1.0
        assert payload["kkt_ok"] is True
        assert payload["identity_residual"] == 0.0
        assert payload["mrs"] == payload["price_ratio"] == 1.0
        assert payload["budget_residual"] == 0.0

    def test_hessian_reports_both_variants(self, capsys):
        code, out, _ = run_cli(capsys, ["hessian", *SQRT_ARGS])
        payload = parse_json(out)
        assert code == 0
        assert payload["shadow_form"]["det"] == 0.25
        assert payload["shadow_form"]["classification"] == "LocalMax"
        assert payload["direct_form"]["det"] == 0.125
        assert payload["direct_form"]["classification"] == "LocalMax"
        assert payload["shadow_form"]["matrix"][0] == [0.0, -0.5, -0.5]

    def test_hessian_matrices_match_the_library_builder(self, capsys):
        from lexopt import CobbDouglasProblem, HessianVariant, build_bordered_hessian

        argv = ["hessian", "--alpha", "1.5", "--beta", "0.7", "--p1", "1.3", "--p2", "0.8",
                "--P_C", "9", "--cross_terms"]
        prob = CobbDouglasProblem(1.5, 0.7, 1.3, 0.8, 9.0)
        sol = solve_closed_form(prob)
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        payload = parse_json(out)
        code, out, _ = run_cli(capsys, [*argv, "--format", "csv"])
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[2:]]
        keys = ((HessianVariant.SHADOW_FORM, "shadow_form"),
                (HessianVariant.DIRECT_FORM, "direct_form"))
        for (variant, key), row in zip(keys, rows):
            m = build_bordered_hessian(prob, sol, variant, include_cross_terms=True).entries
            assert payload[key]["matrix"] == [list(r) for r in m]
            cells = [m[0][0], m[0][1], m[0][2], m[1][1], m[1][2], m[2][2]]
            assert row[1:7] == [format(v, ".17g") for v in cells]

    def test_hessian_csv_has_one_row_per_variant(self, capsys):
        code, out, _ = run_cli(capsys, ["hessian", *SQRT_ARGS, "--format", "csv"])
        lines = out.splitlines()
        assert lines[1] == "variant,m00,m01,m02,m11,m12,m22,det,classification"
        assert len(lines) == 4
        assert lines[2].startswith("ShadowForm,")
        assert lines[3].startswith("DirectForm,")

    def test_solve_overflow_is_a_domain_failure(self, capsys):
        argv = ["solve", "--alpha", "3", "--beta", "3", "--p1", "1", "--p2", "1",
                "--P_C", "1e200"]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


class TestPhi:
    def test_phi_json(self, capsys):
        argv = ["phi", "--rates", "[[0.2,0.2]]", "--L", "[5]", "--R_B", "11", "--P_C", "55"]
        code, out, _ = run_cli(capsys, argv)
        payload = parse_json(out)
        assert code == 0
        assert payload == {
            "components": [1.0],
            "total": 1.0,
            "admissible": True,
            "within_budget": True,
        }

    def test_phi_without_bargain_leaves_checks_null(self, capsys):
        argv = ["phi", "--rates", "[[0.2,0.3]]", "--L", "[-5]", "--C_b_fixed", "1",
                "--with_fixed"]
        code, out, _ = run_cli(capsys, argv)
        payload = parse_json(out)
        assert payload["total"] == 2.5
        assert payload["admissible"] is None
        assert payload["within_budget"] is None

    def test_phi_csv_carries_checks_as_comments(self, capsys):
        argv = ["phi", "--rates", "[[0.2,0.2]]", "--L", "[5]", "--R_B", "11",
                "--P_C", "55", "--format", "csv"]
        code, out, _ = run_cli(capsys, argv)
        assert out == (
            f"# lexopt {__version__}\n"
            "# total=1\n"
            "# admissible=true\n"
            "# within_budget=true\n"
            "component,L,phi\n"
            "0,5,1\n"
        )

    def test_malformed_rates_name_the_field(self, capsys):
        argv = ["phi", "--rates", "[[0.2]]", "--L", "[5]"]
        code, _, err = run_cli(capsys, argv)
        assert code == 1
        assert "rates[0]" in err

    @pytest.mark.parametrize("rates", ['[["a", 1]]', "[[null, 1]]"])
    def test_non_numeric_rate_is_invalid_input(self, capsys, rates):
        # these ended in a ValueError / TypeError traceback
        code, out, err = run_cli(capsys, ["phi", "--rates", rates, "--L", "[1]"])
        assert code == 1
        assert out == ""
        assert err.splitlines() == [err.rstrip("\n")]
        assert err.startswith("error: rates[0][0] must be a number")


class TestAlphaSearch:
    BASE = ["alpha-search", "--beta", "0.5", "--p1", "1", "--p2", "1", "--P_C", "2"]

    def test_grid_example(self, capsys):
        argv = [*self.BASE, "--alpha_grid", "[0.25, 0.5, 0.75]"]
        code, out, _ = run_cli(capsys, argv)
        payload = parse_json(out)
        assert code == 0
        assert payload["alpha_star"] == 0.25
        assert payload["L_C_opt"] == 0.6666666666666666
        assert [row["alpha"] for row in payload["admissible"]] == [0.25, 0.5, 0.75]

    def test_objective_flag(self, capsys):
        argv = [*self.BASE, "--alpha_grid", "[0.25, 0.5, 0.75]", "--objective", "MaxLambda"]
        code, out, _ = run_cli(capsys, argv)
        payload = parse_json(out)
        assert payload["alpha_star"] == 0.75

    def test_empty_result_is_still_success(self, capsys):
        argv = ["alpha-search", "--alpha_grid", "[2]", "--beta", "2", "--p1", "1",
                "--p2", "1", "--P_C", "4", "--hessian_variant", "DirectForm"]
        code, out, _ = run_cli(capsys, argv)
        payload = parse_json(out)
        assert code == 0
        assert payload["admissible"] == []
        assert payload["alpha_star"] is None
        assert payload["U_star_final"] is None

    def test_empty_result_csv_comments_say_null(self, capsys):
        argv = ["alpha-search", "--alpha_grid", "[2]", "--beta", "2", "--p1", "1",
                "--p2", "1", "--P_C", "4", "--hessian_variant", "DirectForm",
                "--format", "csv"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        lines = out.splitlines()
        assert "# alpha_star=null" in lines
        assert lines[-1] == "alpha,L_C_star,R_B_star,lambda,U_star,det_H"

    def test_unknown_objective_names_the_field(self, capsys):
        argv = [*self.BASE, "--alpha_grid", "[0.5]", "--objective", "Fastest"]
        code, _, err = run_cli(capsys, argv)
        assert code == 1
        assert "objective" in err and "MaxUtility" in err


class TestComply:
    def test_worked_example(self, capsys):
        argv = ["comply",
                "--utilities", '{"comply": 10, "evade": 14, "partial": 12}',
                "--allowed", '["comply", "partial"]',
                "--margin", "1"]
        code, out, _ = run_cli(capsys, argv)
        payload = parse_json(out)
        assert code == 0
        assert payload["best_allowed_strategy"] == "partial"
        assert payload["penalty"] == 3.0
        assert payload["post_penalty_best_strategy"] == "partial"
        assert payload["compliance_dominant"] is True

    def test_all_allowed_is_invalid_input(self, capsys):
        argv = ["comply", "--utilities", '{"a": 1}', "--allowed", '["a"]']
        code, _, err = run_cli(capsys, argv)
        assert code == 1
        assert "no disallowed" in err

    @pytest.mark.parametrize(
        "utilities",
        [
            # the penalty itself overflows to inf
            '{"a": 1e308, "b": -1e308}',
            # the penalty is finite but c - penalty overflows to -inf
            '{"a": 1e308, "b": 0, "c": -1e308}',
        ],
    )
    def test_penalty_overflow_is_a_domain_failure(self, capsys, utilities):
        argv = ["comply", "--utilities", utilities, "--allowed", '["b"]']
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [err.rstrip("\n")]
        assert "overflowed" in err
        assert "must be finite" not in err

    @pytest.mark.parametrize("name, encoding, message", [
        # a JSON escape, so the argv holds no lone surrogate
        ("\\ud800", "utf-8", "'\\ud800', which stdout's utf-8 encoding cannot write "
                              "(surrogates not allowed)"),
        ("\u00e9", "ascii", "'\\xe9', which stdout's ascii encoding cannot write "
                           "(ordinal not in range(128))"),
    ], ids=["surrogate", "ascii"])
    def test_text_stdout_cannot_encode_is_a_domain_error(self, name, encoding, message):
        # it was a UnicodeEncodeError traceback with exit 1; JSON escapes the text
        argv = ["comply", "--utilities", f'{{"{name}": 1, "b": 2}}', "--allowed", f'["{name}"]',
                "--format", "csv"]
        proc = subprocess.run([sys.executable, "-m", "lexopt", *argv], capture_output=True,
                              timeout=120, env={**os.environ, "PYTHONIOENCODING": encoding})
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr.decode().splitlines() == [
            f"error: the output holds {message}"]


class TestSimulateAndSweep:
    SMALL = ["--n_injurers", "50", "--ticks", "3"]

    def test_seed_is_required(self, capsys, monkeypatch):
        monkeypatch.delenv("LEXOPT_SEED", raising=False)
        code, _, err = run_cli(capsys, ["simulate", *self.SMALL])
        assert code == 1
        assert "LEXOPT_SEED" in err

    def test_seed_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("LEXOPT_SEED", "9")
        code, out, _ = run_cli(capsys, ["simulate", *self.SMALL])
        payload = parse_json(out)
        assert code == 0
        assert payload["seed"] == 9
        assert len(payload["rows"]) == 3

    def test_seed_flag_beats_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("LEXOPT_SEED", "9")
        code, out, _ = run_cli(capsys, ["simulate", *self.SMALL, "--seed", "3"])
        payload = parse_json(out)
        assert payload["seed"] == 3

    def test_garbage_environment_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("LEXOPT_SEED", "not-a-seed")
        code, _, err = run_cli(capsys, ["simulate", *self.SMALL])
        assert code == 1
        assert "LEXOPT_SEED" in err

    def test_simulate_rows_conserve_filings(self, capsys):
        code, out, _ = run_cli(capsys, ["simulate", *self.SMALL, "--seed", "0"])
        payload = parse_json(out)
        for row in payload["rows"]:
            assert row["settlements"] + row["trials"] == row["filings"]

    def test_sweep_csv_is_byte_identical_across_runs(self, capsys):
        argv = ["sweep", *self.SMALL, "--seed", "0", "--format", "csv"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_sweep_csv_has_exactly_four_columns(self, capsys):
        argv = ["sweep", *self.SMALL, "--seed", "0", "--C_a_grid", "[0, 30]",
                "--format", "csv"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        lines = out.splitlines()
        data = [line for line in lines if not line.startswith("#")]
        assert data[0] == "C_a,aggregate_trials,settlement_rate,welfare"
        assert all(len(line.split(",")) == 4 for line in data)
        assert any(line.startswith("# best_welfare_C_a=") for line in lines)
        assert any(line.startswith("# fewest_trials_C_a=") for line in lines)

    def test_sweep_json_carries_flags_per_row(self, capsys):
        argv = ["sweep", *self.SMALL, "--seed", "0", "--C_a_grid", "[0, 30]"]
        code, out, _ = run_cli(capsys, argv)
        payload = parse_json(out)
        assert code == 0
        assert [row["settlement_rate"] for row in payload["rows"]] == [0.0, 1.0]
        assert sum(row["best_welfare"] for row in payload["rows"]) == 1
        assert sum(row["fewest_trials"] for row in payload["rows"]) == 1
        assert payload["fewest_trials_C_a"] == 30.0

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_sweep_horizon_past_any_list_prints_rows(self, capsys, fmt):
        # a deterministic sweep holds no value per tick; 10**20 ticks once
        # failed with Python's list-size error, which names no field
        argv = ["sweep", "--seed", "0", "--ticks", str(10**20), "--format", fmt]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        if fmt == "json":
            rows = [list(row.values())[:4] for row in parse_json(out)["rows"]]
        else:
            rows = [line.split(",") for line in out.splitlines()[4:]]
        assert len(rows) == 20
        assert all(math.isfinite(float(v)) for row in rows for v in row)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("ticks", [2**62, 10**20])
    @pytest.mark.parametrize("stochastic", [[], ["--stochastic"]])
    def test_simulate_horizon_past_any_list_is_a_domain_error(self, capsys, fmt, ticks, stochastic):
        # simulate prints a row per tick; 2**62 ticks once raised a MemoryError
        # traceback and 10**20 Python's list-size error, which names no field
        argv = ["simulate", "--seed", "0", "--ticks", str(ticks), *stochastic, "--format", fmt]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"error: ticks={ticks} is more rows than a per-tick table can hold "
            f"(at most {_MAX_ROWS})"
        ]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_simulate_unallocatable_horizon_is_a_domain_error(self, capsys, fmt):
        # under the row bound, but no process can allocate its per-tick column;
        # it once printed a MemoryError traceback and exited 1
        argv = ["simulate", "--seed", "0", "--ticks", str(UNALLOCATABLE_TICKS), "--format", fmt]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"error: ticks={UNALLOCATABLE_TICKS} is more rows than this process can allocate"]

    def test_stochastic_unallocatable_horizon_fails_before_any_draw(self):
        proc = run_bounded("import sys\nfrom lexopt.cli import main\nsys.exit(main(sys.argv[1:]))",
                           "simulate", "--seed", "0", "--stochastic",
                           "--ticks", str(UNALLOCATABLE_TICKS))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.splitlines() == [
            f"error: ticks={UNALLOCATABLE_TICKS} is more rows than this process can allocate"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("command, error", [
        (["simulate", "--ticks", "7"], "ticks=7 is more rows"),
        (["sweep", "--C_a_grid", "[0, 30]"], "the output is more"),
    ])
    def test_render_out_of_memory_is_a_domain_error(self, capsys, monkeypatch, fmt, command,
                                                    error):
        # rows that fit can render to text that does not: under ulimit -v 500000,
        # simulate --ticks 1000000 once printed a MemoryError traceback and exited 1
        def out_of_memory(*args):
            raise MemoryError

        monkeypatch.setattr(cli._Table, "json", out_of_memory)
        monkeypatch.setattr(cli._Table, "csv", out_of_memory)
        code, out, err = run_cli(capsys, [*command, "--seed", "0", "--format", fmt])
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: {error} than this process can allocate"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("command", [["simulate", "--ticks", "7"],
                                         ["sweep", "--C_a_grid", "[0, 30]"]])
    def test_input_out_of_memory_is_not_blamed_on_ticks(self, capsys, monkeypatch, fmt, command):
        # a 15M-entry precaution_grid under ulimit -v 250000 once printed
        # "error: ticks=100 is more rows than this process can allocate"
        def out_of_memory(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "_float_list", out_of_memory)
        code, out, err = run_cli(capsys, [*command, "--seed", "0", "--format", fmt])
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: the input is more than this process can allocate"]


    @pytest.mark.parametrize("command", [["simulate"], ["sweep", "--C_a_grid", "[0, 30]"]])
    def test_negative_seed_is_invalid_in_stochastic_mode(self, capsys, command):
        for fmt in ("json", "csv"):
            argv = [*command, *self.SMALL, "--seed", "-1", "--stochastic", "--format", fmt]
            code, out, err = run_cli(capsys, argv)
            assert code == 1
            assert out == ""
            assert err.splitlines() == ["error: seed must be >= 0 in stochastic mode, got -1"]

    def test_injurer_count_above_a_c_long_is_invalid_in_stochastic_mode(self, capsys):
        for fmt in ("json", "csv"):
            argv = ["simulate", "--seed", "0", "--ticks", "2", "--stochastic",
                    "--n_injurers", str(10**20), "--format", fmt]
            code, out, err = run_cli(capsys, argv)
            assert code == 1
            assert out == ""
            assert err.splitlines() == [
                f"error: n_injurers must be <= {2**63 - 1} in stochastic mode, got {10**20}"
            ]
        code, _, _ = run_cli(capsys, ["simulate", "--seed", "0", "--ticks", "2",
                                      "--n_injurers", str(10**20)])
        assert code == 0

    def test_negative_seed_is_printed_in_deterministic_mode(self, capsys):
        code, out, _ = run_cli(capsys, ["simulate", *self.SMALL, "--seed", "-1"])
        assert code == 0
        assert parse_json(out)["seed"] == -1
        code, out, _ = run_cli(capsys, ["sweep", *self.SMALL, "--seed", "-1", "--C_a_grid", "[0]"])
        assert code == 0
        assert parse_json(out)["seed"] == -1

    @pytest.mark.parametrize(
        "grid,message",
        [
            ("[-1]", "C_a_grid[0] must be >= 0, got -1.0"),
            ("[NaN]", "C_a_grid[0] must be finite, got nan"),
            ("[0, -1]", "C_a_grid[1] must be >= 0, got -1.0"),
            ("[5, 1]", "C_a_grid must be strictly increasing"),
        ],
    )
    def test_sweep_grid_errors_name_the_grid(self, capsys, grid, message):
        code, out, err = run_cli(capsys, ["sweep", *self.SMALL, "--seed", "0", "--C_a_grid", grid])
        assert code == 1
        assert out == ""
        assert err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "command,flag,value,message",
        [
            (command, *case)
            for command in ("simulate", "sweep")
            for case in (
                ("--discount", "2", "discount must lie in [0, 1], got 2.0"),
                ("--harm_p0", "2", "harm_p0 must lie in [0, 1], got 2.0"),
                ("--harm_decay", "-1", "harm_decay must be >= 0, got -1.0"),
                ("--precaution_grid", "[-1]", "precaution_grid[0] must be >= 0, got -1.0"),
                ("--theta_a", "-1", "theta_a must be > 0, got -1.0"),
                ("--theta_b", "nan", "theta_b must be finite, got nan"),
            )
        ] + [("simulate", "--C_a", "-1", "C_a must be >= 0, got -1.0")],
    )
    def test_field_errors_name_the_flag(self, capsys, command, flag, value, message, fmt):
        argv = [command, *self.SMALL, "--seed", "0", flag, value, "--format", fmt]
        code, out, err = run_cli(capsys, argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    ZERO_POOL = ("theta_a and theta_b default to P_C / 2 = (p * W_B + S_B) / 4, which must be "
                 "finite and > 0, got 0.0 from p=0.0, W_B=100.0, S_B=0.0")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv,message", [
        (["simulate", "--seed", "0", "--p", "0", "--S_B", "0"], ZERO_POOL),
        (["sweep", "--seed", "0", "--p", "0", "--S_B", "0"], ZERO_POOL),
        (["classify", "--p", "0", "--W_B", "100", "--S_B", "0", "--C_a", "1", "--C_b", "1"],
         ZERO_POOL),
        (["simulate", "--seed", "0", "--p", "0", "--S_B", "0", "--theta_a", "3"],
         ZERO_POOL.replace("theta_a and theta_b default", "theta_b defaults")),
        (["classify", "--p", "1", "--W_B", "1e308", "--S_B", "1e308", "--C_a", "1", "--C_b", "1",
          "--theta_b", "3"],
         "theta_a defaults to P_C / 2 = (p * W_B + S_B) / 4, which must be finite and > 0, "
         "got inf from p=1.0, W_B=1e+308, S_B=1e+308"),
    ], ids=["simulate", "sweep", "classify", "simulate-theta_a", "classify-inf"])
    def test_default_thresholds_that_are_not_positive_name_their_inputs(
        self, capsys, argv, message, fmt
    ):
        # these once said "theta_a must be > 0, got 0.0", naming a flag never given
        code, out, err = run_cli(capsys, [*argv, "--format", fmt])
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_zero_benefit_pool_runs_with_both_thresholds_given(self, capsys):
        for command in ("simulate", "sweep"):
            argv = [command, *self.SMALL, "--seed", "0", "--p", "0", "--S_B", "0",
                    "--theta_a", "1", "--theta_b", "1"]
            assert run_cli(capsys, argv)[0] == 0

    def test_simulate_flag_defaults_are_the_library_defaults(self):
        args = build_parser().parse_args(["simulate", "--seed", "0"])
        params = _merge_params(COMMANDS["simulate"].fields, args)
        assert _build_sim_config(params, params["C_a"]) == default_config()


class TestConfigFile:
    def test_config_file_supplies_values(self, capsys, tmp_path):
        cfg = tmp_path / "case.json"
        cfg.write_text(json.dumps({"p": 0.5, "W_B": 100, "S_B": 60, "C_a": 10, "C_b": 4}))
        code, out, err = run_cli(capsys, ["bargain", "--config", str(cfg)])
        payload = parse_json(out)
        assert code == 0
        assert payload["R_B"] == 44.0
        assert err == ""

    def test_flag_overrides_file_with_a_note(self, capsys, tmp_path):
        cfg = tmp_path / "case.json"
        cfg.write_text(json.dumps({"p": 0.5, "W_B": 100, "S_B": 60, "C_a": 10, "C_b": 4}))
        code, out, err = run_cli(capsys, ["bargain", "--config", str(cfg), "--C_a", "100"])
        payload = parse_json(out)
        assert code == 0
        assert payload["L_C"] == 56.0
        assert "overrides config file" in err
        assert "--C_a" in err

    def test_matching_flag_and_file_stay_silent(self, capsys, tmp_path):
        cfg = tmp_path / "case.json"
        cfg.write_text(json.dumps({"p": 0.5, "W_B": 100, "S_B": 60, "C_a": 10, "C_b": 4}))
        code, _, err = run_cli(capsys, ["bargain", "--config", str(cfg), "--C_a", "10"])
        assert code == 0
        assert err == ""

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "case.json"
        cfg.write_text(json.dumps({"p": 0.5, "W_B": 100, "S_B": 60, "C_a": 10, "C_b": 4,
                                   "surprise": 1}))
        code, _, err = run_cli(capsys, ["bargain", "--config", str(cfg)])
        assert code == 1
        assert "surprise" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["bargain", "--config", str(tmp_path / "nope.json")])
        assert code == 1
        assert "config" in err

    def test_malformed_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        code, _, err = run_cli(capsys, ["bargain", "--config", str(cfg)])
        assert code == 1
        assert "not valid JSON" in err

    def test_non_object_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2, 3]")
        code, _, err = run_cli(capsys, ["bargain", "--config", str(cfg)])
        assert code == 1
        assert "JSON object" in err

    @pytest.mark.parametrize("content,reason", [
        (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0"),
        (b'{"p": ' + b"1" * 5000 + b"}", "Exceeds the limit (4300 digits)"),
        (b'{"p": ' + b"[" * 5000 + b"]" * 5000 + b"}", "maximum recursion depth exceeded"),
    ], ids=["not-utf8", "5000-digit-int", "deep-nesting"])
    def test_undecodable_config_file_is_invalid_input(self, capsys, tmp_path, content, reason):
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(content)
        code, out, err = run_cli(capsys, ["bargain", "--config", str(cfg)])
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: config: {str(cfg)!r} is not valid JSON: ")
        assert reason in err

    def test_wrong_type_in_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "case.json"
        cfg.write_text(json.dumps({"p": "half", "W_B": 100, "S_B": 60, "C_a": 10, "C_b": 4}))
        code, _, err = run_cli(capsys, ["bargain", "--config", str(cfg)])
        assert code == 1
        assert "p must be a number" in err


#: A JSON integer that float() refuses with OverflowError.
HUGE_INT = "1" + "0" * 400


class TestIntegersPastTheFloatRange:
    """A JSON integer beyond the float range is an invalid field (exit 1), not an overflow."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv,name", [
        (["comply", "--utilities", f'{{"a": {HUGE_INT}, "b": 1}}', "--allowed", '["b"]'],
         "utilities['a']"),
        (["phi", "--rates", f"[[{HUGE_INT}, 1]]", "--L", "[1]"], "rates[0][0]"),
        (["sweep", "--seed", "0", "--C_a_grid", f"[0, -{HUGE_INT}]"], "C_a_grid[1]"),
        # an int flag: each tick multiplies the count by floats
        (["simulate", "--seed", "0", "--ticks", "2", "--n_injurers", HUGE_INT], "n_injurers"),
        (["sweep", "--seed", "0", "--ticks", "2", "--n_injurers", HUGE_INT], "n_injurers"),
    ], ids=["comply", "phi", "sweep", "simulate-n_injurers", "sweep-n_injurers"])
    def test_flag_names_the_field(self, capsys, fmt, argv, name):
        code, out, err = run_cli(capsys, [*argv, "--format", fmt])
        assert (code, out) == (1, "")
        assert err == (f"error: {name} must be within the float range, "
                       "got an integer of 401 digits\n")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv,name", [
        (["solve", "--beta", "1", "--p1", "1", "--p2", "1", "--P_C", "6"], "alpha"),
        (["simulate", "--seed", "0", "--ticks", "2"], "n_injurers"),
    ], ids=["solve", "simulate"])
    def test_config_file_names_the_field(self, capsys, tmp_path, fmt, argv, name):
        cfg = tmp_path / "config.json"
        cfg.write_text(f'{{"{name}": {HUGE_INT}}}')
        code, out, err = run_cli(capsys, [*argv, "--config", str(cfg), "--format", fmt])
        assert (code, out) == (1, "")
        assert err == f"error: {name} must be within the float range, got an integer of 401 digits\n"


class TestFlagsSpelledInFull:
    """A flag spelled in part is a usage error, never read as the flag it begins."""

    @pytest.mark.parametrize("argv,token", [
        # --C_a begins --C_a_grid, and 5 was read as the grid
        (["sweep", "--seed", "0", "--C_a", "5"], "--C_a 5"),
        # --alph begins --alpha, and solve ran as if it were
        (["solve", "--alph", "2", "--beta", "1", "--p1", "1", "--p2", "1", "--P_C", "6"],
         "--alph 2"),
        (["simulate", "--seed", "0", "--stoch"], "--stoch"),
        (["bargain", *BARGAIN_ARGS, "--form", "csv"], "--form csv"),
        (["--vers", "bargain", *BARGAIN_ARGS], "--vers"),
    ], ids=["sweep-C_a", "solve-alph", "simulate-stoch", "bargain-form", "version"])
    def test_prefix_is_a_usage_error(self, capsys, argv, token):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (64, "")
        assert err.splitlines()[-1] == f"lexopt: error: unrecognized arguments: {token}"


#: argv -> (exit code, SHA-256 of the JSON list [exit code, stdout, stderr]) at
#: COLUMNS=80 with LEXOPT_SEED unset: the top-level help, version and usage
#: errors, and each command's help, its run with no flags and with an unknown flag
HELP_AND_USAGE_DIGESTS = {
    '--help': (0, 'd15f24609bdc378243f93b22e8c723c3a1e78b9ae3221ad7262241f3abbc31fa'),
    '--version': (0, '7e7ceae0c43b53dc94a094059f3f9427854251a88d8e59ef1da9c33286952e99'),
    '': (64, 'da989bb10e1f77a621c8ba766c3a6d4d09a8e350b4ebd0f0af71c50423160230'),
    'nope': (64, '2e18bafdb3312f0c4e8f182de6600c6e815679c765a10ea1850ed42e27a08c55'),
    'bargain --help': (0, '4c8cabf30b56c8e4fdd0c6b4593e7f42cb2640c5b93e1b30c17ef2b24a6ceeb9'),
    'bargain': (1, 'b060c2e0fb682cd86c10eab2fe7c3232607ee1ee6d826b2fee1542c1aa837d73'),
    'bargain --bogus 1': (64, 'b10c45167e71592f01d703604a9bd5c94799bc1cf985b84cd81cd2943f208a9e'),
    'classify --help': (0, '7b0a60c449497d7dd6d41e389effe9b350e2c1b0f2fb913327dd01000b28ef47'),
    'classify': (1, 'b060c2e0fb682cd86c10eab2fe7c3232607ee1ee6d826b2fee1542c1aa837d73'),
    'classify --bogus 1': (64, 'b10c45167e71592f01d703604a9bd5c94799bc1cf985b84cd81cd2943f208a9e'),
    'solve --help': (0, 'd12db84a19b850e52574f46082fd406e95891510734967eeeafdfdf190a23658'),
    'solve': (1, 'fac5c4b20158170364fac46bd2ce56dd719433c67446403b3c3482674b5e2b57'),
    'solve --bogus 1': (64, 'b10c45167e71592f01d703604a9bd5c94799bc1cf985b84cd81cd2943f208a9e'),
    'hessian --help': (0, '0a038a87bcdd283288de91413d3f099698eecd47449fc5d8de90067b8108861c'),
    'hessian': (1, 'fac5c4b20158170364fac46bd2ce56dd719433c67446403b3c3482674b5e2b57'),
    'hessian --bogus 1': (64, 'b10c45167e71592f01d703604a9bd5c94799bc1cf985b84cd81cd2943f208a9e'),
    'phi --help': (0, '940cf8c3ffa531fc98f03a6fa096df2fefa303325c4a4b868ff4867f999268f1'),
    'phi': (1, '11dd98ec48e40e15f251ec46396958355b36bda82af209dd51fb814023631bed'),
    'phi --bogus 1': (64, 'b10c45167e71592f01d703604a9bd5c94799bc1cf985b84cd81cd2943f208a9e'),
    'alpha-search --help': (0, 'f2305434dc3aafa08008f54868a03c7343280c914213aaf576a5c37de8684f75'),
    'alpha-search': (1, 'f6cb208b6a0f2f7542c1d3920c2c59d560caad9519d13965f09a1449e283b5c7'),
    'alpha-search --bogus 1': (64, 'b10c45167e71592f01d703604a9bd5c94799bc1cf985b84cd81cd2943f208a9e'),
    'comply --help': (0, '60d24d8930337b77f35ca039cce16cd7fdcd1c4baf9818d9ed3f4f2d6f79ff06'),
    'comply': (1, '7fa3b0a3226862e69a02299f8c87489a5e955e577063ad2b1d7d113ccf3632a1'),
    'comply --bogus 1': (64, 'b10c45167e71592f01d703604a9bd5c94799bc1cf985b84cd81cd2943f208a9e'),
    'simulate --help': (0, 'c0ef0d7c618a8c59a4910879832d4e8f555149fa1a2bfaf5817da9c836a84025'),
    'simulate': (1, '4d514d3da7858c35b56ce745061e38b76fa579c3db511a36987817abde6fb037'),
    'simulate --bogus 1': (64, 'b10c45167e71592f01d703604a9bd5c94799bc1cf985b84cd81cd2943f208a9e'),
    'sweep --help': (0, '56b307295ed867a70e894b2d937bf02b0e00cdc9e9c266e5688c817e34cef719'),
    'sweep': (1, '4d514d3da7858c35b56ce745061e38b76fa579c3db511a36987817abde6fb037'),
    'sweep --bogus 1': (64, 'b10c45167e71592f01d703604a9bd5c94799bc1cf985b84cd81cd2943f208a9e'),
}


class TestCommandRegistry:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_runner_takes_exactly_its_command_flags(self, command):
        spec = COMMANDS[command]
        keys = [f.key for f in spec.fields]
        signature = inspect.signature(spec.runner)
        signature.bind(**dict.fromkeys(keys))  # a flag the runner does not take fails here
        named = [p.name for p in signature.parameters.values() if p.kind is not p.VAR_KEYWORD]
        assert set(named) <= set(keys)

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="argparse words and wraps help differently across Python "
                               "versions; the digests were taken on Python 3.11")
    @pytest.mark.parametrize("argv", HELP_AND_USAGE_DIGESTS)
    def test_help_and_usage_text_is_pinned(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.delenv("LEXOPT_SEED", raising=False)
        code, out, err = run_cli(capsys, argv.split())
        digest = hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()
        assert (code, digest) == HELP_AND_USAGE_DIGESTS[argv]


def full_parser_main(argv=None) -> int:
    """``main`` as it was before it dispatched on the command word: every argv
    is parsed with the parser of all nine commands.  The reference for the
    one-subparser ``main``."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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


#: one successful run of each command; each also runs with --format csv
SUCCESSFUL_RUNS = [
    "bargain " + shlex.join(BARGAIN_ARGS),
    "classify " + shlex.join(BARGAIN_ARGS) + " --theta_a 5",
    "solve " + shlex.join(SQRT_ARGS),
    "hessian --alpha 2 --beta 2 --p1 1 --p2 1 --P_C 4 --cross_terms",
    "phi --rates '[[0.2, 0.3], [0.1, 0.4]]' --L '[5, -2]' --R_B 44 --P_C 55 --with_fixed"
    " --C_b_fixed 1",
    "alpha-search --alpha_grid '[0.5, 1, 2]' --beta 1 --p1 1 --p2 1 --P_C 6",
    "comply --utilities '{\"a\": 1, \"b\": 3}' --allowed '[\"a\"]'",
    "simulate --seed 0 --ticks 5 --stochastic",
    "sweep --seed 0 --ticks 5 --C_a_grid '[0, 10]'",
]

#: argv the full-parser reference and main must answer alike, beside the
#: help and usage argv and the successful runs
PARSE_CASES = [
    # type and choice errors inside a subparser
    "bargain --p half", "bargain --format xml", "simulate --seed 0 --ticks 1.5",
    "phi --rates [[ --L [1]", "hessian --cross_terms=yes", "solve --alpha",
    # extra positionals, unknown flags and partly spelled words
    "bargain extra", "solve --alpha 2 x y", "sweep 0 1", "alpha-search --cross_terms 1",
    "bargain --bogus=1", "simulate --stoch", "barg", "Bargain", "nope --help", "--bogus bargain",
    # --version and -h after the command word, and top-level flags before it
    "bargain --version", "solve -h", "simulate --seed 0 --version", "sweep -h --seed 0",
    "comply -h extra", "--version bargain", "-h solve", "--format json solve",
    # -- and --flag=value spellings
    "bargain " + " ".join(f"{k}={v}" for k, v in zip(BARGAIN_ARGS[::2], BARGAIN_ARGS[1::2])),
    "bargain -- " + shlex.join(BARGAIN_ARGS), "bargain " + shlex.join(BARGAIN_ARGS) + " --",
    "-- bargain", "solve --alpha=-1e3 --beta 1 --p1 1 --p2 1 --P_C 6",
]


class TestOneSubparserPerCommand:
    """``main`` builds only the named command's subparser, and all nine only
    for top-level --help and no or an unknown command, once per process; its
    bytes are the full parser's."""

    @pytest.fixture(autouse=True)
    def _fixed_environment(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.delenv("LEXOPT_SEED", raising=False)

    @staticmethod
    def both(capsys, argv):
        """(exit code, stdout, stderr) of main, then of the full-parser reference."""
        answers = []
        for run in (main, full_parser_main):
            code = run(argv)
            captured = capsys.readouterr()
            answers.append((code, captured.out, captured.err))
        return answers

    @pytest.mark.parametrize("argv", [
        *HELP_AND_USAGE_DIGESTS, *PARSE_CASES,
        *SUCCESSFUL_RUNS, *(f"{argv} --format csv" for argv in SUCCESSFUL_RUNS),
    ])
    def test_same_bytes_as_the_full_parser(self, capsys, argv):
        got, want = self.both(capsys, shlex.split(argv))
        assert got == want

    def test_config_file_override_note(self, capsys, tmp_path):
        cfg = tmp_path / "case.json"
        cfg.write_text(json.dumps({"p": 0.5, "W_B": 100, "S_B": 60, "C_a": 10, "C_b": 4}))
        got, want = self.both(capsys, ["bargain", "--config", str(cfg), "--C_a", "100"])
        assert got == want
        assert got[0] == 0 and "overrides config file" in got[2]

    @pytest.mark.parametrize("argv", ["bargain --bogus 1", "solve " + shlex.join(SQRT_ARGS), ""])
    def test_no_argv_reads_sys_argv(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(sys, "argv", ["lexopt", *shlex.split(argv)])
        got, want = self.both(capsys, None)
        assert got == want

    @pytest.mark.parametrize("argv", [*HELP_AND_USAGE_DIGESTS, *PARSE_CASES, *SUCCESSFUL_RUNS])
    def test_same_bytes_from_a_reused_parser(self, capsys, argv):
        words = shlex.split(argv)
        head = words[:1] if words and words[0] in COMMANDS else []
        # the parser main takes has answered a usage error, --help and this argv
        for warm in ([*head, "--bogus", "1"], [*head, "--help"], words):
            main(warm)
        capsys.readouterr()
        got, want = self.both(capsys, words)
        assert got == want

    @pytest.mark.parametrize("argv", ["--help", "simulate --help", "simulate --bogus 1"])
    def test_help_rewraps_when_columns_change(self, capsys, monkeypatch, argv):
        answers = []
        for columns in ("80", "200", "80"):
            monkeypatch.setenv("COLUMNS", columns)
            got, want = self.both(capsys, shlex.split(argv))
            assert got == want
            answers.append(got)
        assert answers[0] == answers[2] != answers[1]

    @pytest.fixture
    def added(self, monkeypatch):
        """The names of the subparsers added while the test runs, in order.

        main's parsers are built anew, so a test sees main's first build."""
        cli._parser.cache_clear()
        names = []
        add_parser = argparse._SubParsersAction.add_parser

        def counting(self, name, **kwargs):
            names.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
        return names

    @pytest.mark.parametrize("argv", SUCCESSFUL_RUNS)
    def test_a_successful_run_adds_one_subparser(self, capsys, added, argv):
        assert main(shlex.split(argv)) == 0
        assert added == [argv.split()[0]]

    @pytest.mark.parametrize("argv", [*SUCCESSFUL_RUNS, "--help", "bargain --bogus 1"])
    def test_a_second_run_adds_no_subparser(self, capsys, added, argv):
        for _ in range(2):
            main(shlex.split(argv))
        assert added == (list(COMMANDS) if argv == "--help" else [argv.split()[0]])

    @pytest.mark.parametrize("argv", ["--help", "", "nope"])
    def test_output_listing_the_commands_adds_all_nine(self, capsys, added, argv):
        main(shlex.split(argv))
        assert added == list(COMMANDS)
        assert "{" + ",".join(COMMANDS) + "}" in "".join(capsys.readouterr())

    def test_top_level_usage_error_lists_every_command_from_one_subparser(self, capsys, added):
        assert main(["bargain", "--bogus", "1"]) == 64
        assert added == ["bargain"]
        assert "{" + ",".join(COMMANDS) + "}" in capsys.readouterr().err

    def test_build_parser_still_has_every_command(self, added):
        build_parser()
        assert added == list(COMMANDS)


class TestErrorPaths:
    def test_no_command_is_a_usage_error(self, capsys):
        assert run_cli(capsys, [])[0] == 64

    def test_no_command_error_names_the_command_argument(self, capsys):
        # the full parser keeps argparse's default metavar, on every Python version
        code, out, err = run_cli(capsys, [])
        assert (code, out) == (64, "")
        assert err.endswith("error: the following arguments are required: command\n")

    def test_unknown_command_is_a_usage_error(self, capsys):
        assert run_cli(capsys, ["transmogrify"])[0] == 64

    def test_non_numeric_flag_is_a_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, ["bargain", "--p", "half"])
        assert code == 64

    def test_deeply_nested_json_flag_is_a_usage_error(self, capsys):
        deep = "[" * 5000 + "]" * 5000
        code, out, err = run_cli(capsys, ["phi", "--rates", deep, "--L", "[1]"])
        assert (code, out) == (64, "")
        last = err.splitlines()[-1]
        assert last == f"lexopt phi: error: argument --rates: invalid loads value: {deep!r}"

    def test_missing_required_field_names_it(self, capsys):
        code, _, err = run_cli(capsys, ["solve", "--alpha", "0.5"])
        assert code == 1
        assert "beta is required" in err

    def test_invalid_value_names_the_field(self, capsys):
        code, _, err = run_cli(capsys, ["bargain", "--p", "1.5", "--W_B", "100",
                                        "--S_B", "60", "--C_a", "10", "--C_b", "4"])
        assert code == 1
        assert "p" in err


class TestNegativeNumberSpellings:
    """Any text float() reads is a flag value, even one argparse would call an option."""

    PHI = ["phi", "--rates", "[[0.2, 0.3]]", "--L", "[5]", "--P_C", "55"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("spelling", ["-1e3", "-1E3", "-1000.0e0", "-1e+3"])
    def test_exponent_form_reads_like_the_plain_number(self, capsys, fmt, spelling):
        expected = run_cli(capsys, [*self.PHI, "--R_B", "-1000", "--format", fmt])
        assert expected[0] == 0
        assert run_cli(capsys, [*self.PHI, "--R_B", spelling, "--format", fmt]) == expected

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("spelling,shown", [("-inf", "-inf"), ("-Infinity", "-inf"),
                                                ("-nan", "nan")])
    def test_non_finite_values_reach_the_finiteness_check(self, capsys, fmt, spelling, shown):
        code, out, err = run_cli(capsys, [*self.PHI, "--R_B", spelling, "--format", fmt])
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error: R_B must be finite, got {shown}"]

    def test_json_values_and_help_keep_working(self, capsys):
        code, out, _ = run_cli(capsys, ["phi", "--rates", "[[0.2, 0.3]]", "--L", "-1e3"])
        assert code == 1  # json.loads reads -1e3 as a number, which is not an array
        assert run_cli(capsys, ["bargain", "-h"])[0] == 0
        assert run_cli(capsys, ["bargain", "--p", "-x"])[0] == 64


class TestFloatRangeFailures:
    """Results that leave the float range are domain failures, never tracebacks."""

    UNDERFLOW_ARGS = ["--beta", "1", "--p1", "1", "--p2", "1", "--P_C", "0.5"]
    OVERFLOW_ARGS = ["--alpha", "1e308", "--beta", "1", "--p1", "1", "--p2", "1", "--P_C", "6"]

    @pytest.mark.parametrize(
        "argv",
        [
            # L_C**2 underflows to 0 in the ShadowForm diagonal
            ["hessian", "--alpha", "1e-300", "--beta", "1", "--p1", "1", "--p2", "1",
             "--P_C", "6"],
            # the ShadowForm diagonal is ~1e160, so the noise floor scale**3 overflows
            ["hessian", "--alpha", "1.7e-161", "--beta", "1", "--p1", "1", "--p2", "1",
             "--P_C", "6"],
            # U* = L_C**2000 * R_B underflows to 0
            ["solve", "--alpha", "2000", *UNDERFLOW_ARGS],
            ["alpha-search", "--alpha_grid", "[2000]", *UNDERFLOW_ARGS],
            # L_C* underflows to 0 and is raised to a negative power
            ["solve", "--alpha", "1e-320", "--beta", "1", "--p1", "1", "--p2", "1",
             "--P_C", "1e-10"],
            # alpha * P_C overflows, so L_C* = inf reaches every command
            ["solve", *OVERFLOW_ARGS],
            ["hessian", *OVERFLOW_ARGS],
            ["alpha-search", "--alpha_grid", "[1e308]", *OVERFLOW_ARGS[2:]],
            # alpha * P_C and (alpha + beta) * p1 both overflow: L_C* = inf / inf = nan
            ["solve", "--alpha", "1e308", "--beta", "1", "--p1", "1e308", "--p2", "1",
             "--P_C", "6"],
            # alpha * P_C and (alpha + beta) * p1 both underflow: L_C* = 0 / 0
            ["solve", "--alpha", "1e-300", "--beta", "1e-300", "--p1", "1e-300", "--p2", "1",
             "--P_C", "1e-300"],
        ],
    )
    def test_exit_2_with_one_error_line(self, capsys, argv):
        for fmt in ("json", "csv"):
            code, out, err = run_cli(capsys, [*argv, "--format", fmt])
            assert code == 2
            assert out == ""
            assert len(err.splitlines()) == 1
            assert err.startswith("error: ")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_every_precaution_cost_overflowing_is_a_domain_failure(self, capsys, command, fmt):
        # every level costs 1.7e308 + 1 * 1.7e308 = inf; the first level is chosen and
        # the welfare it implies is -inf
        argv = [command, "--seed", "0", "--ticks", "2", "--precaution_grid", "[1.7e308]",
                "--L_harm", "1.7e308", "--harm_p0", "1", "--harm_decay", "0", "--discount", "0"]
        code, out, err = run_cli(capsys, [*argv, "--format", fmt])
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: result overflowed the representable range: -inf"]

    # the per-tick harm x * L_harm overflows at once, or the running welfare
    # total (about -1.9e306 a tick) first overflows at tick 83 of 100; C_a 10
    # goes to trial, 55 settles
    STOCHASTIC_OVERFLOWS = [["--L_harm", L_harm, "--C_a", C_a]
                            for L_harm in ("1e308", "1.6e304") for C_a in ("10", "55")]
    STOCHASTIC_OVERFLOW = "error: result overflowed the representable range: -inf"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("flags", STOCHASTIC_OVERFLOWS, ids=" ".join)
    def test_stochastic_overflow_is_one_error_line(self, capsys, flags, fmt):
        # numpy's elementwise arithmetic warns of an overflow unless told not to,
        # and its RuntimeWarning would print above the error line
        argv = ["simulate", "--seed", "0", "--stochastic", *flags, "--format", fmt]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, argv)
        assert (code, out, err.splitlines()) == (2, "", [self.STOCHASTIC_OVERFLOW])
        assert caught == []
        proc = subprocess.run([sys.executable, "-m", "lexopt", *argv], capture_output=True,
                              text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.splitlines() == [self.STOCHASTIC_OVERFLOW]

    def test_late_stochastic_overflow_comes_from_the_running_total(self):
        config = _build_sim_config(
            _merge_params(COMMANDS["simulate"].fields, build_parser().parse_args(
                ["simulate", "--seed", "0", "--stochastic", "--L_harm", "1.6e304"])),
            10.0)
        welfare = [s.welfare for s in run_simulation(config)]
        assert all(map(math.isfinite, welfare[:80])) and welfare[-1] == -math.inf

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_overflowing_final_utility_is_a_domain_failure(self, capsys, fmt):
        argv = ["alpha-search", "--alpha_grid", "[1e-300]", "--beta", "1", "--p1", "1e-300",
                "--p2", "1e-300", "--P_C", "1", "--hessian_variant", "DirectForm"]
        code, out, err = run_cli(capsys, [*argv, "--format", fmt])
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "error: final utility overflows at lambda=9.999999999999999e+299, alpha*=1e-300, "
            "beta=1.0, phi_sum=1.0, R_B=9.999999999999999e+299"]

    @pytest.mark.parametrize("argv, message", [
        (["solve", "--alpha", "1e-320", *UNDERFLOW_ARGS[:-1], "6"],
         "optimum leaves the float range at L_C*=6e-320, R_B*=6.0: a power overflows"),
        (["solve", "--alpha", "1e-320", *UNDERFLOW_ARGS[:-1], "1e-10"],
         "optimum leaves the float range at L_C*=0.0, R_B*=1e-10: "
         "0.0 cannot be raised to a negative power"),
        (["hessian", "--alpha", "1e-300", *UNDERFLOW_ARGS[:-1], "6"],
         "ShadowForm bordered Hessian leaves the float range at L_C*=6e-300, R_B*=6.0: "
         "float division by zero"),
    ])
    def test_float_range_message_is_worded_alike_on_every_platform(self, capsys, argv, message):
        # an overflowing power is named in words, not by the errno tuple of its OverflowError
        for fmt in ("json", "csv"):
            assert run_cli(capsys, [*argv, "--format", fmt]) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        (["bargain", "--p", "1", "--W_B", "1e308", "--S_B", "1e308", "--C_a", "1e308",
          "--C_b", "1e308"],
         "reasonable bargain leaves the float range: P_C=inf, L_C=inf"),
        (["bargain", "--p", "1", "--W_B", "1", "--S_B", "1", "--C_a", "0", "--C_b", "1e308"],
         "reasonable bargain leaves the float range: P_C=1.0, L_C=inf"),
        (["phi", "--rates", "[[1e308, 1]]", "--L", "[2]", "--C_b_fixed", "1e308",
          "--with_fixed"],
         "phi of component 0 leaves the float range at L[0]=2.0"),
        (["phi", "--rates", "[[1e308, 1], [1e308, 1]]", "--L", "[1, 1]"],
         "phi_total of 2 component costs leaves the float range"),
    ])
    def test_overflowing_bargain_or_cost_names_what_overflowed(self, capsys, argv, message):
        for fmt in ("json", "csv"):
            assert run_cli(capsys, [*argv, "--format", fmt]) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["solve", "hessian"])
    def test_infinite_demand_is_not_blamed_on_a_computed_field(self, capsys, command):
        code, _, err = run_cli(capsys, [command, *self.OVERFLOW_ARGS])
        assert code == 2
        assert err.startswith("error: optimum is not finite: L_C*=inf")


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lexopt", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"lexopt {__version__}"

    def test_entry_exits_with_the_code_of_main(self, capsys, monkeypatch):
        argv = ["bargain", *BARGAIN_ARGS]
        want = run_cli(capsys, argv)
        monkeypatch.setattr(sys, "argv", ["lexopt", *argv])
        with pytest.raises(SystemExit) as exc:
            entry()
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out, captured.err) == want
        assert want[0] == 0 and parse_json(want[1])["L_C"] == 11

    def test_entry_exits_64_on_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["lexopt", "bargain", "--bogus", "1"])
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == 64
        assert capsys.readouterr().out == ""

    def test_usage_exit_code_through_the_real_process(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lexopt", "solve", "--alpha"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 64
