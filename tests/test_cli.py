"""End-to-end tests of the levyexc command line.

Each test drives :func:`levyexc.cli.main` in process and checks the data
on stdout, the exit code, and the determinism contract (same arguments,
same bytes).
"""

from __future__ import annotations

import json
import math

import pytest

from levyexc import cli, simulate, verify
from levyexc.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, EXIT_VERIFY_FAILED, main
from levyexc.paths import path_from_dict
from levyexc.trees import MAX_EXPORT_GENERATIONS, tree_from_dict


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestSimulate:
    def test_deterministic_bytes(self, capsys):
        code1, out1 = run_cli(capsys, "simulate", "--model", "bd",
                              "--n", "10", "--seed", "1")
        code2, out2 = run_cli(capsys, "simulate", "--model", "bd",
                              "--n", "10", "--seed", "1")
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        assert len(out1.splitlines()) == 10

    def test_seed_changes_output(self, capsys):
        _, out1 = run_cli(capsys, "simulate", "--n", "3", "--seed", "1")
        _, out2 = run_cli(capsys, "simulate", "--n", "3", "--seed", "2")
        assert out1 != out2

    def test_first_passage_postcondition(self, capsys):
        code, out = run_cli(capsys, "simulate", "--stop",
                            "first-passage:-3", "--n", "8", "--seed", "5")
        assert code == EXIT_OK
        for line in out.splitlines():
            p = path_from_dict(json.loads(line))
            # passage downward is continuous: the path ends exactly at the
            # level and the closing event is a drift crossing, not a jump
            assert p.end_value() == pytest.approx(-3.0, abs=1e-9)
            assert p.segments[-1][2] == 0.0

    def test_null_jumps_horizon_is_single_ramp(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"model": {"d": 1.0, "jumps": {"family": "null"}},
             "stop": "horizon:2", "n": 2, "seed": 3}))
        code, out = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == EXIT_OK
        for line in out.splitlines():
            p = path_from_dict(json.loads(line))
            assert len(p.segments) == 1
            dur, slope, jump = p.segments[0]
            assert dur == pytest.approx(2.0)
            assert slope == -1.0
            assert jump == 0.0

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2, "seed": 1}))
        _, from_cfg = run_cli(capsys, "simulate", "--config", str(cfg))
        _, overridden = run_cli(capsys, "simulate", "--config", str(cfg),
                                "--seed", "9")
        _, direct = run_cli(capsys, "simulate", "--n", "2", "--seed", "9")
        assert from_cfg != overridden
        assert overridden == direct

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        for doc in ({"bogus": 1}, {"threads": 2}):
            cfg.write_text(json.dumps(doc))
            code, _ = run_cli(capsys, "simulate", "--config", str(cfg))
            assert code == EXIT_USAGE

    def test_missing_config_file_exits_2(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "simulate", "--config",
                          str(tmp_path / "absent.json"))
        assert code == EXIT_USAGE

    def test_bad_stop_rule_exits_2(self, capsys):
        code, _ = run_cli(capsys, "simulate", "--stop", "sideways:1")
        assert code == EXIT_USAGE
        code, _ = run_cli(capsys, "simulate", "--stop", "horizon")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ("--stop", "horizon:nan"),
        ("--stop", "horizon:inf"),
        ("--stop", "first-passage:nan"),
        ("--x0", "nan", "--stop", "first-passage:-1"),
    ])
    def test_non_finite_stop_exits_2_before_sampling(self, capsys,
                                                     monkeypatch, argv):
        # A non-finite start or stop level never stops the kernel; with the
        # event cap lowered, a run that reached the kernel would exit 3 at
        # once instead of burning the full cap.
        monkeypatch.setattr(simulate, "DEFAULT_MAX_EVENTS", 1000)
        code, out = run_cli(capsys, "simulate", "--n", "1", *argv)
        assert code == EXIT_USAGE
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ("--kind", "sup-excursion", "--depth", "nan"),
        ("--kind", "sup-excursion", "--depth", "inf"),
        ("--kind", "excursion", "--min-height", "nan"),
        ("--kind", "excursion", "--min-lifetime", "inf"),
    ])
    def test_non_finite_depth_or_threshold_exits_2(self, capsys, monkeypatch,
                                                   argv):
        # No draw reaches an infinite depth or clears a NaN or infinite
        # threshold; with the caps lowered, a run that started sampling
        # would exit 3 at once.
        monkeypatch.setattr(simulate, "DEFAULT_MAX_EVENTS", 1000)
        monkeypatch.setattr(simulate, "_attempt_cap", lambda n: 10)
        code, out = run_cli(capsys, "simulate", "--n", "1", *argv)
        assert code == EXIT_USAGE
        assert out == ""

    def test_conflicting_conditions_exit_2(self, capsys):
        code, _ = run_cli(capsys, "simulate", "--kind", "excursion",
                          "--min-lifetime", "1", "--min-height", "1")
        assert code == EXIT_USAGE

    def test_brownian_event_paths_rejected(self, capsys):
        # exact event-driven sampling is a finite-variation construction
        code, _ = run_cli(capsys, "simulate", "--model", "brownian",
                          "--kind", "path")
        assert code == EXIT_USAGE

    def test_excursions_start_and_end_at_zero(self, capsys):
        code, out = run_cli(capsys, "simulate", "--kind", "excursion",
                            "--n", "6", "--seed", "2",
                            "--min-height", "0.5")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 6
        for line in lines:
            p = path_from_dict(json.loads(line))
            assert p.x0 == p.initial_jump > 0.0
            assert p.end_value() == pytest.approx(0.0, abs=1e-9)
            assert p.sup() >= 0.5

    def test_sup_excursions_killed_at_depth(self, capsys):
        code, out = run_cli(capsys, "simulate", "--kind", "sup-excursion",
                            "--depth", "0.7", "--n", "5", "--seed", "2")
        assert code == EXIT_OK
        for line in out.splitlines():
            p = path_from_dict(json.loads(line))
            assert p.x0 == 0.0
            assert p.end_value() == pytest.approx(-0.7, abs=1e-9)
            assert p.inf() == pytest.approx(-0.7, abs=1e-9)

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "paths.jsonl"
        code, out = run_cli(capsys, "simulate", "--n", "3", "--seed", "1",
                            "--output", str(target))
        assert code == EXIT_OK
        assert out == ""
        assert len(target.read_text().splitlines()) == 3


class TestTree:
    def test_emits_trees(self, capsys):
        code, out = run_cli(capsys, "tree", "--n", "4", "--seed", "6")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 4
        for line in lines:
            tree = tree_from_dict(json.loads(line))
            assert tree.root.birth_time == 0.0
            assert tree.root.lifespan > 0.0

    def test_matches_simulate_kind_tree(self, capsys):
        _, out_tree = run_cli(capsys, "tree", "--n", "3", "--seed", "6")
        _, out_sim = run_cli(capsys, "simulate", "--kind", "tree",
                             "--n", "3", "--seed", "6")
        assert out_tree == out_sim

    def test_too_deep_tree_exits_3_naming_its_depth(self, capsys):
        # One critical tree at this seed is 726 generations deep, beyond the
        # nested export's limit: no data, exit 3, and a message that names
        # both numbers instead of the interpreter's recursion error.
        code = main(["tree", "--model", "bd-critical", "--n", "400",
                     "--seed", "3"])
        captured = capsys.readouterr()
        assert code == EXIT_RUNTIME
        assert captured.out == ""
        assert "tree has 726 generations" in captured.err
        assert f"at most {MAX_EXPORT_GENERATIONS}" in captured.err


class TestScaleFn:
    def test_closed_form_match(self, capsys):
        # the default model's scale function is (theta - b e^{-(theta-b)x})
        # / (theta - b) = 2 - e^{-x}
        code, out = run_cli(capsys, "scale-fn", "--model", "bd",
                            "--x-max", "2.0", "--h-w", "1e-3")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "x,W"
        worst = 0.0
        for line in lines[1:]:
            x_s, w_s = line.split(",")
            x, w = float(x_s), float(w_s)
            exact = 2.0 - math.exp(-x)
            worst = max(worst, abs(w - exact) / exact)
        assert worst < 1e-6

    def test_starts_at_one_over_drift_and_monotone(self, capsys):
        _, out = run_cli(capsys, "scale-fn", "--x-max", "1.0",
                         "--h-w", "0.01")
        values = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert values[0] == pytest.approx(1.0)  # W(0) = 1/d
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestVerify:
    def test_invariance_suite_passes_exit_0(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "sup_swap",
                            "--n", "300", "--seed", "3")
        assert code == EXIT_OK
        header = out.splitlines()[0]
        assert header.startswith("suite,functional")

    def test_bad_suite_name_exits_2(self, capsys):
        code, _ = run_cli(capsys, "verify", "--suite", "nope")
        assert code == EXIT_USAGE

    def test_negative_control_only_exits_0_iff_rejects(self, capsys):
        # at the shipped size the mismatch rejects and the run passes
        code_big, _ = run_cli(capsys, "verify", "--suite",
                              "negative_control", "--seed", "7")
        assert code_big == EXIT_OK
        # far below the powered size the mismatch cannot reject -> exit 1
        code_small, _ = run_cli(capsys, "verify", "--suite",
                                "negative_control", "--n", "400",
                                "--seed", "7")
        assert code_small == EXIT_VERIFY_FAILED

    def test_json_document(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "sup_swap",
                            "--n", "300", "--seed", "3", "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["suites"][0]["suite"] == "sup_swap"
        assert doc["suites"][0]["passed"] is True
        assert doc["calibration_rate"] is None
        assert all(r["verdict"] == "Pass" for r in doc["reports"])

    def test_suite_params_via_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suites": ["sup_excursion_rotation"],
                                   "depth": 0.3, "n": 200, "seed": 3}))
        code, out = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == EXIT_OK
        assert "sup_excursion_rotation" in out

    @pytest.mark.parametrize("command, doc", [
        ("verify", {"suites": []}),
        ("verify", {"suites": ["killed_passage_rotation"], "x_values": []}),
        ("verify", {"suites": ["loctime_reversal"], "fractions": []}),
        ("hist", {"suite": "killed_passage_rotation", "x_values": []}),
    ])
    def test_run_that_checks_nothing_exits_2(self, capsys, tmp_path,
                                             command, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, out = run_cli(capsys, command, "--config", str(cfg))
        assert code == EXIT_USAGE
        assert out == ""


class TestHist:
    def test_row_count_and_mass(self, capsys):
        code, out = run_cli(capsys, "hist", "--functional", "lifetime",
                            "--suite", "sup_swap", "--n", "500",
                            "--bins", "17", "--seed", "2")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "low,high,mass"
        assert len(lines) - 1 == 17
        total = sum(float(line.split(",")[2]) for line in lines[1:])
        assert abs(total - 1.0) <= 1e-9

    def test_height_histogram_respects_conditioning(self, capsys):
        code, out = run_cli(capsys, "hist", "--functional", "height",
                            "--suite", "sup_swap", "--n", "400",
                            "--bins", "12", "--seed", "2",
                            "--min-height", "0.8")
        assert code == EXIT_OK
        lows = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
        assert min(lows) >= 0.8

    def test_deterministic(self, capsys):
        _, out1 = run_cli(capsys, "hist", "--n", "300", "--seed", "4")
        _, out2 = run_cli(capsys, "hist", "--n", "300", "--seed", "4")
        assert out1 == out2

    def test_bad_functional_exits_2(self, capsys):
        code, _ = run_cli(capsys, "hist", "--functional", "nope")
        assert code == EXIT_USAGE

    def test_conditioning_tree_suite_exits_2(self, capsys):
        code, _ = run_cli(capsys, "hist", "--suite", "width_reversal",
                          "--functional", "width_at_fraction:0.5",
                          "--min-height", "0.5", "--n", "100")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv", [("--min-height", "nan"),
                                      ("--min-lifetime", "inf")])
    def test_non_finite_threshold_exits_2(self, capsys, argv):
        code, out = run_cli(capsys, "hist", "--functional", "lifetime",
                            "--n", "50", *argv)
        assert code == EXIT_USAGE
        assert out == ""

    def test_width_functional_on_path_suite_exits_2(self, capsys):
        code = main(["hist", "--suite", "sup_swap",
                     "--functional", "width_at_fraction:0.2", "--n", "50"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "width_at_fraction:0.2" in err and "sup_swap" in err

    def test_path_functional_on_width_suite_exits_2(self, capsys):
        code, _ = run_cli(capsys, "hist", "--suite", "width_reversal",
                          "--functional", "area", "--n", "50")
        assert code == EXIT_USAGE


class TestOptions:
    # Config keys per subcommand: the flag names with "_" for "-", plus
    # "suites" for verify --suite and the suite parameters of verify and
    # hist.
    SUITE_KEYS = {"x_values", "depth", "fractions", "mass_factor"}
    CONFIG_KEYS = {
        "simulate": {"model", "seed", "kind", "n", "stop", "x0",
                     "min_lifetime", "min_height", "depth"},
        "tree": {"model", "seed", "n"},
        "scale-fn": {"model", "h_w", "x_max"},
        "verify": {"model", "seed", "suites", "n",
                   "with_calibration"} | SUITE_KEYS,
        "hist": {"model", "seed", "suite", "functional", "n", "bins",
                 "min_lifetime", "min_height"} | SUITE_KEYS,
    }

    def test_config_keys_per_subcommand(self):
        assert {cmd: set(keys) for cmd, keys in cli._OPTIONS.items()} == \
            self.CONFIG_KEYS
        assert set(verify.SUITE_PARAMS) == self.SUITE_KEYS

    @pytest.mark.parametrize("command, doc", [
        ("verify", {"n_by_suite": {"sup_swap": 10}}),
        ("scale-fn", {"seed": 1}),
    ])
    def test_removed_config_keys_exit_2(self, capsys, tmp_path, command, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, out = run_cli(capsys, command, "--config", str(cfg))
        assert code == EXIT_USAGE
        assert out == ""

    def test_scale_fn_takes_no_seed(self):
        with pytest.raises(SystemExit) as info:
            main(["scale-fn", "--seed", "1"])
        assert info.value.code == EXIT_USAGE

    def test_null_config_value_takes_the_default(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"functional": "height", "n": 60,
                                   "bins": None, "depth": None}))
        code, from_cfg = run_cli(capsys, "hist", "--config", str(cfg))
        _, direct = run_cli(capsys, "hist", "--functional", "height",
                            "--n", "60")
        assert code == EXIT_OK
        assert from_cfg == direct
        assert len(direct.splitlines()) == 31

    def test_help_names_table_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["hist", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "(default 2000)" in text and "(default sup_swap)" in text


class TestParser:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == EXIT_USAGE

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--threads", "2"])
        assert info.value.code == EXIT_USAGE

    def test_runtime_cap_exit_code_is_3(self, capsys):
        # an impossible conditioning target exhausts the rejection budget
        code, _ = run_cli(capsys, "hist", "--functional", "lifetime",
                          "--n", "200", "--min-lifetime", "80")
        assert code == EXIT_RUNTIME
