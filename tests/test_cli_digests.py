"""Tests of tools/cli_digests.py: every listed run is a valid command line,
a digest is the sha256 of the run's stdout, and the field line digests the
reflected-walk field's bytes."""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

import json

from levyexc.cli import EXIT_OK, EXIT_VERIFY_FAILED, build_parser, main
from levyexc.rayknight import local_time_field

_PATH = Path(__file__).resolve().parent.parent / "tools" / "cli_digests.py"
_SPEC = importlib.util.spec_from_file_location("cli_digests", _PATH)
cli_digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_digests)


def test_every_run_parses():
    argvs = cli_digests.runs([1, 7])
    assert len(argvs) == (len(cli_digests.PLAIN_RUNS)
                          + 2 * len(cli_digests.SEEDED_RUNS))
    for argv in argvs:
        build_parser().parse_args(argv)


def test_dirac_runs_reach_the_no_draw_jump_route():
    argvs = [" ".join(argv) for argv in cli_digests.runs([1])]
    assert "simulate --model dirac --kind excursion --n 200 --seed 1" in argvs
    assert ("simulate --model dirac --kind path --stop horizon:10 --n 20 "
            "--seed 1") in argvs
    code, _, out = cli_digests.digest(
        ["simulate", "--model", "dirac", "--kind", "excursion", "--n", "20",
         "--seed", "1"])
    assert code == EXIT_OK
    paths = [json.loads(line) for line in out.splitlines()]
    assert len(paths) == 20
    # every jump of the dirac model has size 1
    assert {p["initial_jump"] for p in paths} == {1.0}
    assert {s[2] for p in paths for s in p["segments"]} <= {0.0, 1.0}


def test_digest_is_sha256_of_stdout(capsys):
    argv = ["scale-fn", "--x-max", "0.5", "--h-w", "0.1"]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert cli_digests.digest(argv) == (
        EXIT_OK, hashlib.sha256(out.encode()).hexdigest(), out)


def test_rows_lists_every_report_of_a_verify_run(capsys):
    argv = ["verify", "--suite", "loctime_reversal", "--n", "400",
            "--seed", "1", "--json"]
    code, _, out = cli_digests.digest(argv)
    assert code == EXIT_VERIFY_FAILED
    reports = json.loads(out)["reports"]
    rows = cli_digests.report_rows(argv, out)
    assert len(rows) == len(reports) == 2
    fields = rows[1].split("\t")
    assert fields[:3] == [" ".join(argv), "loctime_reversal",
                          "crossing_count_at_fraction:0.35_vs_0.65"]
    assert float(fields[3]) == reports[1]["p_value"]
    assert fields[4] == "Reject"


def test_rows_flag_prints_rows_after_verify_runs(capsys, monkeypatch):
    monkeypatch.setattr(cli_digests, "SEEDED_RUNS",
                        (("verify", "--json", "--suite", "width_reversal",
                          "--n", "200"),))
    monkeypatch.setattr(cli_digests, "PLAIN_RUNS", (("scale-fn",),))
    monkeypatch.setattr(cli_digests, "FIELD_RUN", _SMALL_FIELD)
    assert cli_digests.main(["--seeds", "3", "--rows"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # scale-fn digest, verify digest, one row per width_reversal report,
    # then the field line
    assert len(lines) == 2 + 3 + 1
    assert [len(line.split("\t")) for line in lines] == [3, 3, 5, 5, 5, 2]
    assert all(line.startswith("verify --json --suite width_reversal")
               for line in lines[1:5])
    assert lines[5] == cli_digests.field_line(3)


_SMALL_FIELD = {"target": 0.5, "levels": (0.1, 0.2, 0.3), "n_paths": 64,
                "h": 1e-3, "delta": 0.04}


def test_field_line_is_sha256_of_the_field_bytes(monkeypatch):
    monkeypatch.setattr(cli_digests, "FIELD_RUN", _SMALL_FIELD)
    field = local_time_field(**_SMALL_FIELD, seed=7)
    assert cli_digests.field_line(7) == (
        "local_time_field target=0.5 levels=(0.1, 0.2, 0.3) n_paths=64 "
        "h=0.001 delta=0.04 seed=7\t"
        + hashlib.sha256(field.tobytes()).hexdigest())


def test_field_run_at_seed_7_is_pin_b():
    # the same bytes as pin B of tests/test_rayknight.py
    assert cli_digests.field_line(7).endswith(
        "\t44847bf6d4e673f5f042bbbd920a99e9551fed3bb6f13ebd139645d0b5e41c14")
