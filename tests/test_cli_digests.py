"""Tests of tools/cli_digests.py: every listed run is a valid command line,
and a digest is the sha256 of the run's stdout."""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

from levyexc.cli import EXIT_OK, build_parser, main

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


def test_digest_is_sha256_of_stdout(capsys):
    argv = ["scale-fn", "--x-max", "0.5", "--h-w", "0.1"]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert cli_digests.digest(argv) == (
        EXIT_OK, hashlib.sha256(out.encode()).hexdigest())
