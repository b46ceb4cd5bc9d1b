"""Smoke tests of the benchmark tools in ``tools/``: each call they time still runs."""

import contextlib
import io
from pathlib import Path

import pytest

from intonsem import cli

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def tools(monkeypatch):
    # bench_calls takes its inputs from perfbench's workloads module
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.syspath_prepend(str(ROOT / "tools"))


def test_every_timed_call_runs(tools):
    import bench_calls

    calls = bench_calls._calls()
    assert len(calls) == 13 and len(dict(calls)) == 13
    for name, call in calls:
        call()


def test_every_startup_command_exits_as_expected(tools, monkeypatch):
    import bench_startup

    monkeypatch.chdir(ROOT)  # the commands' data paths are relative to the tree's root
    for name, (argv, code) in bench_startup.COMMANDS.items():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                got = cli.main(list(argv))
            except SystemExit as exc:  # --help exits as the process would
                got = exc.code
        assert got == code, name
