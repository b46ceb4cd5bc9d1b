"""Smoke tests of the benchmark tool ``tools/bench.py``: each call it times still runs."""

import contextlib
import importlib.util
import io
import os
import sys
from pathlib import Path

import pytest

import intonsem
from intonsem import cli

ROOT = Path(__file__).resolve().parent.parent


def _import_bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


@pytest.fixture()
def bench(monkeypatch):
    # the calls take their inputs from perfbench's workloads module, with paths relative to the root
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.chdir(ROOT)
    return _import_bench()


def test_every_timed_call_runs(bench):
    calls = bench._calls(intonsem)
    assert len(calls) == 13 and len(dict(calls)) == 13
    for name, call in calls:
        call()


def test_each_tree_is_a_package_of_its_own(bench):
    try:
        for package in (bench._load("a", ROOT), bench._load("b", ROOT)):
            calls = bench._calls(package)
            assert len(calls) == 13
            for name, call in calls:
                call()
        modules = {name for name in sys.modules if name.startswith("intonsem_a.")}
        assert {"intonsem_a.cli", "intonsem_a.pregroup", "intonsem_a.tensor"} <= modules
        for name in modules:
            assert sys.modules[name] is not sys.modules[name.replace("intonsem_a", "intonsem_b")]
            assert sys.modules[name] is not sys.modules.get(name.replace("intonsem_a", "intonsem"))
    finally:
        for name in [m for m in sys.modules if m.startswith(("intonsem_a", "intonsem_b"))]:
            del sys.modules[name]


def test_importing_the_tool_leaves_the_environment_alone(monkeypatch):
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)  # main sets them; an import must not
    before = dict(os.environ)
    _import_bench()
    assert dict(os.environ) == before


def test_every_startup_command_exits_as_expected(bench):
    for name, (argv, code) in bench.COMMANDS.items():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                got = cli.main(list(argv))
            except SystemExit as exc:  # --help exits as the process would
                got = exc.code
        assert got == code, name
