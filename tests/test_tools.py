"""Smoke tests of the benchmark tool ``tools/bench.py``: each call it times still runs."""

import contextlib
import importlib.util
import io
import os
import sys
from pathlib import Path

import pytest

import intonsem
from intonsem import cli, lexicon

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
    assert len(calls) == 16 and len(dict(calls)) == 16
    for name, call in calls:
        call()


def test_cold_loads_parse_each_time_and_repeated_loads_do_not(bench, parses):
    assert bench.COLD_COPIES > lexicon._KEPT
    calls = dict(bench._calls(intonsem))
    for name in ("load_lexicon_long_spans", "load_lexicon_shipped", "load_universe_32"):
        before = parses["json.loads"]
        for _ in range(2 * bench.COLD_COPIES):
            calls[f"{name}_us"]()
        assert parses["json.loads"] - before == 2 * bench.COLD_COPIES, name
        calls[f"{name}_repeat_us"]()
        before = parses["json.loads"]
        calls[f"{name}_repeat_us"]()
        assert parses["json.loads"] == before, name


def test_each_tree_is_a_package_of_its_own(bench):
    try:
        for package in (bench._load("a", ROOT), bench._load("b", ROOT)):
            calls = bench._calls(package)
            assert len(calls) == 16
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
