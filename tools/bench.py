"""Timings of intonsem checkouts, written to ``BENCH_calls.json`` or ``BENCH_startup.json``.

    python3 tools/bench.py calls
    python3 tools/bench.py startup --tree parent=../other-checkout --tree change=.

Run it from the repository root.  Each ``--tree LABEL=DIR`` names a checkout whose
``src/intonsem`` is timed (default: ``change=`` this one).  The trees take turns going
first, round by round, so the host's slow phases fall on all of them alike.  BLAS runs on
one thread, as in the ``intonsem`` command: with two, the d = 50 ditransitive read 1.2 ms
or 8 ms by whether the host's other CPU was free.  A file holds the last run only:
figures from different runs do not compare.

``calls`` imports each tree into this process as the package ``intonsem_<label>`` (its
imports are relative, so trees share no module) and times 16 calls on inputs from this
checkout's ``perfbench/workloads.py``, each ``REPEATS`` times per round on every tree in
turn, about 10 ms a timing; a figure is the fastest, in microseconds per call.  With trees
``parent`` and ``change``, the file also holds their ratios (parent time / change time).
A loader keeps the values of its last few loads and does not parse a file read again with
the same text, so ``load_*_us`` take each file's ``COLD_COPIES`` copies in turn, each with
its own trailing spaces, and every load parses.  ``load_*_repeat_us`` load one unchanged file.

``startup`` times fresh ``python -m intonsem.cli`` processes, one per command and tree in
a round, and one each of ``python -c pass`` and ``python -c "import numpy"``: [first
quartile, median, third quartile] in milliseconds; ``over_bare_ms`` is a median minus
``python -c pass``'s.  An untimed run first checks each exit code and whether numpy loaded.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import itertools
import json
import os
import platform
import random
import shlex
import statistics
import subprocess
import sys
import time
import timeit
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
CALL_ROUNDS = 15
REPEATS = 9  # timings of every call on each tree in a round; the figure is the fastest of all
COLD_COPIES = 8  # copies of each file a cold load takes in turn: more than a loader keeps
STARTUP_ROUNDS = 21  # processes per command and tree

# name -> (argv, expected exit code); data paths are relative to the tree's root
COMMANDS = {
    "reduce": (["reduce", "n n.r s n.l n"], 0),
    "reduce_type_syntax_error": (["reduce", "n$"], 2),
    "unknown_option": (["reduce", "n", "--bogus"], 2),
    "help": (["--help"], 0),
    "meaning": (["meaning", "{T Mary likes} {R musicals}",
                 "--lexicon", "src/intonsem/data/example_lexicon.json"], 0),
    "truth": (["truth", "John likes Mary",
               "--universe", "src/intonsem/data/universe_likes.json"], 0),
}
BARE = {"python -c pass": ["-c", "pass"], 'python -c "import numpy"': ["-c", "import numpy"]}

# runs ``python -m intonsem.cli ARGV`` and prints whether numpy was imported
_PROBE = """import runpy, sys
try:
    runpy.run_module("intonsem.cli", run_name="__main__")
finally:
    print("numpy" in sys.modules, file=sys.__stderr__)
"""


def _tree(text: str) -> tuple[str, Path]:
    label, sep, root = text.partition("=")
    if not (sep and label.isidentifier() and Path(root, "src/intonsem/__init__.py").is_file()):
        raise argparse.ArgumentTypeError(f"{text!r}: want LABEL=DIR, DIR holding src/intonsem")
    return label, Path(root).resolve()


def _rounds(labels: list[str], rounds: int):
    """The order of the trees in each round: each goes first in turn."""
    for k in range(rounds):
        yield labels[k % len(labels):] + labels[:k % len(labels)]


def _load(label: str, root: Path):
    """The checkout at ``root`` imported as the package ``intonsem_<label>``."""
    name, src = f"intonsem_{label}", root / "src" / "intonsem"
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py",
                                                  submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def _cold(load, source: Path, *sidecars: Path):
    """A call of ``load`` on the next of ``COLD_COPIES`` copies of ``source``, each ``source``'s
    text and its own count of trailing spaces, in ``.perfbench/cold/`` beside ``sidecars``."""
    import workloads as wl

    folder = wl.OUT / "cold"
    folder.mkdir(exist_ok=True)
    for sidecar in sidecars:
        (folder / sidecar.name).write_bytes(sidecar.read_bytes())
    copies = [folder / f"{k}-{source.name}" for k in range(COLD_COPIES)]
    for k, copy in enumerate(copies):
        copy.write_text(source.read_text() + " " * (k + 1))  # no copy holds the source's text
    paths = itertools.cycle(copies)
    return lambda: load(next(paths))


def _calls(package):
    """(name, zero-argument callable) for every timed call of ``package``, an intonsem tree."""
    import numpy as np

    import workloads as wl

    cli, intonation, lexicon, pregroup, tensor, truth = (
        importlib.import_module(f"{package.__name__}.{name}")
        for name in ("cli", "intonation", "lexicon", "pregroup", "tensor", "truth"))

    wl.OUT.mkdir(exist_ok=True)
    wl.write_long_lexicon()
    long_lexicon = wl.ROOT / wl.LONG_LEXICON
    lex = lexicon.load_lexicon(long_lexicon)
    sentence = wl.long_theme_pool()[8][0]  # "{T <8 words>} {R <noun>}"
    annotated = intonation.parse_annotated(sentence)
    theme, rheme = ([[s.type for s in lex[w].senses] for w in span.tokens]
                    for span in annotated.spans)
    typing = next(t[0] for t in intonation.type_spans(annotated, lex)
                  if len(t[0].diagram.links) == 7)

    theta, rho = pregroup.atom("theta"), pregroup.atom("rho")
    rng = np.random.default_rng(1)
    subject = tensor.TypedTensor(pregroup.atom("n"), rng.random(32))
    relation = tensor.TypedTensor(pregroup.parse_type("n.r s n.l"), rng.random((32, 1, 32)))
    vector = tensor.TypedTensor(rho, rng.random(50))
    alone = pregroup.ReductionDiagram((), (0,), 1)
    # dense-library's ditransitive theme: subject, n.r theta n.l n.l, two objects
    ditransitive = [pregroup.parse_type(t) for t in ("n", "n.r theta n.l n.l", "n", "n")]
    gives = [tensor.TypedTensor(t, rng.random((wl.DENSE_DIM,) * len(t))) for t in ditransitive]
    (_, gives_diagram), = pregroup.chart_reductions([[t] for t in ditransitive], theta)

    meaning_argv = list(wl.long_meaning_argv(sentence))
    args = cli._parse_args(meaning_argv)
    _, document, _ = args.func(args)
    shipped = wl.ROOT / wl.SHIPPED_LEXICON
    reduce_argv = ["reduce", "Mary likes John", "--lexicon", str(shipped), "--format", "json"]

    def main_reduce():
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(reduce_argv):
                raise RuntimeError("reduce failed")

    wl.write_mix_universe(random.Random(1))
    universe = wl.ROOT / wl.MIX_UNIVERSE

    chain = wl.chain_types(16)  # 37 factors: long-spans' longest reduce input
    return [
        ("parse_type_chain_37_us", lambda: pregroup.parse_type(chain)),
        ("load_lexicon_long_spans_us", _cold(lexicon.load_lexicon, long_lexicon)),
        ("load_lexicon_long_spans_repeat_us", lambda: lexicon.load_lexicon(long_lexicon)),
        ("chart_reductions_1_word_us", lambda: list(pregroup.chart_reductions(rheme, rho))),
        ("chart_reductions_8_word_theme_us", lambda: list(pregroup.chart_reductions(theme, theta))),
        ("epsilon_contract_d32_us", lambda: tensor.epsilon_contract(subject, 0, relation, 0)),
        ("compose_no_link_d50_us", lambda: tensor.compose([vector], alone)),
        ("compose_7_link_theme_d4_us", lambda: tensor.compose(typing.senses, typing.diagram)),
        ("compose_ditransitive_d50_us", lambda: tensor.compose(gives, gives_diagram)),
        ("stable_json_theme_8_us", lambda: cli._stable_json(document)),
        ("load_universe_32_us", _cold(truth.load_universe, universe)),
        ("load_universe_32_repeat_us", lambda: truth.load_universe(universe)),
        ("cli_main_reduce_words_us", main_reduce),
        ("parse_args_meaning_us", lambda: cli._parse_args(meaning_argv)),
        ("load_lexicon_shipped_us",
         _cold(lexicon.load_lexicon, shipped, shipped.with_name("vectors.tsv"))),
        ("load_lexicon_shipped_repeat_us", lambda: lexicon.load_lexicon(shipped)),
    ]


def _time_calls(trees: dict[str, Path]) -> dict:
    sys.path[:0] = [str(HERE / d) for d in ("src", "tests", "perfbench")]  # for workloads
    timers = {label: {name: timeit.Timer(call) for name, call in _calls(_load(label, root))}
              for label, root in trees.items()}
    best = {label: dict.fromkeys(by, float("inf")) for label, by in timers.items()}
    for order in _rounds(list(trees), CALL_ROUNDS):
        for name in best[order[0]]:
            for label in order:
                timer = timers[label][name]
                number = max(1, int(0.01 / timer.timeit(1)))  # about 10 ms a timing
                t = min(timer.repeat(REPEATS, number)) / number * 1e6
                best[label][name] = min(t, best[label][name])

    doc = {
        "unit": "microseconds per call, fastest timing of all rounds",
        "rounds": CALL_ROUNDS,
        "repeats": REPEATS,
        "trees": {label: {name: round(t, 2) for name, t in by.items()}
                  for label, by in best.items()},
    }
    if {"parent", "change"} <= trees.keys():
        parent, change = doc["trees"]["parent"], doc["trees"]["change"]
        doc["ratio_parent_over_change"] = {k: round(parent[k] / t, 2) for k, t in change.items()}
    return doc


def _wall_ms(args: list[str], root: Path | None) -> tuple[float, int]:
    env = dict(os.environ, PYTHONPATH=str(root / "src")) if root else None
    start = time.perf_counter()
    # no timeout: with one, the wait polls in sleeps of up to 50 ms
    proc = subprocess.run([sys.executable, *args], cwd=root, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return (time.perf_counter() - start) * 1e3, proc.returncode


def _imports_numpy(argv: list[str], code: int, root: Path) -> bool:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != code:
        raise SystemExit(f"{root}: {argv} exited {proc.returncode}, expected {code}")
    return proc.stderr.splitlines()[-1] == "True"


def _quartiles(times: list[float]) -> list[float]:
    return [round(t, 1) for t in statistics.quantiles(times, n=4)]


def _time_startup(trees: dict[str, Path]) -> dict:
    numpy_imported = {label: {name: _imports_numpy(cmd, code, root)
                              for name, (cmd, code) in COMMANDS.items()}
                      for label, root in trees.items()}
    bare = {name: [] for name in BARE}
    times = {label: {name: [] for name in COMMANDS} for label in trees}
    for order in _rounds(list(trees), STARTUP_ROUNDS):
        for name, cmd in BARE.items():
            bare[name].append(_wall_ms(cmd, None)[0])
        for label in order:
            for name, (cmd, code) in COMMANDS.items():
                ms, got = _wall_ms(["-m", "intonsem.cli", *cmd], trees[label])
                if got != code:
                    raise SystemExit(f"{label}: {cmd} exited {got}, expected {code}")
                times[label][name].append(ms)

    pass_ms = statistics.median(bare["python -c pass"])
    return {
        "bytecode_written": not sys.flags.dont_write_bytecode,  # else each process compiles
        "unit": "milliseconds of wall time per fresh process: [first quartile, median, "
                "third quartile] over the rounds",
        "rounds": STARTUP_ROUNDS,
        "commands": {name: shlex.join(cmd) for name, (cmd, _) in COMMANDS.items()},
        "bare": {name: _quartiles(t) for name, t in bare.items()},
        "trees": {label: {name: _quartiles(t) for name, t in by.items()}
                  for label, by in times.items()},
        "over_bare_ms": {label: {name: round(statistics.median(t) - pass_ms, 1)
                                 for name, t in by.items()} for label, by in times.items()},
        "numpy_imported": numpy_imported,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("calls", "startup"))
    parser.add_argument("--tree", action="append", type=_tree, metavar="LABEL=DIR",
                        help="a checkout to time under LABEL, a Python name (repeatable)")
    args = parser.parse_args(argv)
    trees = dict(args.tree or [("change", HERE)])

    # one BLAS thread, for this process and those it starts, set before numpy loads
    os.environ.update(dict.fromkeys(
        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    timed = _time_calls(trees) if args.mode == "calls" else _time_startup(trees)

    import numpy as np

    doc = {"python": platform.python_version(), "numpy": np.__version__,
           "cpus": os.cpu_count(), **timed}
    (HERE / f"BENCH_{args.mode}.json").write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(doc, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
