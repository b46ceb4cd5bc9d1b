"""Per-call timings of the hot library calls, written to ``BENCH_calls.json``.

    python3 tools/bench_calls.py --tree change=.
    python3 tools/bench_calls.py --tree parent=../other-checkout --tree change=.

Run it from the repository root.  Each ``--tree LABEL=DIR`` names a source
checkout whose ``src/`` is timed (default: ``change=`` this one); the inputs
come from that checkout's ``perfbench/workloads.py``, so two checkouts are
timed on the same inputs.  A round starts one child process per tree, which
times every call ``REPEATS`` times, about 10 ms a timing, in microseconds per
call; the trees take turns going first, so the host's slow phases fall on all
of them alike.  The children run BLAS on one thread, as the ``intonsem``
command does: with two, the d = 50 ditransitive read 1.2 ms or 8 ms by whether
the host's other CPU was free.  Each figure is the fastest timing of all
rounds.  When the trees include ``parent`` and ``change``, the file also gets
their ratios (parent time / change time).  The file holds the last run only: figures from
different runs do not compare.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import subprocess
import sys
import timeit
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
OUT = HERE / "BENCH_calls.json"
ROUNDS = 15  # child processes per tree
REPEATS = 9  # timings of every call in each child; the figure is the fastest of all

# times every call of the checkout named by argv[1] and prints its fastest timings
_CHILD = f"""import json, sys
sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
import bench_calls
print(json.dumps(bench_calls._time_best(sys.argv[1])))
"""


def _calls():
    """(name, zero-argument callable) for every timed call."""
    import numpy as np

    import workloads as wl
    from intonsem import cli
    from intonsem.intonation import parse_annotated, type_spans
    from intonsem.lexicon import load_lexicon
    from intonsem.pregroup import ReductionDiagram, atom, chart_reductions, parse_type
    from intonsem.tensor import TypedTensor, compose, epsilon_contract
    from intonsem.truth import load_universe

    wl.OUT.mkdir(exist_ok=True)
    wl.write_long_lexicon()
    lex = load_lexicon(wl.ROOT / wl.LONG_LEXICON)
    sentence = wl.long_theme_pool()[8][0]  # "{T <8 words>} {R <noun>}"
    theme, rheme = ([[s.type for s in lex[w].senses] for w in span.tokens]
                    for span in parse_annotated(sentence).spans)
    typing = next(t[0] for t in type_spans(parse_annotated(sentence), lex)
                  if len(t[0].diagram.links) == 7)

    rng = np.random.default_rng(1)
    n, verb = atom("n"), parse_type("n.r s n.l")
    subject = TypedTensor(n, rng.random(32))
    relation = TypedTensor(verb, rng.random((32, 1, 32)))
    vector = TypedTensor(atom("rho"), rng.random(50))
    alone = ReductionDiagram((), (0,), 1)
    # dense-library's ditransitive theme: subject, n.r theta n.l n.l, two objects
    ditransitive = [parse_type(t) for t in ("n", "n.r theta n.l n.l", "n", "n")]
    gives = [TypedTensor(t, rng.random((wl.DENSE_DIM,) * len(t))) for t in ditransitive]
    (_, gives_diagram), = chart_reductions([[t] for t in ditransitive], atom("theta"))

    meaning_argv = list(wl.long_meaning_argv(sentence))
    args = cli._build_parser().parse_args(meaning_argv)
    _, document, _ = args.func(args)
    # the parse main makes; a tree without _parse_args parsed through the top level
    parse = getattr(cli, "_parse_args", cli._build_parser().parse_args)
    shipped = str(wl.ROOT / wl.SHIPPED_LEXICON)
    reduce_argv = ["reduce", "Mary likes John", "--lexicon", shipped, "--format", "json"]

    def main_reduce():
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(reduce_argv):
                raise RuntimeError("reduce failed")

    wl.write_mix_universe(random.Random(1))
    universe = wl.ROOT / wl.MIX_UNIVERSE

    theta, rho = atom("theta"), atom("rho")
    chain = wl.chain_types(16)  # 37 factors: long-spans' longest reduce input
    return [
        ("parse_type_chain_37_us", lambda: parse_type(chain)),
        ("load_lexicon_long_spans_us", lambda: load_lexicon(wl.ROOT / wl.LONG_LEXICON)),
        ("chart_reductions_1_word_us", lambda: list(chart_reductions(rheme, rho))),
        ("chart_reductions_8_word_theme_us", lambda: list(chart_reductions(theme, theta))),
        ("epsilon_contract_d32_us", lambda: epsilon_contract(subject, 0, relation, 0)),
        ("compose_no_link_d50_us", lambda: compose([vector], alone)),
        ("compose_7_link_theme_d4_us", lambda: compose(typing.senses, typing.diagram)),
        ("compose_ditransitive_d50_us", lambda: compose(gives, gives_diagram)),
        ("stable_json_theme_8_us", lambda: cli._stable_json(document)),
        ("load_universe_32_us", lambda: load_universe(universe)),
        ("cli_main_reduce_words_us", main_reduce),
        ("parse_args_meaning_us", lambda: parse(meaning_argv)),
        ("load_lexicon_shipped_us", lambda: load_lexicon(shipped)),
    ]


def _time_best(root: str) -> dict[str, float]:
    """Each call of the checkout at ``root``, the fastest of ``REPEATS`` timings, in
    microseconds per call."""
    sys.path[:0] = [str(Path(root) / d) for d in ("src", "tests", "perfbench")]
    best = {}
    for name, call in _calls():
        timer = timeit.Timer(call)
        timer.timeit(1)  # the first call may fill caches
        number = max(1, int(0.01 / timer.timeit(1)))  # about 10 ms a timing
        best[name] = min(timer.repeat(REPEATS, number)) / number * 1e6
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", metavar="LABEL=DIR",
                        help="a checkout to time under LABEL (repeatable)")
    args = parser.parse_args(argv)
    trees = dict(t.split("=", 1) for t in args.tree or [f"change={HERE}"])
    trees = {label: Path(d).resolve() for label, d in trees.items()}

    env = dict(os.environ, **dict.fromkeys(
        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    best = {label: {} for label in trees}
    for k in range(ROUNDS):
        order = list(trees)[k % len(trees):] + list(trees)[:k % len(trees)]
        for label in order:
            proc = subprocess.run([sys.executable, "-c", _CHILD, str(trees[label])],
                                  cwd=trees[label], capture_output=True, text=True, env=env)
            if proc.returncode:
                raise SystemExit(f"{label}: the timing process failed:\n{proc.stderr}")
            for name, t in json.loads(proc.stdout).items():
                best[label][name] = min(t, best[label].get(name, t))

    import numpy as np

    doc = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "unit": "microseconds per call, fastest timing of all rounds",
        "rounds": ROUNDS,
        "repeats": REPEATS,
        "trees": {label: {name: round(t, 2) for name, t in by.items()}
                  for label, by in best.items()},
    }
    if "parent" in trees and "change" in trees:
        parent, change = doc["trees"]["parent"], doc["trees"]["change"]
        doc["ratio_parent_over_change"] = {
            k: round(parent[k] / change[k], 2) for k in change if k in parent
        }
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(doc["trees"], indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
