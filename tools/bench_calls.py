"""Per-call timings of the hot library calls, written to ``BENCH_calls.json``.

    python3 tools/bench_calls.py --label change
    python3 tools/bench_calls.py --label parent --root ../other-checkout

Run it from the repository root.  ``--root`` names the source checkout
whose ``src/`` is timed (default: this one); the inputs come from that
checkout's ``perfbench/workloads.py``, so two checkouts are timed on the
same inputs.  Each call is timed in process as the fastest of its
repeats, in microseconds, with the repeats of all calls taking turns.
The figures are stored under ``--label``; a second run with the same
label keeps the faster figure of each call, so alternating runs of two
checkouts compare their best figures.  When the file holds a ``parent``
and a ``change`` label it also gets their ratios (parent time / change
time).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import timeit
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
OUT = HERE / "BENCH_calls.json"
REPEAT = 15  # rounds per call; the figure is the fastest


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

    args = cli._build_parser().parse_args(list(wl.long_meaning_argv(sentence)))
    _, document, _ = args.func(args)

    wl.write_mix_universe(random.Random(1))
    universe = wl.ROOT / wl.MIX_UNIVERSE

    theta, rho = atom("theta"), atom("rho")
    chain = wl.chain_types(16)  # 37 factors: long-spans' longest reduce input
    return [
        ("parse_type_chain_37_us", lambda: parse_type(chain)),
        ("load_lexicon_long_spans_us", lambda: load_lexicon(wl.ROOT / wl.LONG_LEXICON)),
        ("chart_reductions_1_word_us", lambda: chart_reductions(rheme, rho)),
        ("chart_reductions_8_word_theme_us", lambda: chart_reductions(theme, theta)),
        ("epsilon_contract_d32_us", lambda: epsilon_contract(subject, 0, relation, 0)),
        ("compose_no_link_d50_us", lambda: compose([vector], alone)),
        ("compose_7_link_theme_d4_us", lambda: compose(typing.senses, typing.diagram)),
        ("stable_json_theme_8_us", lambda: cli._stable_json(document)),
        ("load_universe_32_us", lambda: load_universe(universe)),
    ]


def _time(calls) -> dict[str, float]:
    """Fastest of ``REPEAT`` rounds of each call, in microseconds per call.  The
    rounds of all calls take turns, so a burst of load elsewhere on the host
    slows a round or two of each call rather than every round of one."""
    timers = {name: timeit.Timer(call) for name, call in calls}
    # about 0.05 s a round: a quarter of what autorange picks for 0.2 s
    numbers = {name: max(1, timer.autorange()[0] // 4) for name, timer in timers.items()}
    best = dict.fromkeys(timers, float("inf"))
    for _ in range(REPEAT):
        for name, timer in timers.items():
            best[name] = min(best[name], timer.timeit(numbers[name]) / numbers[name] * 1e6)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="name the figures are stored under")
    parser.add_argument("--root", type=Path, default=HERE, help="source checkout to time")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "tests"), str(root / "perfbench")]
    import numpy as np

    figures = {name: round(t, 2) for name, t in _time(_calls()).items()}
    doc = json.loads(OUT.read_text()) if OUT.exists() else {}
    doc["python"] = platform.python_version()
    doc["numpy"] = np.__version__
    doc["cpus"] = os.cpu_count()
    doc["unit"] = "microseconds per call, fastest of the repeats"
    trees = doc.setdefault("trees", {})
    old = trees.get(args.label, {})
    trees[args.label] = {k: min(v, old.get(k, v)) for k, v in figures.items()}
    if "parent" in trees and "change" in trees:
        parent, change = trees["parent"], trees["change"]
        doc["ratio_parent_over_change"] = {
            k: round(parent[k] / change[k], 2) for k in change if k in parent
        }
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(trees[args.label], indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
