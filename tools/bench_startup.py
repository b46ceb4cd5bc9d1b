"""Wall time of fresh ``intonsem`` processes, written to ``BENCH_startup.json``.

    python3 tools/bench_startup.py --tree change=.
    python3 tools/bench_startup.py --tree parent=../other-checkout --tree change=.

Run it from the repository root.  Each ``--tree LABEL=DIR`` names a source
checkout whose ``src/`` is run as ``python -m intonsem.cli`` (default:
``change=`` this one).  A round starts one process per command and tree, and
one each of ``python -c pass`` and ``python -c "import numpy"``; the trees
take turns going first, so the host's slow phases fall on all of them alike.
Each figure is the median over the rounds, in milliseconds, with the first
and third quartiles beside it; ``over_bare_ms`` is a median minus the same
run's ``python -c pass``.  Before timing, one untimed run per command and
tree checks its exit code and records whether it imported numpy.  The file
holds the last run only: figures from different runs do not compare.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
OUT = HERE / "BENCH_startup.json"
DATA = Path("src/intonsem/data")  # inside each tree
ROUNDS = 21  # processes per command and tree

# name -> (argv, expected exit code); data paths are relative to the tree's root
COMMANDS = {
    "reduce": (["reduce", "n n.r s n.l n"], 0),
    "reduce_type_syntax_error": (["reduce", "n$"], 2),
    "unknown_option": (["reduce", "n", "--bogus"], 2),
    "help": (["--help"], 0),
    "meaning": (["meaning", "{T Mary likes} {R musicals}",
                 "--lexicon", str(DATA / "example_lexicon.json")], 0),
    "truth": (["truth", "John likes Mary", "--universe", str(DATA / "universe_likes.json")], 0),
}
BARE = {"python -c pass": ["-c", "pass"], 'python -c "import numpy"': ["-c", "import numpy"]}

# runs ``python -m intonsem.cli ARGV`` and prints whether numpy was imported
_PROBE = """import runpy, sys
try:
    runpy.run_module("intonsem.cli", run_name="__main__")
finally:
    print("numpy" in sys.modules, file=sys.__stderr__)
"""


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


def _summary(times: list[float]) -> list[float]:
    """First quartile, median and third quartile, in ms."""
    return [round(t, 1) for t in statistics.quantiles(times, n=4)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", metavar="LABEL=DIR",
                        help="a checkout to time under LABEL (repeatable)")
    args = parser.parse_args(argv)
    trees = dict(t.split("=", 1) for t in args.tree or [f"change={HERE}"])
    trees = {label: Path(d).resolve() for label, d in trees.items()}

    numpy_imported = {label: {name: _imports_numpy(cmd, code, root)
                              for name, (cmd, code) in COMMANDS.items()}
                      for label, root in trees.items()}
    bare = {name: [] for name in BARE}
    times = {label: {name: [] for name in COMMANDS} for label in trees}
    for k in range(ROUNDS):
        for name, cmd in BARE.items():
            bare[name].append(_wall_ms(cmd, None)[0])
        order = list(trees)[k % len(trees):] + list(trees)[:k % len(trees)]
        for label in order:
            for name, (cmd, code) in COMMANDS.items():
                ms, got = _wall_ms(["-m", "intonsem.cli", *cmd], trees[label])
                if got != code:
                    raise SystemExit(f"{label}: {cmd} exited {got}, expected {code}")
                times[label][name].append(ms)

    import numpy as np

    pass_ms = statistics.median(bare["python -c pass"])
    doc = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "bytecode_written": not sys.flags.dont_write_bytecode,  # else each process compiles
        "unit": "milliseconds of wall time per fresh process: [first quartile, median, "
                "third quartile] over the rounds",
        "rounds": ROUNDS,
        "commands": {name: shlex.join(cmd) for name, (cmd, _) in COMMANDS.items()},
        "bare": {name: _summary(t) for name, t in bare.items()},
        "trees": {label: {name: _summary(t) for name, t in by.items()}
                  for label, by in times.items()},
        "over_bare_ms": {label: {name: round(statistics.median(t) - pass_ms, 1)
                                 for name, t in by.items()} for label, by in times.items()},
        "numpy_imported": numpy_imported,
    }
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps({k: doc[k] for k in ("bare", "over_bare_ms")}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
