"""Record stdout digests for every digest-checked benchmark request.

Run from the repository root on the commit whose outputs are the
reference (they must not change while the documented CLI output is
fixed):

    python3 perfbench/record_reference.py

It writes ``perfbench/reference.json``: a map from the JSON-encoded argv
to the SHA-256 of the request's stdout.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import workloads as wl  # noqa: E402


def main() -> int:
    wl.OUT.mkdir(exist_ok=True)
    wl.write_long_lexicon()
    reference = {}
    for argv in wl.digest_pool():
        rc, out, err = wl.call_cli(argv)
        if rc != 0:
            print(f"error: {argv} exited {rc}: {err.strip()}", file=sys.stderr)
            return 1
        reference[wl.digest_key(argv)] = wl.digest(out)
    wl.REFERENCE.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(reference)} digests in {wl.REFERENCE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
