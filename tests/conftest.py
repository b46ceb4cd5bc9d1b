import json
from pathlib import Path

import pytest

from intonsem.lexicon import load_lexicon
from intonsem.truth import load_universe

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "intonsem" / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def example_lexicon():
    return load_lexicon(DATA_DIR / "example_lexicon.json")


@pytest.fixture(scope="session")
def example_universe():
    return load_universe(DATA_DIR / "universe_likes.json")


@pytest.fixture()
def write_lexicon(tmp_path):
    """Write a lexicon JSON document to a temp file and return its path."""

    def _write(doc: dict, name: str = "lex.json") -> Path:
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return p

    return _write


@pytest.fixture()
def parses(monkeypatch):
    """The counts of ``json.loads`` and ``parse_type`` calls made in the lexicon and universe
    loaders, kept up to date, with the loaders' memo of past loads emptied for the test."""
    from intonsem import lexicon

    counts = {"json.loads": 0, "parse_type": 0}

    def counting(name, real):
        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return call

    monkeypatch.setattr(lexicon, "_kept", {})
    monkeypatch.setattr(json, "loads", counting("json.loads", json.loads))
    monkeypatch.setattr(lexicon, "parse_type", counting("parse_type", lexicon.parse_type))
    return counts
