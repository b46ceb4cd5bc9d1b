"""Per-layer tracing, made from the benchmark's side of the API.

A traced request is run twice over: once end to end (the ``request``
span, exactly what the untraced loop times) and once split into its
layer calls through the public API (children of a ``layers`` span with
the same request id).  Spans carry name, start, end, parent, request id
and counts; they stay in memory and are written out when the run ends.

Derived layer times are differences on the same input:
``intonation.combine`` = ``analyses`` - ``type_spans`` - ``compose``, and
``cli.overhead`` = ``cli.main`` - the load, parse, ``analyses``,
``reduce`` and truth calls it contains.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import workloads as wl
from intonsem.intonation import (
    RHEME,
    THEME,
    AnnotationSyntaxError,
    InfelicitousStructure,
    analyses,
    parse_annotated,
    type_spans,
)
from intonsem.lexicon import LexiconError, load_lexicon
from intonsem.pregroup import TypeSyntaxError, atom, parse_type, reduce
from intonsem.tensor import TypedTensor, compose, tensor_to_json
from intonsem.truth import (
    UnknownIndividualError,
    intersect,
    load_universe,
    membership,
    theme_vector,
    theme_vector_composed,
)

# Errors a request may be expected to end in; the decomposition stops there.
_EXPECTED_ERRORS = (
    AnnotationSyntaxError,
    InfelicitousStructure,
    LexiconError,
    TypeSyntaxError,
    UnknownIndividualError,
)

# Layer calls that ``cli.main`` makes itself; the rest of its time is overhead.
_CLI_PARTS = (
    "lexicon.load_lexicon",
    "truth.load_universe",
    "intonation.parse_annotated",
    "intonation.analyses",
    "pregroup.reduce",
    "truth.theme_vector",
    "truth.membership",
    "truth.intersect",
)


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, request: int, **counts):
        record = {
            "name": name,
            "start": time.perf_counter() - self._t0,
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "request": request,
            "counts": counts,
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter() - self._t0
            self._open.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


def sense_combinations(sentence, lexicon) -> int:
    """Sense assignments span typing must try: per pattern plan, per span,
    the product of the words' sense counts."""
    roles = sentence.roles
    plans = 1 if len(roles) == 2 or roles == (RHEME, THEME, RHEME) else 0
    plans = 2 if roles == (THEME, RHEME, THEME) else plans
    per_plan = sum(math.prod(len(lexicon[w].senses) for w in s.tokens) for s in sentence.spans)
    return plans * per_plan


def _sentence_layers(t: Tracer, rid: int, text: str, lexicon) -> None:
    with t.span("intonation.parse_annotated", rid):
        sentence = parse_annotated(text)
    with t.span("intonation.type_spans", rid) as c:
        c["sense_combinations"] = sense_combinations(sentence, lexicon)
        try:
            derivations = type_spans(sentence, lexicon)
        except InfelicitousStructure:
            derivations = []
        c["derivations"] = len(derivations)
    for typing in itertools.chain.from_iterable(derivations):
        with t.span("tensor.compose", rid, links=len(typing.diagram.links),
                    input_elems=sum(s.array.size for s in typing.senses)):
            compose(typing.senses, typing.diagram)
    with t.span("intonation.analyses", rid):
        found = analyses(sentence, lexicon)
    with t.span("tensor.tensor_to_json", rid):
        for a in found:
            tensor_to_json(a.meaning.array)
            for v in a.values:
                tensor_to_json(v.array)


def _reduce_layers(t: Tracer, rid: int, text: str, lexicon_path: str | None) -> None:
    target = atom("s")
    if lexicon_path is None:
        combos = [[parse_type(text)]]
    else:
        with t.span("lexicon.load_lexicon", rid):
            lex = load_lexicon(lexicon_path)
        combos = itertools.product(*[lex[w].types() for w in text.split()])
    for combo in combos:
        with t.span("pregroup.reduce", rid, factors=sum(len(x) for x in combo)) as c:
            c["reductions"] = len(reduce(list(combo), target))


def _truth_layers(t: Tracer, rid: int, query: str, universe_path: str) -> None:
    with t.span("truth.load_universe", rid):
        universe, relations = load_universe(universe_path)
    subject, name, rheme = query.split()
    rel = relations[name]
    with t.span("truth.theme_vector", rid):
        theme = theme_vector(universe, rel, subject)
    with t.span("truth.membership", rid):
        membership(universe, theme, rheme)
    with t.span("truth.intersect", rid):
        intersect(universe, theme, rheme)
    with t.span("truth.theme_vector_composed", rid):
        theme_vector_composed(universe, rel, subject)


def _option(argv, flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def _cli_layers(t: Tracer, rid: int, argv) -> None:
    command = argv[0]
    if command == "reduce":
        _reduce_layers(t, rid, argv[1], _option(argv, "--lexicon"))
    elif command == "truth":
        _truth_layers(t, rid, argv[1], _option(argv, "--universe"))
    else:
        with t.span("lexicon.load_lexicon", rid):
            lex = load_lexicon(_option(argv, "--lexicon"))
        texts = argv[1:3] if command == "compare" else argv[1:2]
        for text in texts:
            _sentence_layers(t, rid, text, lex)


def traced_request(t: Tracer, rid: int, req) -> tuple[object, float]:
    """Run ``req`` end to end inside a ``request`` span, then split into
    layer calls.  Returns the end-to-end outcome and the wall time of both."""
    start = time.perf_counter()
    cli_request = isinstance(req, wl.CliRequest)
    with t.span("request", rid, cli=int(cli_request)) as c:
        outcome = req.run()
    if cli_request:
        c["output_bytes"] = len(outcome[1].encode("utf-8"))
    with t.span("layers", rid):
        try:
            if cli_request:
                _cli_layers(t, rid, req.argv)
            else:
                _sentence_layers(t, rid, req.sentence, req.lexicon)
        except _EXPECTED_ERRORS:
            pass
    return outcome, time.perf_counter() - start


def per_request(spans: list[dict]) -> list[dict]:
    """Per request id: total seconds and summed counts by span name."""
    by_request: dict[int, dict] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        row = by_request[s["request"]]
        row[s["name"]] += s["end"] - s["start"]
        row[s["name"] + "#calls"] += 1
        for key, value in s["counts"].items():
            row[s["name"] + "#" + key] += value
    rows = []
    for row in by_request.values():
        if row.get("intonation.type_spans#derivations"):
            row["intonation.combine"] = (
                row["intonation.analyses"] - row["intonation.type_spans"] - row.get("tensor.compose", 0.0)
            )
        if row.get("request#cli"):
            row["cli.main"] = row["request"]
            row["cli.overhead"] = row["request"] - sum(row.get(p, 0.0) for p in _CLI_PARTS)
        rows.append(row)
    return rows


# (metric name, row key, scale, unit); the value is the mean over the
# requests that reach the layer.
LAYER_METRICS = (
    ("lexicon.load_lexicon_ms", "lexicon.load_lexicon", 1e3, "ms"),
    ("truth.load_universe_ms", "truth.load_universe", 1e3, "ms"),
    ("intonation.parse_annotated_us", "intonation.parse_annotated", 1e6, "us"),
    ("intonation.type_spans_ms", "intonation.type_spans", 1e3, "ms"),
    ("intonation.sense_combinations", "intonation.type_spans#sense_combinations", 1, "count"),
    ("intonation.derivations", "intonation.type_spans#derivations", 1, "count"),
    ("intonation.analyses_ms", "intonation.analyses", 1e3, "ms"),
    ("intonation.combine_ms", "intonation.combine", 1e3, "ms"),
    ("pregroup.reduce_ms", "pregroup.reduce", 1e3, "ms"),
    ("pregroup.factors", "pregroup.reduce#factors", 1, "count"),
    ("pregroup.reductions_found", "pregroup.reduce#reductions", 1, "count"),
    ("tensor.compose_ms", "tensor.compose", 1e3, "ms"),
    ("tensor.compose_calls", "tensor.compose#calls", 1, "count"),
    ("tensor.links_contracted", "tensor.compose#links", 1, "count"),
    ("tensor.input_elems", "tensor.compose#input_elems", 1, "count"),
    ("tensor.tensor_to_json_ms", "tensor.tensor_to_json", 1e3, "ms"),
    ("cli.main_ms", "cli.main", 1e3, "ms"),
    ("cli.overhead_ms", "cli.overhead", 1e3, "ms"),
    ("cli.output_bytes", "request#output_bytes", 1, "bytes"),
    ("truth.theme_vector_us", "truth.theme_vector", 1e6, "us"),
    ("truth.membership_us", "truth.membership", 1e6, "us"),
    ("truth.intersect_us", "truth.intersect", 1e6, "us"),
    ("truth.theme_vector_composed_us", "truth.theme_vector_composed", 1e6, "us"),
)


def layer_metrics(rows: list[dict], probe_rows: list[dict]) -> tuple[dict, list[str]]:
    """Layer means over the workload's requests; a layer the workload
    never reaches is measured on the probe requests instead."""
    out, from_probe = {}, []
    for name, key, scale, unit in LAYER_METRICS:
        source = rows if any(key in r for r in rows) else probe_rows
        if source is probe_rows:
            from_probe.append(name)
        values = [r[key] for r in source if key in r]
        out[name] = {"value": statistics.fmean(values) * scale, "unit": unit}
    key = "intonation.type_spans#sense_combinations"
    source = rows if any(key in r for r in rows) else probe_rows
    if source is probe_rows:
        from_probe.append("intonation.span_typing_yield")
    derivations = sum(r.get("intonation.type_spans#derivations", 0) for r in source)
    out["intonation.span_typing_yield"] = {"value": derivations / sum(r.get(key, 0) for r in source), "unit": "ratio"}
    return out, from_probe


def probe_requests() -> list:
    """Fixed requests reaching every CLI layer: the four fixtures, a
    type-string and a word-string reduce, and truth on the shipped universe."""
    text, words = "n n.r s n.l n", "Mary likes John"
    types = wl.shipped_types()
    return wl.fixture_requests() + [
        wl.CliRequest("reduce-types", ("reduce", text, "--format", "json"), 0,
                      wl.same_document(wl.reduce_document(text, None))),
        wl.CliRequest("reduce-words", ("reduce", words, "--lexicon", wl.SHIPPED_LEXICON, "--format", "json"),
                      0, wl.same_document(wl.reduce_document(words, [types[w] for w in words.split()]))),
        wl.CliRequest("truth", ("truth", "John likes Mary", "--universe", wl.SHIPPED_UNIVERSE,
                                "--format", "json"), 0,
                      wl.same_document(wl.truth_document(["Mary", "Sue", "John"], [("John", "Mary"), ("John", "Sue")],
                                                         "John", "likes", "Mary"))),
    ]


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scaling_series(t: Tracer, rid: int) -> tuple[dict, bool]:
    """The ROADMAP Baseline series: reduce by chain length, span typing by
    theme length, compose by dimension.  Returns metrics and whether every
    result was as expected."""
    out, ok = {}, True
    s = atom("s")
    for n_factors in (9, 25, 37):
        chain = parse_type(wl.chain_types((n_factors - 5) // 2))
        with t.span("series.pregroup.reduce", rid, factors=n_factors):
            ok = ok and len(reduce([chain], s)) == 1
            ms = _median_time(lambda: reduce([chain], s), 5) * 1e3
        out[f"pregroup.reduce_ms.f{n_factors}"] = {"value": ms, "unit": "ms"}

    wl.write_long_lexicon()
    lex = load_lexicon(wl.LONG_LEXICON)
    pool = wl.long_theme_pool()
    for length in (6, 8, 10):
        sentence = parse_annotated(pool[length][0])
        with t.span("series.intonation.type_spans", rid, words=length):
            ok = ok and len(type_spans(sentence, lex)) >= 1
            ms = _median_time(lambda: type_spans(sentence, lex), 3) * 1e3
        out[f"intonation.type_spans_ms.w{length}"] = {"value": ms, "unit": "ms"}

    rng = np.random.default_rng(wl.LONG_CONTENT_SEED)
    n = atom("n")
    for dim in (4, 20, 50):
        words = [TypedTensor(n, rng.random(dim)),
                 TypedTensor(parse_type("n.r theta n.l n.l"), rng.random((dim,) * 4)),
                 TypedTensor(n, rng.random(dim)), TypedTensor(n, rng.random(dim))]
        (diagram,) = reduce([w.type for w in words], atom("theta"))
        with t.span("series.tensor.compose", rid, dim=dim):
            value = compose(words, diagram).array
            ref = np.einsum("i,ijkl,k,l->j", *(w.array for w in (words[0], words[1], words[3], words[2])))
            ok = ok and bool(np.allclose(value, ref, rtol=1e-9, atol=0))
            ms = _median_time(lambda: compose(words, diagram), 5) * 1e3
        out[f"tensor.compose_ms.d{dim}"] = {"value": ms, "unit": "ms"}
        del words
    return out, ok


def cli_process_runs(reqs, repeats: int) -> tuple[list[float], int]:
    """Wall times of fresh ``python -m intonsem.cli`` processes, one at a
    time, round robin over ``reqs``; also the number that fail their check."""
    env = dict(os.environ, PYTHONPATH=str(wl.ROOT / "src"))
    times, bad = [], 0
    for k in range(repeats):
        req = reqs[k % len(reqs)]
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "intonsem.cli", *req.argv], cwd=wl.ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if not req.check((proc.returncode, proc.stdout, proc.stderr)):
            bad += 1
    return times, bad


def cli_startup(repeats: int) -> tuple[dict, int]:
    """Wall time of a fresh CLI process on the fixtures, and that minus
    the in-process ``cli.main`` time on the same argv."""
    reqs = wl.fixture_requests()
    process, bad = cli_process_runs(reqs, repeats)
    in_process = [_median_time(r.run, 5) for r in reqs]
    process_ms = statistics.median(process) * 1e3
    return {
        "cli.process_ms": {"value": process_ms, "unit": "ms"},
        "cli.startup_ms": {"value": process_ms - statistics.median(in_process) * 1e3, "unit": "ms"},
    }, bad
