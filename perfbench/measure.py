"""Closed-loop measurement: the untraced end-to-end run and the traced run."""

from __future__ import annotations

import itertools
import json
import math
import resource
import statistics
import sys
import time
import traceback
from collections import Counter

import layers
import workloads as wl

SETUP_SHARES = 9  # the run is cut into this many shares
SETUPS_PER_SHARE = 6  # set-ups spread evenly over each share
MIN_CYCLES = 3  # repetitions of every request before a run may end
STARTUP_RUNS = 12  # fresh CLI processes for cli.process_ms and cli.startup_ms
PROBE_REPEATS = 3


class Loop:
    """Closed-loop state: latencies, the fastest latency of each cycle
    position, failures and checker self-tests."""

    def __init__(self):
        self.latencies: list[float] = []
        self.kinds: list[str] = []
        self.best: list[float] = []  # per cycle position, over its repetitions
        self.cycles = 0
        self.busy = 0.0  # seconds the requests took, checks excluded
        self.attempted = 0
        self.failed = 0
        self.selftest_ok = True

    def record(self, req, outcome, seconds: float, first_cycle: bool) -> None:
        self.latencies.append(seconds)
        self.kinds.append(req.kind)
        self.check(req, outcome, first_cycle)

    def check(self, req, outcome, first_cycle: bool = False) -> None:
        """Count a request as attempted and check its outcome (warm-ups and
        probes come here untimed)."""
        self.attempted += 1
        if outcome is None or not req.check(outcome):
            self.failed += 1
            if self.failed <= 3:
                print(f"failed: {req.kind}: {getattr(req, 'argv', None) or req.sentence}", file=sys.stderr)
        elif first_cycle:
            for bad in corruptions(outcome):
                if req.check(bad):
                    self.selftest_ok = False
                    print(f"checker accepted a corrupted output of {req.kind}", file=sys.stderr)

    def p50_by_kind(self) -> dict:
        by_kind: dict[str, list[float]] = {}
        for kind, seconds in zip(self.kinds, self.latencies):
            by_kind.setdefault(kind, []).append(seconds * 1e3)
        return {kind: statistics.median(v) for kind, v in sorted(by_kind.items())}

    def run_cycles(self, cycle, seconds: float, min_cycles: int, run_one) -> None:
        """Whole cycles until ``seconds`` have passed and at least
        ``min_cycles`` cycles have run in this call, so every run has the
        same mix.  Later calls with the same cycle keep the fastest
        latencies of earlier ones."""
        start = time.perf_counter()
        if not self.best:
            self.best = [math.inf] * len(cycle)
        first = self.cycles
        while self.cycles < first + min_cycles or time.perf_counter() - start < seconds:
            for k, req in enumerate(cycle):
                try:
                    outcome, seconds_taken = run_one(req)
                except Exception:
                    traceback.print_exc()
                    outcome, seconds_taken = None, math.inf
                self.busy += seconds_taken
                self.best[k] = min(self.best[k], seconds_taken)
                self.record(req, outcome, seconds_taken, self.cycles == 0)
            self.cycles += 1


def untraced(req):
    start = time.perf_counter()
    outcome = req.run()
    return outcome, time.perf_counter() - start


def corruptions(outcome):
    """Wrong variants of a correct outcome; each must fail its check."""
    if isinstance(outcome, tuple):
        rc, out, err = outcome
        yield rc + 1, out, err
        digits = [k for k, ch in enumerate(out) if ch.isdigit()]
        if digits:
            k = digits[0]
            yield rc, out[:k] + str((int(out[k]) + 1) % 10) + out[k + 1:], err
        return
    pattern, meaning, values = outcome[0]
    data = list(meaning["data"])
    data[0] = data[0] * (1 + 1e-6) + 1e-6
    yield [(pattern, dict(meaning, data=data), values)]
    yield [(pattern + "-x", meaning, values)]


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(name: str, seed: int, seconds: int) -> tuple[dict, int, int, bool]:
    setups = []  # per share, the fastest of its set-ups
    loop = Loop()
    # Set-ups are spread evenly over the run, between the request cycles.
    # Within each share of the run the fastest set-up is kept, as for the
    # requests below, and the median over the shares is reported, so that
    # set-up time does not hang on the host's speed at a single moment.
    # The same seed rebuilds the same cycle, so the fastest request
    # latencies carry over from one set-up to the next.
    start_run = time.perf_counter()
    segment = seconds / (SETUP_SHARES * SETUPS_PER_SHARE)
    for k in range(SETUP_SHARES):
        share = []
        for j in range(SETUPS_PER_SHARE):
            workload = None  # free the previous set-up before building the next
            start = time.perf_counter()
            workload = wl.SETUPS[name](seed)
            outcome = workload.warmup.run()
            share.append(time.perf_counter() - start)
            loop.check(workload.warmup, outcome)
            first = k == j == 0
            if first:
                print(json.dumps({"workload": name, "seed": seed, "clients": 1, "cycle": len(workload.cycle),
                                  "mix": Counter(r.kind for r in workload.cycle)}), flush=True)
            # Segments end on a fixed schedule, so set-ups and the last
            # cycle of a segment do not lengthen the run.
            end = start_run + (k * SETUPS_PER_SHARE + j + 1) * segment
            loop.run_cycles(workload.cycle, end - time.perf_counter(), MIN_CYCLES if first else 1, untraced)
        setups.append(min(share))
    # Each request is timed at the fastest of its repetitions (the
    # min-of-repeats rule of timeit): the host's speed drifts by up to 2x
    # over tens of seconds, and the minimum filters out every slow phase
    # shorter than the run.
    best = [x * 1e3 for x in loop.best]
    metrics = {
        "requests_per_s": metric(len(best) / sum(best) * 1e3, "1/s"),
        "latency_ms_p50": metric(percentile(best, 0.50), "ms"),
        "latency_ms_p95": metric(percentile(best, 0.95), "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    ms = [x * 1e3 for x in loop.latencies]
    print(json.dumps({
        "samples": len(ms), "cycles": loop.cycles, "setups_s": setups,
        "as_seen": {"requests_per_s": len(ms) / loop.busy, "latency_ms_p50": percentile(ms, 0.5),
                    "latency_ms_p95": percentile(ms, 0.95)},
        "p50_ms_by_kind": loop.p50_by_kind(),
    }), flush=True)
    return metrics, loop.attempted, loop.failed, loop.selftest_ok


def traced(name: str, seed: int, seconds: int) -> tuple[dict, int, int, bool]:
    workload = wl.SETUPS[name](seed)
    loop = Loop()
    loop.check(workload.warmup, workload.warmup.run())
    print(json.dumps({"workload": name, "seed": seed, "clients": 1, "cycle": len(workload.cycle),
                      "mix": Counter(r.kind for r in workload.cycle), "trace": 1}), flush=True)
    # Reference phase with tracing off, then the same cycle traced.
    loop.run_cycles(workload.cycle, seconds * 0.25, 1, untraced)
    tracer = layers.Tracer()
    traced_loop = Loop()
    ids = itertools.count()
    traced_loop.run_cycles(workload.cycle, seconds * 0.5, 1,
                           lambda req: layers.traced_request(tracer, next(ids), req))
    first_probe = next(ids)
    for _ in range(PROBE_REPEATS):
        for req in layers.probe_requests():
            traced_loop.check(req, layers.traced_request(tracer, next(ids), req)[0])
    series, series_ok = layers.scaling_series(tracer, next(ids))
    startup, bad = layers.cli_startup(STARTUP_RUNS)
    rows = layers.per_request([s for s in tracer.spans if s["request"] < first_probe])
    probe_rows = layers.per_request([s for s in tracer.spans if s["request"] >= first_probe])
    metrics, from_probe = layers.layer_metrics(rows, probe_rows)
    metrics.update(series)
    metrics.update(startup)
    overhead = sum(traced_loop.best) / sum(loop.best) - 1
    metrics["trace.overhead_pct"] = metric(overhead * 100, "%")
    trace_path = wl.OUT / f"trace-{name}-{seed}.json"
    tracer.write(trace_path)
    print(json.dumps({"samples": len(traced_loop.latencies), "from_probe": from_probe,
                      "trace": str(trace_path.relative_to(wl.ROOT))}), flush=True)
    attempted = loop.attempted + traced_loop.attempted + STARTUP_RUNS + 1
    failed = loop.failed + traced_loop.failed + bad + (not series_ok)
    return metrics, attempted, failed, loop.selftest_ok and traced_loop.selftest_ok
