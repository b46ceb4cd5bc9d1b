"""Independent reference implementations the tests check against.

These deliberately avoid the library's algorithms: reductions are found
by exhaustively rewriting adjacent cancellable pairs, a diagram is
checked by replaying its links as such rewrites, and contraction is a
direct sum over all index assignments.  Both are exponential and only
meant for small inputs.  Whole analyses combine the two per span and
merge the span values with explicit spider tensors.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from intonsem.frobenius import spider
from intonsem.pregroup import PregroupType, ReductionDiagram, SimpleType, cancels


def brute_force_reductions(
    factors: list[SimpleType], target: list[SimpleType]
) -> set[tuple[tuple[tuple[int, int], ...], tuple[int, ...]]]:
    """All (links, survivors) pairs reachable by cancelling adjacent
    cancellable factor pairs, one at a time, in any order."""
    results = set()
    seen = set()

    def rec(remaining: tuple[int, ...], links: frozenset):
        key = (remaining, links)
        if key in seen:
            return
        seen.add(key)
        if [factors[k] for k in remaining] == target:
            results.add((tuple(sorted(links)), remaining))
        for k in range(len(remaining) - 1):
            i, j = remaining[k], remaining[k + 1]
            if cancels(factors[i], factors[j]):
                rec(remaining[:k] + remaining[k + 2:], links | {(i, j)})

    rec(tuple(range(len(factors))), frozenset())
    return results


def is_planar(diagram: ReductionDiagram) -> bool:
    """No two links (i, j), (k, l) interleave as i < k < j < l."""
    for a, (i, j) in enumerate(diagram.links):
        for k, l in diagram.links[a + 1:]:
            if i < k < j < l or k < i < l < j:
                return False
    return True


def replay(diagram: ReductionDiagram, factors: list[SimpleType]) -> list[SimpleType]:
    """Apply the diagram's links as adjacent cancellations; return the
    survivors.  Raises ValueError when some link never becomes an adjacent
    cancellable pair, i.e. the diagram is not a sound reduction of
    ``factors``."""
    if len(factors) != diagram.size:
        raise ValueError("diagram size does not match the factor sequence")
    remaining = list(range(diagram.size))
    pending = set(diagram.links)
    while pending:
        for i, j in sorted(pending):
            k = remaining.index(i) if i in remaining else -1
            if k >= 0 and k + 1 < len(remaining) and remaining[k + 1] == j \
                    and cancels(factors[i], factors[j]):
                del remaining[k:k + 2]
                pending.discard((i, j))
                break
        else:
            raise ValueError(f"links {sorted(pending)} cannot be cancelled")
    return [factors[k] for k in remaining]


def brute_force_contractions(
    factors: list[SimpleType],
) -> set[tuple[tuple[tuple[int, int], ...], tuple[int, ...]]]:
    """All (links, remaining) pairs reachable by cancelling adjacent
    cancellable factor pairs, one at a time, including stopping early."""
    results = set()

    def rec(remaining: tuple[int, ...], links: frozenset):
        key = (tuple(sorted(links)), remaining)
        if key in results:
            return
        results.add(key)
        for k in range(len(remaining) - 1):
            i, j = remaining[k], remaining[k + 1]
            if cancels(factors[i], factors[j]):
                rec(remaining[:k] + remaining[k + 2:], links | {(i, j)})

    rec(tuple(range(len(factors))), frozenset())
    return results


def naive_contract(words, diagram) -> np.ndarray:
    """Contract word tensors along the diagram by brute-force index
    enumeration: one summed variable per link, one free variable per
    survivor."""
    factors = []
    axis_of = {}  # global factor id -> (word index, axis)
    for w_idx, w in enumerate(words):
        for ax in range(len(w.type)):
            axis_of[len(factors)] = (w_idx, ax)
            factors.append(w.type[ax])
    dims = [words[w].array.shape[ax] for w, ax in (axis_of[k] for k in range(len(factors)))]

    link_of = {}
    for l_idx, (i, j) in enumerate(diagram.links):
        assert dims[i] == dims[j]
        link_of[i] = l_idx
        link_of[j] = l_idx
    surv_of = {k: s_idx for s_idx, k in enumerate(diagram.survivors)}

    out_shape = tuple(dims[k] for k in diagram.survivors)
    out = np.zeros(out_shape if out_shape else (1,))
    link_dims = [dims[i] for i, _ in diagram.links]

    for free in itertools.product(*(range(d) for d in out_shape)):
        total = 0.0
        for bound in itertools.product(*(range(d) for d in link_dims)):
            value = {}
            for k in range(len(factors)):
                value[k] = bound[link_of[k]] if k in link_of else free[surv_of[k]]
            prod = 1.0
            for w_idx, w in enumerate(words):
                idx = tuple(
                    value[k] for k in range(len(factors)) if axis_of[k][0] == w_idx
                )
                prod *= float(w.array[idx])
            total += prod
        if out_shape:
            out[free] = total
        else:
            out[0] = total
    return out if out_shape else out.reshape(())


def random_simple(rng: np.random.Generator, bases=("n", "s", "theta", "rho")) -> SimpleType:
    return SimpleType(str(rng.choice(bases)), int(rng.integers(-2, 3)))


def random_type_sequence(
    rng: np.random.Generator, max_factors: int = 10
) -> list[PregroupType]:
    """A random word split of a random factor sequence."""
    n = int(rng.integers(1, max_factors + 1))
    factors = [random_simple(rng) for _ in range(n)]
    return _split_words(rng, factors)


def inverse_reduce_sequence(
    rng: np.random.Generator, target: list[SimpleType], max_factors: int = 10
) -> list[PregroupType]:
    """Grow a sequence that reduces to the target by inserting
    cancellable pairs at random positions."""
    factors = list(target)
    while len(factors) + 2 <= max_factors and rng.random() < 0.8:
        base = str(rng.choice(["n", "s", "theta", "rho"]))
        z = int(rng.integers(-2, 2))
        pos = int(rng.integers(0, len(factors) + 1))
        factors[pos:pos] = [SimpleType(base, z), SimpleType(base, z + 1)]
    return _split_words(rng, factors)


def _split_words(rng: np.random.Generator, factors: list[SimpleType]) -> list[PregroupType]:
    words: list[PregroupType] = []
    k = 0
    while k < len(factors):
        step = int(rng.integers(1, min(4, len(factors) - k) + 1))
        words.append(PregroupType(tuple(factors[k:k + step])))
        k += step
    return words


# Readings of each role sequence, written out independently of the
# library's table: (pattern, per-span target factors, wiring), with the
# readings of one role sequence in the order they are listed.
_ORACLE_READINGS = {
    ("theme", "rheme"): [("single-rheme", (["theta"], ["rho"]), "merge")],
    ("rheme", "theme"): [("single-rheme", (["rho"], ["theta"]), "merge")],
    ("rheme", "theme", "rheme"): [
        ("double-rheme", (["rho"], ["theta", "theta"], ["rho"]), "two-merges")
    ],
    ("theme", "rheme", "theme"): [
        ("split-theme", (["theta"], ["rho"], ["theta"]), "chained-merge"),
        ("relational-rheme", (["theta"], ["rho", "rho"], ["theta"]), "two-merges"),
    ],
}


def _wire(kind: str, values: list[np.ndarray]) -> np.ndarray:
    """Contract span values with explicit spider tensors (merges)."""
    d = values[0].shape[0]
    m3 = spider(2, 1, d)
    if kind == "merge":  # mu(a (x) b)
        a, b = values
        return np.tensordot(np.tensordot(m3, a, axes=(0, 0)), b, axes=(0, 0))
    if kind == "chained-merge":  # mu(mu(a (x) b) (x) c)
        a, b, c = values
        ab = np.tensordot(np.tensordot(m3, a, axes=(0, 0)), b, axes=(0, 0))
        return np.tensordot(np.tensordot(m3, ab, axes=(0, 0)), c, axes=(0, 0))
    # one merge per vector / matrix-wire pair
    a, m, b = values
    left = np.tensordot(np.tensordot(m3, a, axes=(0, 0)), m, axes=(0, 0))
    return np.tensordot(left, np.tensordot(m3, b, axes=(1, 0)), axes=(1, 0))


def brute_force_analyses(sentence, lexicon) -> list[dict]:
    """Every derivation of an annotated sentence, in canonical order:
    readings in table order, then sense choices in product order, then
    each span's reductions by ascending link list.  Each derivation is a
    dict with ``pattern``, per-span ``types`` (sense type strings) and
    ``diagrams`` (1-based JSON), and the ``meaning``."""
    roles = tuple(span.role for span in sentence.spans)
    out = []
    typed = {}
    for pattern, targets, wiring in _ORACLE_READINGS.get(roles, []):
        per_span = []
        for k, (span, target) in enumerate(zip(sentence.spans, targets)):
            key = (k, tuple(target))
            if key not in typed:
                options = []
                senses = [lexicon[w].senses for w in span.tokens]
                for combo in itertools.product(*senses):
                    factors = [f for s in combo for f in s.type]
                    want = [SimpleType(b) for b in target]
                    for links, survivors in sorted(brute_force_reductions(factors, want)):
                        diagram = ReductionDiagram(links, survivors, len(factors))
                        options.append((
                            [str(s.type) for s in combo],
                            {"links": [[i + 1, j + 1] for i, j in links],
                             "survivors": [s + 1 for s in survivors]},
                            naive_contract(combo, diagram),
                        ))
                typed[key] = options
            per_span.append(typed[key])
        for choice in itertools.product(*per_span):
            out.append({
                "pattern": pattern,
                "types": [t for t, _, _ in choice],
                "diagrams": [j for _, j, _ in choice],
                "meaning": _wire(wiring, [v for _, _, v in choice]),
            })
    return out


def stable_json_reference(obj) -> str:
    """The CLI's deterministic JSON writer as it was first written: a
    recursive ``isinstance`` chain with ``json.dumps`` for every string."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return format(float(obj), ".17g")
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(k)}: {stable_json_reference(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, list):
        return "[" + ", ".join(stable_json_reference(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")
