"""Pregroup type algebra and the chart parser over word-type alternatives.

A pregroup type is a sequence of simple types.  Each simple type is an
atomic base name together with an integer adjoint order ``z``: negative
values are iterated left adjoints (rendered ``.l``), positive values are
iterated right adjoints (rendered ``.r``), zero is the plain base.

Grammaticality of a sequence of types is witnessed by a reduction: a
planar set of links, each link cancelling a pair of simple types under
the rule base(i) == base(j) and z(j) == z(i) + 1 for i < j, such that
the unlinked survivors spell out the target type.  Contractions alone
suffice to decide reducibility to a plain target, so the parser never
needs to introduce expansions.

Parsing is an interval chart over the word-sense lattice (after Preller,
"Linear processing with pregroups", and Moroz, "Parsing pregroup
grammars in polynomial time"): each word contributes one path per
candidate type, and a chart cell records whether the factors between two
gaps of the lattice can cancel to the unit.  A sequence reduces to a
plain target t exactly when the sequence followed by t.r cancels to the
unit, so one kind of cell serves both.  Filling the chart is cubic in
the number of lattice factors; reductions are then enumerated from the
filled cells, at a cost that grows with the output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class TypeSyntaxError(ValueError):
    """Malformed type text.  ``offset`` is the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class SimpleType:
    """An atomic base with an integer adjoint order.

    >>> n = SimpleType("n")
    >>> print(n.r)
    n.r
    >>> print(n.l.l)
    n.l.l
    >>> n.r.l == n
    True
    """

    base: str
    z: int = 0

    @property
    def l(self) -> "SimpleType":
        return SimpleType(self.base, self.z - 1)

    @property
    def r(self) -> "SimpleType":
        return SimpleType(self.base, self.z + 1)

    def __str__(self) -> str:
        suffix = ".l" * -self.z if self.z < 0 else ".r" * self.z
        return self.base + suffix


def cancels(left: SimpleType, right: SimpleType) -> bool:
    """True when ``left . right`` contracts to the unit (p.p.r or p.l.p)."""
    return left.base == right.base and right.z == left.z + 1


@dataclass(frozen=True)
class PregroupType:
    """A juxtaposition of simple types; the empty tuple is the unit.

    >>> s = parse_type("n.r s n.l")
    >>> print(s.r)
    n s.r n.r.r
    >>> print(atom("n") @ atom("s"))
    n s
    >>> len(parse_type(""))
    0
    """

    factors: tuple[SimpleType, ...] = ()

    def __post_init__(self):
        if not all(isinstance(f, SimpleType) for f in self.factors):
            raise TypeError("factors must be SimpleType instances")

    def __len__(self) -> int:
        return len(self.factors)

    def __iter__(self) -> Iterator[SimpleType]:
        return iter(self.factors)

    def __getitem__(self, i):
        got = self.factors[i]
        return PregroupType(got) if isinstance(i, slice) else got

    def __matmul__(self, other: "PregroupType") -> "PregroupType":
        return PregroupType(self.factors + other.factors)

    @property
    def l(self) -> "PregroupType":
        # The adjoint of a product reverses the order of the factors.
        return PregroupType(tuple(f.l for f in reversed(self.factors)))

    @property
    def r(self) -> "PregroupType":
        return PregroupType(tuple(f.r for f in reversed(self.factors)))

    def __str__(self) -> str:
        return " ".join(str(f) for f in self.factors)


def atom(name: str, z: int = 0) -> PregroupType:
    """A single-factor type."""
    return PregroupType((SimpleType(name, z),))


def parse_type(text: str) -> PregroupType:
    """Parse whitespace-separated factors like ``"n.r s n.l"``.

    Factor syntax is a base name (identifier) followed by any number of
    ``.l`` / ``.r`` suffixes.  The empty string is the unit type.

    >>> parse_type("n.r s n.l") == atom("n").r @ atom("s") @ atom("n").l
    True
    >>> parse_type("n$s")
    Traceback (most recent call last):
        ...
    intonsem.pregroup.TypeSyntaxError: unexpected character '$' (byte offset 1)
    """
    factors: list[SimpleType] = []
    i, n = 0, len(text)

    def offset(pos: int) -> int:
        return len(text[:pos].encode("utf-8"))

    while i < n:
        if text[i].isspace():
            i += 1
            continue
        start = i
        if not (text[i].isalpha() or text[i] == "_"):
            raise TypeSyntaxError(f"unexpected character {text[i]!r}", offset(i))
        while i < n and (text[i].isalnum() or text[i] == "_"):
            i += 1
        base = text[start:i]
        z = 0
        while i < n and text[i] == ".":
            if i + 1 >= n or text[i + 1] not in ("l", "r"):
                raise TypeSyntaxError("expected 'l' or 'r' after '.'", offset(i + 1))
            z += -1 if text[i + 1] == "l" else 1
            i += 2
            if i < n and (text[i].isalnum() or text[i] == "_"):
                raise TypeSyntaxError(
                    f"unexpected character {text[i]!r} after adjoint suffix", offset(i)
                )
        factors.append(SimpleType(base, z))
    return PregroupType(tuple(factors))


@dataclass(frozen=True)
class ReductionDiagram:
    """A planar reduction witness over ``size`` flattened simple types.

    ``links`` are 0-based index pairs (i, j) with i < j; ``survivors`` are
    the unlinked 0-based indices in ascending order.  Together they
    partition range(size).  The JSON form (:meth:`to_json`) is 1-based.
    """

    links: tuple[tuple[int, int], ...]
    survivors: tuple[int, ...]
    size: int

    def __post_init__(self):
        seen = sorted([k for ij in self.links for k in ij] + list(self.survivors))
        if seen != list(range(self.size)):
            raise ValueError("links and survivors must partition range(size)")
        if any(i >= j for i, j in self.links):
            raise ValueError("links must be (i, j) pairs with i < j")

    def is_planar(self) -> bool:
        """No two links (i, j), (k, l) interleave as i < k < j < l."""
        for a, (i, j) in enumerate(self.links):
            for k, l in self.links[a + 1:]:
                if i < k < j < l or k < i < l < j:
                    return False
        return True

    def replay(self, factors: Sequence[SimpleType]) -> list[SimpleType]:
        """Apply the links as adjacent cancellations; return the survivors.

        Raises ValueError when some link never becomes an adjacent
        cancellable pair, i.e. the diagram is not a sound reduction of
        ``factors``.
        """
        if len(factors) != self.size:
            raise ValueError("diagram size does not match the factor sequence")
        remaining = list(range(self.size))
        pending = set(self.links)
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

    def to_json(self) -> dict:
        """1-based wire form: {"links": [[i, j], ...], "survivors": [k, ...]}."""
        return {
            "links": [[i + 1, j + 1] for i, j in self.links],
            "survivors": [k + 1 for k in self.survivors],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ReductionDiagram":
        """Read the wire form; raises ValueError for a crossing diagram."""
        links = tuple(sorted((i - 1, j - 1) for i, j in obj["links"]))
        survivors = tuple(sorted(k - 1 for k in obj["survivors"]))
        diagram = cls(links, survivors, 2 * len(links) + len(survivors))
        if not diagram.is_planar():
            raise ValueError(f"links {obj['links']} cross: a reduction diagram is planar")
        return diagram


def flatten(types: Sequence[PregroupType]) -> list[SimpleType]:
    """Concatenate the factors of a sequence of types."""
    return [f for t in types for f in t]


class _Chart:
    """The cancellation chart of a word-sense lattice.

    Gaps are numbered left to right: gap 0 precedes the first word and
    ``end`` follows the last.  Each factor of each sense is an edge from
    one gap to the next, and an empty sense is a single edge with no
    factor, so a path from gap 0 to ``end`` picks one sense per word.

    ``unit[a]`` is the bit set of gaps b such that some path from a to
    b cancels to the unit: its first factor links to a cancelling
    partner, the factors between them cancel, and so does the rest.
    ``partners[e]`` lists the edges that edge e can link to over a
    cancelling inside.  Filling the chart takes O(n^3) steps for n
    factors.
    """

    def __init__(self, alternatives: Sequence[Sequence[PregroupType]]):
        self.sizes = [[len(t.factors) for t in senses] for senses in alternatives]
        self.bounds = [0]
        self.out: list[list[int]] = [[]]
        # per edge: (source gap, word, sense, position in the sense, factor)
        self.edges: list[tuple[int, int, int, int, SimpleType | None]] = []
        self.dst: list[int] = []
        self.key: list[tuple[str, int] | None] = []
        # (base, z) -> bit set of the gaps that edges with that factor leave
        self.starts: dict[tuple[str, int], int] = {}
        out, edges, dst, key, starts = self.out, self.edges, self.dst, self.key, self.starts
        for w, senses in enumerate(alternatives):
            b, finals = len(out) - 1, []
            for s, t in enumerate(senses):
                g = b
                for f, x in enumerate(t.factors or (None,)):
                    if f:
                        g = len(out)
                        dst.append(g)
                        out.append([])
                    out[g].append(len(edges))
                    edges.append((g, w, s, f, x))
                    k = None if x is None else (x.base, x.z)
                    key.append(k)
                    if k:
                        starts[k] = starts.get(k, 0) | 1 << g
                finals.append(len(dst))
                dst.append(-1)  # the next boundary, known once the word is laid out
            self.bounds.append(len(out))
            for e in finals:
                dst[e] = len(out)
            out.append([])
        self.end = self.bounds[-1]
        self.unit = [0] * (self.end + 1)
        # fill gives each factor edge a list of its own
        self.partners: list[list[int]] = [[]] * len(edges)
        self.fill(range(self.end, -1, -1))

    def fill(self, gaps: Iterable[int]) -> None:
        """(Re)compute the unit cells of ``gaps``, given in descending order."""
        out, dst, key, unit = self.out, self.dst, self.key, self.unit
        for a in gaps:
            reach = 1 << a
            for e in out[a]:
                t = dst[e]
                if key[e] is None:
                    reach |= unit[t]
                    continue
                want = (key[e][0], key[e][1] + 1)
                found = []
                ends = unit[t] & self.starts.get(want, 0)
                while ends:  # each gap where a cancelling inside can end
                    low = ends & -ends
                    ends ^= low
                    for e2 in out[low.bit_length() - 1]:
                        if key[e2] == want:
                            found.append(e2)
                self.partners[e] = found
                for e2 in found:
                    reach |= unit[dst[e2]]
            unit[a] = reach

    def walk(self, a: int, b: int) -> Iterator[tuple]:
        """Every path from gap a to gap b that cancels to the unit, as a
        tuple of links (edge pairs) and empty-sense edges.  Only cells
        that lead to a reduction are entered."""
        if a == b:
            yield ()
            return
        dst, unit = self.dst, self.unit
        for e in self.out[a]:
            t = dst[e]
            if self.key[e] is None:
                if unit[t] >> b & 1:
                    for rest in self.walk(t, b):
                        yield (e,) + rest
                continue
            for e2 in self.partners[e]:
                if unit[dst[e2]] >> b & 1:
                    for inside in self.walk(t, self.edges[e2][0]):
                        for rest in self.walk(dst[e2], b):
                            yield ((e, e2),) + inside + rest

    def diagram(self, items: tuple) -> tuple[tuple[int, ...], ReductionDiagram]:
        """The sense choice and flat diagram of one unit path whose last
        word is a target's right adjoint: links into that word mark the
        survivors."""
        edges, last = self.edges, len(self.bounds) - 2
        senses = [0] * last
        links, survivors = [], []
        for item in items:
            if isinstance(item, int):  # an empty sense, or the unit target
                if edges[item][1] < last:
                    senses[edges[item][1]] = edges[item][2]
                continue
            i, j = item
            senses[edges[i][1]] = edges[i][2]
            if edges[j][1] == last:
                survivors.append(i)
            else:
                senses[edges[j][1]] = edges[j][2]
                links.append(item)
        offset = [0]
        for w, s in enumerate(senses):
            offset.append(offset[-1] + self.sizes[w][s])

        def flat(e: int) -> int:
            return offset[edges[e][1]] + edges[e][3]

        pairs = sorted((flat(i), flat(j)) for i, j in links)
        survived = tuple(sorted(map(flat, survivors)))
        return tuple(senses), ReductionDiagram(tuple(pairs), survived, offset[-1])


def _check(words: Sequence, target: PregroupType) -> None:
    if len(words) == 0:
        raise ValueError("need at least one type to reduce")
    if any(f.z != 0 for f in target):
        raise ValueError("target must consist of plain factors")


def chart_reductions(
    alternatives: Sequence[Sequence[PregroupType]], target: PregroupType
) -> list[tuple[tuple[int, ...], ReductionDiagram]]:
    """Every (sense choice, reduction) taking the words to ``target``.

    ``alternatives[w]`` lists the candidate types of word w; a sense
    choice holds one index into each list, and the diagram is over the
    flattened factors of the chosen types.  The result is in canonical
    order: sense choices in ``itertools.product`` order, then diagrams
    by their ascending link lists.  The enumeration only walks chart
    cells that lead to a reduction, so its cost grows with the output.
    Span typing (``intonation._derivations``), ``intonsem reduce`` in
    both input modes, and :func:`reduce` all enumerate through here.

    >>> n, s = atom("n"), atom("s")
    >>> [(c, d.to_json()) for c, d in chart_reductions([[n, s], [n.r @ s]], s)]
    [((0, 0), {'links': [[1, 2]], 'survivors': [3]})]
    """
    _check(alternatives, target)
    # The word factors linked into the appended t.r are the survivors.
    chart = _Chart([*alternatives, [target.r]])
    if not chart.unit[0] >> chart.end & 1:
        return []
    found = [chart.diagram(items) for items in chart.walk(0, chart.end)]
    return sorted(found, key=lambda r: (r[0], r[1].links))


def closest_residual(alternatives: Sequence[Sequence[PregroupType]]) -> PregroupType:
    """The shortest type that some sense choice of the words contracts to.

    Ties go to the first (sense choice, reduction) in canonical order:
    senses are fixed word by word to the first one that keeps the
    shortest length reachable, and the path is then read left to
    right, linking each factor to its nearest partner that keeps it.
    """
    chart = _Chart(alternatives)
    length = [0] * (chart.end + 1)

    def shortest(gaps: list[int]) -> None:
        for a in gaps:
            best = 0 if a == chart.end else len(length)
            for e in chart.out[a]:
                t = chart.dst[e]
                best = min(best, length[t] + (chart.key[e] is not None),
                           *(length[chart.dst[e2]] for e2 in chart.partners[e]))
            length[a] = best

    shortest(list(range(chart.end, -1, -1)))
    # Fixing word w's sense changes only the cells left of it, which by
    # then lie on the one path through the senses already fixed.
    best, fixed = length[0], []
    for b, nxt in zip(chart.bounds, chart.bounds[1:]):
        for e in list(chart.out[b]):
            chart.out[b] = [e]
            chart.fill([b] + fixed)
            shortest([b] + fixed)
            if length[0] == best:
                break
        inner, g = [], chart.dst[e]
        while g != nxt:
            inner.append(g)
            g = chart.dst[chart.out[g][0]]
        fixed = inner[::-1] + [b] + fixed
    left, g = [], 0
    while g != chart.end:
        (e,) = chart.out[g]
        keep = [chart.dst[e2] for e2 in chart.partners[e] if length[chart.dst[e2]] == length[g]]
        if keep:
            g = keep[0]
            continue
        if chart.key[e] is not None:
            left.append(chart.edges[e][4])
        g = chart.dst[e]
    return PregroupType(tuple(left))


def reduce(
    types: Sequence[PregroupType], target: PregroupType
) -> list[ReductionDiagram]:
    """All reductions of the juxtaposition of ``types`` to ``target``.

    ``types`` must be nonempty and ``target`` must consist of plain
    (adjoint-order zero) factors.  The result is in canonical order:
    diagrams sorted by their ascending link lists.  An empty list means
    the sequence does not reduce to the target.

    >>> n, s = atom("n"), atom("s")
    >>> [d.to_json() for d in reduce([n, n.r @ s @ n.l, n], s)]
    [{'links': [[1, 2], [4, 5]], 'survivors': [3]}]
    """
    return [d for _, d in chart_reductions([[t] for t in types], target)]


def grammatical(types: Sequence[PregroupType], target: PregroupType) -> bool:
    """Whether the juxtaposition of ``types`` reduces to ``target``."""
    _check(types, target)
    chart = _Chart([*([t] for t in types), [target.r]])
    return bool(chart.unit[0] >> chart.end & 1)
