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

from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence


class TypeSyntaxError(ValueError):
    """Malformed type text.  ``offset`` is the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class SimpleType(NamedTuple):
    """An atomic base with an integer adjoint order: a ``(base, z)`` tuple.

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


class PregroupType(tuple):
    """A juxtaposition of simple types: the immutable tuple of its factors, () the unit.

    >>> s = parse_type("n.r s n.l")
    >>> print(s.r)
    n s.r n.r.r
    >>> print(atom("n") @ atom("s"))
    n s
    >>> len(parse_type(""))
    0
    """

    def __new__(cls, factors: Iterable[SimpleType] = ()):
        self = tuple.__new__(cls, factors)
        if not all([isinstance(f, SimpleType) for f in self]):
            raise TypeError("factors must be SimpleType instances")
        return self

    def __setattr__(self, name, value):  # cached_property writes __dict__ directly
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    # pickle and copy rebuild a type from its factors, leaving the cached adjoints behind
    __reduce__ = lambda self: (PregroupType, (tuple(self),))  # noqa: E731
    __repr__ = lambda self: f"PregroupType(factors={tuple(self)!r})"  # noqa: E731
    factors = property(tuple, doc="The factors as a plain tuple.")

    def __getitem__(self, i):
        got = tuple.__getitem__(self, i)
        return PregroupType(got) if isinstance(i, slice) else got

    def __matmul__(self, other: "PregroupType") -> "PregroupType":
        return PregroupType(tuple.__add__(self, other))

    @cached_property
    def l(self) -> "PregroupType":
        # The adjoint of a product reverses the order of the factors.
        return PregroupType([f.l for f in self][::-1])

    @cached_property
    def r(self) -> "PregroupType":
        return PregroupType([f.r for f in self][::-1])

    def __str__(self) -> str:
        return " ".join([str(f) for f in self])


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
    return PregroupType(factors)


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
        seen = []  # plain loops: no comprehension or generator frame (0.6 µs of 1.1 per check)
        for ij in self.links:
            seen += ij
        seen += self.survivors
        seen.sort()
        if seen != [*range(self.size)]:
            raise ValueError("links and survivors must partition range(size)")
        for i, j in self.links:
            if i >= j:
                raise ValueError("links must be (i, j) pairs with i < j")

    def to_json(self) -> dict:
        """1-based wire form: {"links": [[i, j], ...], "survivors": [k, ...]}."""
        return {
            "links": [[i + 1, j + 1] for i, j in self.links],
            "survivors": [k + 1 for k in self.survivors],
        }


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
    factors; :meth:`reductions` then reads each unit path off it in one
    left-to-right pass from an explicit stack, with no recursion limit.
    """

    def __init__(self, alternatives: Sequence[Sequence[PregroupType]]):
        self.bounds = [0]
        self.out: list[list[int]] = [[]]
        # per edge: (source gap, word, sense, position in the sense); key[e] is its factor
        self.edges: list[tuple[int, int, int, int]] = []
        self.dst: list[int] = []
        self.key: list[SimpleType | None] = []
        # factor -> bit set of the gaps that edges with that factor leave
        self.starts: dict[SimpleType, int] = {}
        out, edges, dst, key, starts = self.out, self.edges, self.dst, self.key, self.starts
        for w, senses in enumerate(alternatives):
            b, finals = len(out) - 1, []
            for s, t in enumerate(senses):
                g, f = b, 0
                for x in t:
                    if f:
                        g = len(out)
                        dst.append(g)
                        out.append([])
                    out[g].append(len(edges))
                    edges.append((g, w, s, f))
                    key.append(x)
                    starts[x] = starts.get(x, 0) | 1 << g
                    f += 1
                if not f:  # the empty sense: one edge with no factor
                    out[b].append(len(edges))
                    edges.append((b, w, s, 0))
                    key.append(None)
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
        out, dst, key, unit, starts = self.out, self.dst, self.key, self.unit, self.starts
        for a in gaps:
            reach = 1 << a
            for e in out[a]:
                k = key[e]
                if k is None:
                    reach |= unit[dst[e]]
                    continue
                want = k[0], k[1] + 1  # a plain tuple equals, and hashes as, the factor
                found = []
                ends = unit[dst[e]] & starts.get(want, 0)
                while ends:  # each gap where a cancelling inside can end
                    low = ends & -ends
                    ends ^= low
                    for e2 in out[low.bit_length() - 1]:
                        if key[e2] == want:
                            found.append(e2)
                            reach |= unit[dst[e2]]
                self.partners[e] = found
            unit[a] = reach

    def reductions(self) -> Iterator[tuple[tuple[int, ...], ReductionDiagram]]:
        """Each unit path from gap 0 to ``end`` as (sense choice, diagram).
        The last word is a target's right adjoint: factors linked into it
        are the survivors.  Only states that lead to a reduction are
        pushed, in reverse, so paths come out in edge-choice order."""
        out, dst, edges, key = self.out, self.dst, self.edges, self.key
        unit, partners = self.unit, self.partners
        last, end = len(self.bounds) - 2, self.end
        # An entry: the gap reached; the pending link ends, a linked list of
        # (left position or None for a survivor, right edge, rest) that the
        # path cancels up to; the senses, flat position, links, survivors.
        stack = [(0, None, (), 0, (), ())]
        while stack:
            g, ends, senses, position, links, survivors = stack.pop()
            while ends is not None and g == edges[ends[1]][0]:
                left, e2, ends = ends
                g = dst[e2]
                if left is not None:
                    links += ((left, position),)
                    position += 1
                    if edges[e2][3] == 0:  # the partner starts its word
                        senses += (edges[e2][2],)
            b = end if ends is None else edges[ends[1]][0]
            if g == b:
                yield senses, ReductionDiagram(tuple(sorted(links)), survivors, position)
                continue
            for e in reversed(out[g]):
                _, w, s, f = edges[e]
                chosen = senses if f or w == last else senses + (s,)
                if key[e] is None:  # an empty sense, or the unit target
                    if unit[dst[e]] >> b & 1:
                        stack.append((dst[e], ends, chosen, position, links, survivors))
                    continue
                for e2 in reversed(partners[e]):
                    if unit[dst[e2]] >> b & 1:
                        survivor = edges[e2][1] == last
                        stack.append((dst[e], (None if survivor else position, e2, ends), chosen,
                                      position + 1, links, survivors + (position,) * survivor))


def _check(words: Sequence, target: PregroupType) -> None:
    if len(words) == 0:
        raise ValueError("need at least one type to reduce")
    if not all(words):
        raise ValueError("every word needs at least one type")
    if any([f.z for f in target]):
        raise ValueError("target must consist of plain factors")


def chart_reductions(
    alternatives: Sequence[Sequence[PregroupType]], target: PregroupType
) -> Iterator[tuple[tuple[int, ...], ReductionDiagram]]:
    """Every (sense choice, reduction) taking the words to ``target``.

    ``alternatives[w]`` lists the candidate types of word w; a sense
    choice holds one index into each list, and the diagram is over the
    flattened factors of the chosen types.  The iterator is in canonical
    order: sense choices in ``itertools.product`` order, then diagrams
    by their ascending link lists.  It is one iterative pass over the
    chart cells that lead to a reduction, which yields each choice's
    diagrams in canonical order: with one type per word, a reduction
    costs its own path alone; with more, a stable sort on the choice
    waits for the whole pass.  Span typing, ``intonsem reduce``,
    :func:`reduce` and :func:`grammatical` all enumerate through here.

    >>> n, s = atom("n"), atom("s")
    >>> [(c, d.to_json()) for c, d in chart_reductions([[n, s], [n.r @ s]], s)]
    [((0, 0), {'links': [[1, 2]], 'survivors': [3]})]
    """
    _check(alternatives, target)
    # The word factors linked into the appended t.r are the survivors.
    found = _Chart([*alternatives, [target.r]]).reductions()
    if max(map(len, alternatives)) == 1:  # one type per word
        return found
    return iter(sorted(found, key=lambda r: r[0]))


def closest_residual(alternatives: Sequence[Sequence[PregroupType]]) -> PregroupType:
    """The shortest type that some sense choice of the words contracts to.

    Ties go to the first (sense choice, reduction) in canonical order:
    senses are fixed word by word to the first one that keeps the
    shortest length reachable, and the path is then read left to
    right, linking each factor to its nearest partner that keeps it.
    """
    if not all(alternatives):
        raise ValueError("every word needs at least one type")
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
            left.append(chart.key[e])
        g = chart.dst[e]
    return PregroupType(left)


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
    return next(chart_reductions([[t] for t in types], target), None) is not None
