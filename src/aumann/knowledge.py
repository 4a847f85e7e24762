"""Finite knowledge models: events, partitions, and common knowledge.

Worlds are indexed ``0..n-1``; an :class:`Event` is a subset of them stored as
a bit-mask. A :class:`KnowledgeModel` holds one :class:`Partition` per agent.
Agent ``i`` knows event ``E`` at world ``w`` when the cell of ``w`` in
partition ``i`` is contained in ``E``; iterating "everybody knows" to its
fixed point yields common knowledge, which (on a finite world set) is also
characterized by the meet of the agents' partitions. One loop computes the
iteration and needs no bound, since every degree but the last removes a
world; ``mutual_knowledge``, ``mutual_knowledge_chain`` and
``common_knowledge`` read one degree, all degrees, or the last.

The loop is incremental. It keeps each agent's knowledge of the current
degree; when a step removes some worlds, exactly the cells that hold them
drop out of it, so those cells are cleared (one label lookup per removed
world) and the rest is kept. An agent whose cells are no more than the
removed worlds is rescanned instead, as is every agent on the first step. A
chain that loses one world per step, such as the electronic-mail game's,
then costs time linear in its length rather than quadratic.

A partition is stored in two forms that describe the same cells in the same
order: ``labels``, an integer array mapping each world to the number of its
cell, and ``masks``, one bit-mask per cell. Per-cell sums over a measure are
one scatter over the labels (``verdicts._sums``), and knowledge
and agreement events are unions of masks. The cells as :class:`Event` objects
are built only when a caller asks for ``Partition.cells``.

Partitions given by labels are built per stack: :func:`_cell_stack` takes a
``(partitions, worlds)`` label stack, checks every row at once, numbers the
cells across the stack and builds all masks with one scatter into 64-bit
words. :func:`_partitions` builds a ``Partition`` per row from it, and
``Partition.from_labels`` is a stack of one; a search block keeps the
stack, the numbering and the masks as they are, and ``_mutual_degrees``
reads each agent's cell masks and labels from them without a partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import _EXPORTS
from .errors import NotCellUnion, require_worlds

__all__ = _EXPORTS["knowledge"]


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Event:
    """Set of worlds out of ``{0, ..., n-1}``, stored as bit-mask ``mask``."""

    mask: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"world count must be positive, got {self.n}")
        if not 0 <= self.mask < (1 << self.n):
            raise ValueError(f"mask {self.mask:#x} sets bits outside 0..{self.n - 1}")

    @classmethod
    def from_worlds(cls, worlds: Iterable[int], n: int) -> "Event":
        mask = 0
        for w in worlds:
            if not 0 <= w < n:
                raise ValueError(f"world {w} outside 0..{n - 1}")
            mask |= 1 << w
        return cls(mask, n)

    @classmethod
    def empty(cls, n: int) -> "Event":
        return cls(0, n)

    @classmethod
    def full(cls, n: int) -> "Event":
        return cls((1 << n) - 1, n)

    def worlds(self) -> tuple[int, ...]:
        return tuple(_iter_bits(self.mask))

    def _same_space(self, other: "Event") -> None:
        if self.n != other.n:
            raise ValueError(f"events over different world sets ({self.n} vs {other.n})")

    def __iter__(self) -> Iterator[int]:
        return _iter_bits(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __contains__(self, world: int) -> bool:
        return 0 <= world < self.n and self.mask >> world & 1 == 1

    def __and__(self, other: "Event") -> "Event":
        self._same_space(other)
        return Event(self.mask & other.mask, self.n)

    def __or__(self, other: "Event") -> "Event":
        self._same_space(other)
        return Event(self.mask | other.mask, self.n)

    def __sub__(self, other: "Event") -> "Event":
        self._same_space(other)
        return Event(self.mask & ~other.mask, self.n)

    def __invert__(self) -> "Event":
        return Event(self.mask ^ ((1 << self.n) - 1), self.n)

    def __le__(self, other: "Event") -> bool:
        """Subset test."""
        self._same_space(other)
        return self.mask & ~other.mask == 0

    def isdisjoint(self, other: "Event") -> bool:
        self._same_space(other)
        return self.mask & other.mask == 0

    def __repr__(self) -> str:
        return f"Event({{{', '.join(map(str, self.worlds()))}}}, n={self.n})"


def _check_masks(masks: Sequence[int], n: int) -> None:
    """Raise unless the cell masks are non-empty, pairwise disjoint and cover ``0..n-1``."""
    if not masks:
        raise ValueError("a partition needs at least one cell")
    union = 0
    for k, mask in enumerate(masks):
        if mask == 0:
            raise ValueError(f"cell {k} is empty")
        if union & mask:
            raise ValueError(f"cell {k} overlaps an earlier cell")
        union |= mask
    if union != (1 << n) - 1:
        raise ValueError("cells do not cover the world set")


class Partition:
    """Non-empty, pairwise disjoint cells covering the full world set.

    Stored as ``labels``, a read-only integer array giving each world the
    number of its cell, and ``masks``, the cells' bit-masks in cell order.
    The cells as :class:`Event` objects (``cells``) are built on first use.
    """

    def __init__(self, cells: Iterable[Event]) -> None:
        cells = tuple(cells)
        n = cells[0].n if cells else 1
        for k, cell in enumerate(cells):
            if cell.n != n:
                raise ValueError(f"cell {k} lives over a different world set")
        masks = tuple(cell.mask for cell in cells)
        _check_masks(masks, n)
        labels = [0] * n
        for k, mask in enumerate(masks):
            for w in _iter_bits(mask):
                labels[w] = k
        labels = np.array(labels, dtype=np.intp)
        labels.flags.writeable = False
        self.__dict__.update(n=n, labels=labels, masks=masks, cells=cells)

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]], n: int) -> "Partition":
        return cls(Event.from_worlds(b, n) for b in blocks)

    @classmethod
    def from_labels(cls, labels, n: int) -> "Partition":
        """Partition of ``0..n-1`` whose cell ``k`` holds the worlds labelled ``k``.

        ``labels[w]`` is the cell of world ``w``; the labels must number the
        cells ``0..k-1`` with every number used. A stack of one for
        :func:`_partitions`, which raises what a cell list would.
        """
        return _partitions(np.asarray(labels)[None], n)[0]

    @cached_property
    def cells(self) -> tuple[Event, ...]:
        return tuple(Event(mask, self.n) for mask in self.masks)

    def __len__(self) -> int:
        return len(self.masks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.n == other.n and self.masks == other.masks

    def __hash__(self) -> int:
        return hash((self.n, self.masks))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"Partition is immutable; cannot set {name!r}")

    def __reduce__(self):
        return (Partition.from_labels, (self.labels, self.n))

    def __repr__(self) -> str:
        return f"Partition(cells={self.cells!r})"

    def cell_of(self, world: int) -> Event:
        """The unique cell containing ``world``."""
        if not 0 <= world < self.n:
            raise IndexError(f"world {world} outside 0..{self.n - 1}")
        return Event(self.masks[self.labels[world]], self.n)


def _cell_stack(labels, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """Check a ``(partitions, worlds)`` stack of cell labels of ``0..n-1``,
    one partition per row, and number its cells across the stack.

    Every row is checked at once: labels are integers, none is negative, and
    one ``bincount`` over the labels offset by row finds each row's empty
    cells. The first row that fails raises what ``Partition.from_labels``
    raises on it alone. The masks are then one scatter of the worlds' bits
    into 64-bit words, one word per 64 worlds of each cell.

    Returns the labels (a read-only ``intp`` copy), each world's cell
    numbered across the stack, row after row, each row's first cell number
    followed by the cell count, and each cell's bit-mask by that number.
    """
    if n < 1:
        raise ValueError(f"world count must be positive, got {n}")
    raw = np.asarray(labels)
    if raw.ndim != 2 or (raw.size and raw.dtype.kind not in "iu"):
        raise ValueError("cell labels must be a 1-d sequence of integers")
    n_rows, width = raw.shape
    if width > n:
        raise ValueError(f"world {n} outside 0..{n - 1}")
    if n_rows and not width:
        raise ValueError("a partition needs at least one cell")
    if raw.dtype.kind == "u":  # past intp a label would wrap to a negative one; any label past n leaves a cell empty
        raw = np.minimum(raw, n)
    labels = raw.astype(np.intp)
    labels.flags.writeable = False
    if not n_rows:
        return labels, labels, np.zeros(1, dtype=np.intp), []
    low = labels.min(axis=1)
    # label n stands for every label past the worlds: such a row has an empty cell below n
    n_cells = np.clip(labels.max(axis=1) + 1, 1, n + 1)
    bounds = np.concatenate([[0], np.cumsum(n_cells)])
    starts = bounds[:-1]
    cells = starts[:, None] + np.clip(labels, 0, n)  # each world's cell, numbered across the stack
    counts = np.bincount(cells.ravel(), minlength=int(bounds[-1]))
    empty = np.flatnonzero(counts == 0)  # in row order: each row's first empty cell comes first
    has_empty = np.zeros(n_rows, dtype=bool)
    has_empty[np.searchsorted(starts, empty, "right") - 1] = True
    failing = (low < 0) | has_empty | (width < n)
    if failing.any():
        r = int(np.argmax(failing))
        if low[r] < 0:
            raise ValueError(f"cell label {low[r]} is negative")
        if has_empty[r]:
            raise ValueError(f"cell {empty[np.searchsorted(empty, starts[r])] - starts[r]} is empty")
        raise ValueError("cells do not cover the world set")
    n_words = (n + 63) // 64
    worlds = np.arange(n)
    words = np.zeros(int(bounds[-1]) * n_words, dtype=np.uint64)
    np.bitwise_or.at(words, (cells * n_words + worlds // 64).ravel(),
                     np.tile(np.left_shift(np.uint64(1), (worlds % 64).astype(np.uint64)), n_rows))
    if n_words == 1:
        masks = words.tolist()
    else:  # a cell's words, lowest worlds first, joined into one integer
        words = words.reshape(-1, n_words).astype(object)
        masks = words[:, 0]
        for j in range(1, n_words):
            masks = masks | words[:, j] << 64 * j
        masks = masks.tolist()
    return labels, cells, bounds, masks


def _built(n: int, labels: np.ndarray, bounds: np.ndarray, masks: Sequence[int]) -> list[Partition]:
    """The partitions of checked label rows (read-only rows, each row's
    first cell number then the cell count, and the masks), built with no
    second check; each partition's labels are a view of its row."""
    out = []
    for row, start, end in zip(labels, bounds[:-1].tolist(), bounds[1:].tolist()):
        p = Partition.__new__(Partition)
        p.__dict__.update(n=n, labels=row, masks=tuple(masks[start:end]))
        out.append(p)
    return out


def _partitions(labels, n: int) -> list[Partition]:
    """Partitions of ``0..n-1``, one per row of a ``(partitions, worlds)``
    stack of cell labels, as :meth:`Partition.from_labels` builds each: one
    checked :func:`_cell_stack` call, then the partitions with no second check.
    """
    rows, _, bounds, masks = _cell_stack(labels, n)
    return _built(n, rows, bounds, masks)


@dataclass(frozen=True)
class KnowledgeModel:
    """World set ``{0..n_worlds-1}`` with one partition per agent.

    Events are measured against the full power set, so any bit-mask over the
    worlds is a legal event.
    """

    n_worlds: int
    partitions: tuple[Partition, ...]

    def __post_init__(self) -> None:
        partitions = tuple(self.partitions)
        object.__setattr__(self, "partitions", partitions)
        if self.n_worlds < 1:
            raise ValueError("n_worlds must be positive")
        if not partitions:
            raise ValueError("need at least one agent")
        for i, p in enumerate(partitions):
            if p.n != self.n_worlds:
                raise ValueError(f"partition {i} covers {p.n} worlds, model has {self.n_worlds}")

    @classmethod
    def from_blocks(cls, n_worlds: int, blocks_per_agent: Iterable[Iterable[Iterable[int]]]) -> "KnowledgeModel":
        return cls(n_worlds, tuple(Partition.from_blocks(b, n_worlds) for b in blocks_per_agent))

    @property
    def n_agents(self) -> int:
        return len(self.partitions)

    def event(self, worlds: Iterable[int]) -> Event:
        return Event.from_worlds(worlds, self.n_worlds)

    def _check_agent(self, agent: int) -> None:
        if not 0 <= agent < self.n_agents:
            raise IndexError(f"agent {agent} outside 0..{self.n_agents - 1}")

    @cached_property
    def meet(self) -> Partition:
        """Meet of all agents' partitions (cached); see :func:`meet_partition`."""
        return meet_partition(self)


def cell_of(model: KnowledgeModel, agent: int, world: int) -> Event:
    """The cell of agent ``agent``'s partition containing ``world``."""
    model._check_agent(agent)
    return model.partitions[agent].cell_of(world)


def _know_mask(cell_masks: Sequence[int], e_mask: int) -> int:
    out = 0
    for c in cell_masks:
        if c & ~e_mask == 0:
            out |= c
    return out


def know(model: KnowledgeModel, agent: int, e: Event) -> Event:
    """Worlds at which the agent knows ``e``: the union of its cells inside ``e``."""
    model._check_agent(agent)
    require_worlds("event", e.n, "model", model.n_worlds)
    return Event(_know_mask(model.partitions[agent].masks, e.mask), model.n_worlds)


def _cells(model: KnowledgeModel) -> list[tuple[Sequence[int], np.ndarray]]:
    """Each agent's cell masks and each world's cell, as :func:`_mutual_degrees` reads them."""
    return [(p.masks, p.labels) for p in model.partitions]


def _mutual_degrees(agents: Sequence[tuple[Sequence[int], Sequence[int]]], mask: int) -> Iterator[int]:
    """Masks of the mutual-knowledge degrees 1, 2, ... of the event ``mask``,
    for agents given by their cell masks and the cell of each world.

    Each degree intersects every agent's knowledge of the one before. The
    last mask yielded is the first that equals its predecessor: the common
    knowledge of the event.

    Each agent's knowledge is kept from one degree to the next: when a step
    removes the worlds ``removed``, only the cells holding them leave it, so
    those cells are cleared instead of rescanning every cell, unless there
    are at least as many removed worlds as the agent has cells.
    """
    full = (1 << len(agents[0][1])) - 1
    known = [0] * len(agents)  # per agent: union of its cells inside ``mask``
    removed, n_removed = 0, -1  # no earlier degree: scan every cell
    while True:
        nxt = full
        for i, (masks, labels) in enumerate(agents):
            if 0 <= n_removed < len(masks):
                k = known[i]
                for w in _iter_bits(removed):
                    k &= ~masks[labels[w]]
            else:
                k = _know_mask(masks, mask)
            known[i] = k
            nxt &= k
            if not nxt:
                break
        yield nxt
        if nxt == mask:
            return
        if not nxt:  # nobody knows the empty event anywhere: the next degree is empty too
            yield 0
            return
        removed = mask & ~nxt
        n_removed = removed.bit_count()
        mask = nxt


def mutual_knowledge(model: KnowledgeModel, e: Event, m: int) -> Event:
    """Degree-``m`` mutual knowledge of ``e``.

    Degree 0 is ``e`` itself; degree ``m+1`` intersects every agent's
    knowledge of the degree-``m`` set. The sequence is decreasing from degree
    1 on, so iteration stops early once it stabilizes.
    """
    if m < 0:
        raise ValueError("degree m must be nonnegative")
    require_worlds("event", e.n, "model", model.n_worlds)
    cur = e.mask
    for cur in islice(_mutual_degrees(_cells(model), e.mask), m):
        pass
    return Event(cur, model.n_worlds)


def mutual_knowledge_chain(model: KnowledgeModel, e: Event) -> list[Event]:
    """The trace ``[M_1(e), ..., M_k(e)]`` up to the first stabilized degree;
    every degree but the last removes a world, so ``k <= n_worlds + 1``."""
    require_worlds("event", e.n, "model", model.n_worlds)
    return [Event(mask, model.n_worlds) for mask in _mutual_degrees(_cells(model), e.mask)]


def common_knowledge(model: KnowledgeModel, e: Event) -> Event:
    """Common knowledge of ``e``: the stabilized value of the mutual chain.

    On a finite world set the decreasing chain reaches a fixed point within
    ``n_worlds`` iterations, and that fixed point equals the intersection of
    all mutual-knowledge degrees.
    """
    require_worlds("event", e.n, "model", model.n_worlds)
    for mask in _mutual_degrees(_cells(model), e.mask):
        pass
    return Event(mask, model.n_worlds)


def meet_partition(model: KnowledgeModel) -> Partition:
    """Finest partition coarser than every agent's partition.

    Worlds are connected when they share a cell in some agent's partition;
    the meet cells are the connected components (found by union-find).
    """
    n = model.n_worlds
    parent = list(range(n))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for p in model.partitions:
        for mask in p.masks:
            worlds = list(_iter_bits(mask))
            first = find(worlds[0])
            for w in worlds[1:]:
                parent[find(w)] = first

    groups: dict[int, int] = {}
    for w in range(n):
        root = find(w)
        groups[root] = groups.get(root, 0) | (1 << w)
    cells = sorted(groups.values(), key=lambda m: (m & -m))
    return Partition(tuple(Event(m, n) for m in cells))


def common_knowledge_via_meet(model: KnowledgeModel, e: Event) -> Event:
    """Oracle for :func:`common_knowledge`: union of meet cells inside ``e``."""
    require_worlds("event", e.n, "model", model.n_worlds)
    return Event(_know_mask(model.meet.masks, e.mask), model.n_worlds)


def cell_decomposition(model: KnowledgeModel, agent: int, f: Event) -> tuple[Event, ...]:
    """Write ``f`` as a disjoint union of agent ``agent``'s cells.

    Raises :class:`NotCellUnion` when some cell straddles the boundary of
    ``f``. Any non-empty common-knowledge set decomposes this way for every
    agent.
    """
    model._check_agent(agent)
    require_worlds("event", f.n, "model", model.n_worlds)
    partition = model.partitions[agent]
    cells: list[Event] = []
    remaining = f.mask
    while remaining:
        w = (remaining & -remaining).bit_length() - 1
        cell = partition.cell_of(w)
        if cell.mask & ~f.mask:
            raise NotCellUnion(
                f"cell {cell.worlds()} of agent {agent} is not contained in {f.worlds()}"
            )
        cells.append(cell)
        remaining &= ~cell.mask
    return tuple(cells)
