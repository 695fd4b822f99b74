"""Boundary framework families and the self-conjugate axis."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .partitions import (
    Partition,
    _conjugate,
    _partition_tuples,
    canonical_index,
    format_partition,
    partition_names,
)


@dataclass(frozen=True)
class FrameworkSet:
    """The boundary framework of one graph, with its families tagged.

    ``all_indices`` is the deduplicated union of the three families as
    canonical vertex indices; the families keep their path order.
    """

    n: int
    antennas: tuple[Partition, Partition]
    main_chain: tuple[Partition, ...]
    left_edge: tuple[Partition, ...]
    right_edge: tuple[Partition, ...]
    all_indices: frozenset[int]


@dataclass(frozen=True)
class AxisSet:
    """The self-conjugate partitions of one total, in canonical order."""

    n: int
    members: tuple[Partition, ...]


def antennas(n: int) -> tuple[Partition, Partition]:
    """The extreme vertices ``(n)`` and ``(1^n)``; both are ``(1)`` at n=1."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    return (Partition((n,)), Partition((1,) * n))


def main_chain(n: int) -> tuple[Partition, ...]:
    """The hook path from ``(n)`` down to ``(1^n)``."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if n == 1:
        return (Partition((1,)),)
    chain = [Partition((n - k,) + (1,) * k) for k in range(n - 1)]
    chain.append(Partition((1,) * n))
    return tuple(chain)


def left_boundary(n: int) -> tuple[Partition, ...]:
    """Two-part partitions ``(n-k, k)`` for k up to ``n // 2``."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    return tuple(Partition((n - k, k)) for k in range(1, n // 2 + 1))


def right_boundary(n: int) -> tuple[Partition, ...]:
    """Conjugates of the left boundary: ``(2^k, 1^(n-2k))`` for k up to ``n // 2``."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    return tuple(Partition((2,) * k + (1,) * (n - 2 * k)) for k in range(1, n // 2 + 1))


def boundary_framework(n: int) -> FrameworkSet:
    """Union of the main chain and the two boundary edges."""
    ant = antennas(n)
    chain = main_chain(n)
    left = left_boundary(n)
    right = right_boundary(n)
    index = canonical_index(n)
    members = {index[p.parts] for p in chain}
    members.update(index[p.parts] for p in left)
    members.update(index[p.parts] for p in right)
    return FrameworkSet(
        n=n,
        antennas=ant,
        main_chain=chain,
        left_edge=left,
        right_edge=right,
        all_indices=frozenset(members),
    )


def self_conjugate_axis(n: int) -> AxisSet:
    """Fixpoints of conjugation within the partitions of ``n``."""
    # a self-conjugate partition has as many parts as its largest part
    members = tuple(
        Partition(t) for t in _partition_tuples(n) if t[0] == len(t) and _conjugate(t) == t
    )
    return AxisSet(n=n, members=members)


def framework_json(framework: FrameworkSet, axis: AxisSet) -> str:
    """JSON dump of the framework families plus the self-conjugate axis."""
    if framework.n != axis.n:
        raise ValueError("framework and axis must describe the same n")
    names = partition_names(framework.n)
    doc = {
        "n": framework.n,
        "antennas": [format_partition(p) for p in framework.antennas],
        "main_chain": [format_partition(p) for p in framework.main_chain],
        "left_edge": [format_partition(p) for p in framework.left_edge],
        "right_edge": [format_partition(p) for p in framework.right_edge],
        "all_vertices": [names[i] for i in sorted(framework.all_indices)],
        "self_conjugate_axis": [format_partition(p) for p in axis.members],
    }
    return json.dumps(doc, indent=2) + "\n"
