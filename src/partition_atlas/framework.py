"""Boundary framework families and the self-conjugate axis."""

from __future__ import annotations

import json
from typing import NamedTuple

from .partitions import _conjugate, canonical_index, partition_names


class FrameworkSet(NamedTuple):
    """The boundary framework of one graph, with its families tagged.

    Every field holds canonical vertex indices. The families keep their
    path order, and ``all_indices`` is the deduplicated union of the main
    chain and the two boundary edges.
    """

    n: int
    antennas: tuple[int, int]
    main_chain: tuple[int, ...]
    left_edge: tuple[int, ...]
    right_edge: tuple[int, ...]
    all_indices: frozenset[int]


def antennas(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The parts of the extreme vertices ``(n)`` and ``(1^n)``; both are ``(1)`` at n=1."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    return ((n,), (1,) * n)


def main_chain(n: int) -> tuple[tuple[int, ...], ...]:
    """The parts of the hook path from ``(n)`` down to ``(1^n)``."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if n == 1:
        return ((1,),)
    return tuple((n - k,) + (1,) * k for k in range(n - 1)) + ((1,) * n,)


def left_boundary(n: int) -> tuple[tuple[int, ...], ...]:
    """The parts of the two-part partitions ``(n-k, k)`` for k up to ``n // 2``."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    return tuple((n - k, k) for k in range(1, n // 2 + 1))


def right_boundary(n: int) -> tuple[tuple[int, ...], ...]:
    """Conjugates of the left boundary: ``(2^k, 1^(n-2k))`` for k up to ``n // 2``."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    return tuple((2,) * k + (1,) * (n - 2 * k) for k in range(1, n // 2 + 1))


def boundary_framework(n: int) -> FrameworkSet:
    """Union of the main chain and the two boundary edges.

    The framework lies below order 3: every member has thickness at most
    2. By the corner formula (``thickness._corner_thickness``), tau
    is the number of runs of equal parts plus the best gain over the runs,
    where a run of value v and length m, followed by the value w (0 after
    the last run), gains [v > 1 and w != v - 1] - [m = 1]. A gain is at
    most 1, and it is at most 0 when m = 1, when v = 1, or when w = v - 1.
    The members take these shapes:

    - (a) and (a, a), and (2^k) and (1^n): one run, so tau <= 1 + 1 = 2.
    - (a, b) with a > b: two runs, each of length 1, so tau <= 2 + 0.
    - hooks (a, 1^k) with a > 1: the run of a has length 1 and the run of
      1s has v = 1, so tau <= 2 + 0.
    - (2^k, 1^m) with k, m >= 1: the run of 2s is followed by w = 1 = v - 1
      and the run of 1s has v = 1, so tau <= 2 + 0.

    So no zone of order 3 or more meets the framework: from order 3 up,
    every component is interior, each shell is empty and each core is
    the whole zone.
    """
    at = canonical_index(n).__getitem__
    chain = tuple(map(at, main_chain(n)))
    left = tuple(map(at, left_boundary(n)))
    right = tuple(map(at, right_boundary(n)))
    return FrameworkSet(
        n=n,
        antennas=tuple(map(at, antennas(n))),
        main_chain=chain,
        left_edge=left,
        right_edge=right,
        all_indices=frozenset(chain + left + right),
    )


def self_conjugate_axis(n: int) -> tuple[int, ...]:
    """Fixpoints of conjugation within the partitions of ``n``, as increasing indices."""
    # a self-conjugate partition has as many parts as its largest part
    return tuple(i for t, i in canonical_index(n).items() if t[0] == len(t) and _conjugate(t) == t)


def framework_json(framework: FrameworkSet, axis: tuple[int, ...]) -> str:
    """JSON dump of the framework families plus the self-conjugate ``axis`` of the same n."""
    names = partition_names(framework.n)
    doc = {
        "n": framework.n,
        "antennas": [names[i] for i in framework.antennas],
        "main_chain": [names[i] for i in framework.main_chain],
        "left_edge": [names[i] for i in framework.left_edge],
        "right_edge": [names[i] for i in framework.right_edge],
        "all_vertices": [names[i] for i in sorted(framework.all_indices)],
        "self_conjugate_axis": [names[i] for i in axis],
    }
    return json.dumps(doc, indent=2) + "\n"
