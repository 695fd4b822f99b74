"""Integer partitions: canonical enumeration, conjugation, text format.

A partition is its parts tuple, positive and weakly decreasing, as in
``(4, 2, 1)``; text names it as ``"4,2,1"``. Every layer takes a vertex
of the transfer graph in this form or as its canonical index.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence


def _conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Reflect the Ferrers diagram: part j of the result counts parts >= j."""
    out = []
    count = len(parts)
    for j in range(1, parts[0] + 1):
        while parts[count - 1] < j:
            count -= 1
        out.append(count)
    return tuple(out)


@lru_cache(maxsize=1)
def enumerate_partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """Parts tuples of every partition of ``n``, in reverse-lexicographic order.

    The one enumeration of the package. The first entry is ``(n,)`` and
    the last ``(1,) * n``; the position of a partition in the returned
    tuple is its canonical vertex index. Only the latest n is kept, as for
    :func:`canonical_index` and :func:`partition_names`: every caller works
    through one n at a time, in order, and a graph holds its own reference
    to its vertices.
    """
    if n < 1:
        # for n < 1 the loop below never reaches (1^n) and grows without bound
        raise ValueError(f"n must be a positive integer, got {n}")
    out = []
    cur = [n]
    while True:
        out.append(tuple(cur))
        i = len(cur) - 1
        while i >= 0 and cur[i] == 1:
            i -= 1
        if i < 0:
            return tuple(out)
        cur[i] -= 1
        rem = len(cur) - i  # freed units: the trailing ones plus the decrement
        del cur[i + 1 :]
        # refill greedily: as many copies of cur[i] as fit, then the remainder
        q, r = divmod(rem, cur[i])
        cur += [cur[i]] * q
        if r:
            cur.append(r)


@lru_cache(maxsize=1)
def canonical_index(n: int) -> dict[tuple[int, ...], int]:
    """Parts tuple -> position in the canonical enumeration. Do not mutate.

    Only the latest n is kept. Its values are the int objects that graph
    rows and zone sets share, so each vertex index is allocated once.
    """
    parts = enumerate_partitions(n)
    return dict(zip(parts, range(len(parts))))


@lru_cache(maxsize=1)
def partition_names(n: int) -> tuple[str, ...]:
    """:func:`format_partition` of every partition of ``n``, in canonical order.

    Only the latest table is kept: callers write one n at a time, and
    keeping every table for n=1..30 costs about 2 MB.
    """
    text = _part_text(n)
    return tuple([",".join(map(text, parts)) for parts in enumerate_partitions(n)])


def _part_text(n: int) -> Callable[[int], str]:
    """``str`` of each part 0..n, read from a table built once instead of formatted per part."""
    return [str(k) for k in range(n + 1)].__getitem__


def _json_list(items: Sequence[str], depth: int) -> str:
    """JSON list of already encoded ``items``, nested ``depth`` levels deep.

    Laid out byte for byte as ``json.dumps(..., indent=2)`` lays it out, for
    the artifact writers that build their JSON text directly.
    """
    if not items:
        return "[]"
    pad = "  " * depth
    inner = f",\n{pad}  ".join(items)
    return f"[\n{pad}  {inner}\n{pad}]"


def format_partition(parts: tuple[int, ...]) -> str:
    """Render a parts tuple as comma-separated parts with no spaces, e.g. ``"4,2,1"``."""
    return ",".join(map(str, parts))


def parse_partition(text: str) -> tuple[int, ...]:
    """Parse the ``"4,2,1"`` form into its parts tuple.

    Each token must be a positive integer written without sign, spaces or
    leading zeros, and the parts must be weakly decreasing: anything not
    already canonical is an error, never silently re-sorted, so
    caller-side ordering bugs stay visible.
    """
    parts = []
    for token in text.strip().split(","):
        if not token.isdigit() or str(int(token)) != token or int(token) < 1:
            raise ValueError(f"invalid partition part {token!r} in {text!r}")
        parts.append(int(token))
    for a, b in zip(parts, parts[1:]):
        if a < b:
            raise ValueError(f"parts not weakly decreasing at token {b!r} in {text!r}")
    return tuple(parts)


def partition_count(n: int) -> int:
    """Number of partitions of ``n``, by the pentagonal-number recurrence.

    Shares no code with :func:`enumerate_partitions`; used as an
    independent cross-check on the enumeration.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    counts = [1]
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 == 1 else -1
            total += sign * counts[m - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= m:
                total += sign * counts[m - g2]
            k += 1
        counts.append(total)
    return counts[n]
