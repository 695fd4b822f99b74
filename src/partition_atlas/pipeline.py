"""Per-n artifact generation, and the per-n worker pool, shared by the CLI commands."""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Sequence, TypeVar

from .framework import boundary_framework, framework_json, self_conjugate_axis
from .thickness import profile_csv, profile_json, thickness_profile
from .transfer_graph import build_graph
from .zones import zone_json, zone_sweep


T = TypeVar("T")


class WorkerDied(RuntimeError):
    """A worker process ended without returning its task's result."""


def cpu_count() -> int:
    """The CPUs this process may run on: its affinity mask, where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_n(task: Callable[..., T], ns: Sequence[int], workers: int, *args: object) -> list[T]:
    """``[task(n, *args) for n in ns]``, spread over up to ``workers`` processes.

    With one worker or one n, every task runs in this process, in the
    order of ``ns``. Otherwise each n is one task, taken largest n first,
    so the costliest is not left to one worker at the end; this process
    is one of the workers, and runs each task that no other has started.
    The results come back in the order of ``ns`` either way. A worker that
    dies (killed, or exiting without a result) raises :class:`WorkerDied`
    instead of leaving the pool waiting for it, and a worker whose parent
    dies exits too, instead of waiting for a task that never comes.
    """
    if workers <= 1 or len(ns) <= 1:
        return [task(n, *args) for n in ns]
    # imported here, so a run in one process loads no pool module
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork, where the OS has it: the workers start with every module this
    # process has loaded. The executor forks all of them at the first
    # submit, before it starts its own thread, so no thread is forked.
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else None)
    pool = ProcessPoolExecutor(
        min(workers, len(ns)) - 1,
        mp_context=context,
        initializer=_exit_with_parent,
        initargs=(os.getpid(),),
    )
    try:
        futures = {n: pool.submit(task, n, *args) for n in sorted(ns, reverse=True)}
        # a task is cancelled only while no worker has started it
        here = {n: task(n, *args) for n, future in futures.items() if future.cancel()}
        return [here[n] if n in here else futures[n].result() for n in ns]
    except BrokenProcessPool as exc:
        raise WorkerDied(f"a worker process died: {exc}") from None
    finally:
        pool.shutdown(cancel_futures=True)


def _exit_with_parent(parent: int) -> None:
    """Pool initializer: end this worker once ``parent`` is no longer its parent.

    A forked worker holds the write end of its own call queue, so it never
    reads an end of file there; if the command's process dies, the worker
    would wait for its next task for ever. A daemon thread polls the
    parent pid instead, and exits the worker when it changes.
    """
    import threading
    import time

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.25)
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent", daemon=True).start()


def n_dir(out_root: Path, n: int) -> Path:
    return Path(out_root) / f"n{n:02d}"


def compute_artifacts_for_n(n: int, out_root: Path) -> None:
    """Write every per-n artifact with fixed names under ``out_root``.

    Contents are a pure function of ``n``, so re-runs overwrite with
    identical bytes regardless of worker layout.
    """
    graph = build_graph(n)
    profile = thickness_profile(n)
    framework = boundary_framework(n)
    axis = self_conjugate_axis(n)
    target = n_dir(out_root, n)
    target.mkdir(parents=True, exist_ok=True)
    with open(target / "edges.txt", "w", encoding="utf-8") as f:
        f.writelines(graph.edge_chunks())
    (target / "framework.json").write_text(framework_json(framework, axis))
    (target / "profile.csv").write_text(profile_csv(profile))
    (target / "profile.json").write_text(profile_json(profile))
    # each order is written as the sweep makes it, from tau_max down, and
    # dropped once the next is grown from it
    for decomposition in zone_sweep(graph, framework, profile):
        (target / f"zones_r{decomposition.r}.json").write_text(zone_json(decomposition))
