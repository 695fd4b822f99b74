"""The per-n worker pool and the per-n steps of the CLI commands.

:func:`map_n` spreads one task per n over the CPUs for ``compute``
(:func:`compute_artifacts_for_n`), ``tables`` (:func:`table_entry`) and
``verify`` (``verify._check_n``).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Sequence, TypeVar

from .framework import boundary_framework, framework_json, self_conjugate_axis
from .partitions import enumerate_partitions, format_partition
from .thickness import (
    ThicknessProfile,
    profile_csv,
    profile_from_json,
    profile_json,
    thickness_profile,
)
from .transfer_graph import build_graph
from .zones import decompose, zone_json


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

    With one worker, one n, or no ``os.fork``, every task runs in this
    process, in the order of ``ns``. Otherwise this process forks the
    other workers and is one of them. A task pipe holds the index of each
    n, largest n first, so the costliest is not left to one worker at the
    end; each process reads the next index whenever it is free. Each child
    sends every result it made as one pickle down a result pipe of its
    own, once it takes no further task, and this process reads the pipes
    to their ends, one after another, once its own tasks are done: a
    child waiting for room in its pipe holds up no task. The results come
    back in the order of ``ns`` either way. A task's exception is raised
    here as it was raised (an ``OSError`` keeps its file name): at once
    from a task of this process, else once every child has ended, that of
    the earliest n in ``ns``. A child that dies (killed, or exiting
    without its results) raises :class:`WorkerDied` instead of leaving the
    pool waiting for it; a child whose parent dies starts no further task;
    and on any exception here, Ctrl-C included, every child is killed and
    reaped.
    """
    workers = min(workers, len(ns))
    if workers <= 1 or not hasattr(os, "fork"):
        return [task(n, *args) for n in ns]
    # imported here, so a run in one process loads no pool module
    import pickle

    # one record of four bytes per index; a write of at most PIPE_BUF bytes
    # is never split, so records are always whole in the pipe
    order = sorted(range(len(ns)), key=ns.__getitem__, reverse=True)
    tasks = b"".join(i.to_bytes(4, "little") for i in order)
    task_r, task_w = os.pipe()
    piece = os.fpathconf(task_w, "PC_PIPE_BUF") // 4 * 4
    open_fds = {task_r, task_w}
    parent = os.getpid()
    # (pid, read end of its result pipe) of each child
    children: list[tuple[int, int]] = []

    def close(fd: int) -> None:
        open_fds.discard(fd)
        os.close(fd)

    try:
        # only this process writes tasks, and never waits for room: what
        # does not fit now is written as readers make room
        os.set_blocking(task_w, False)
        end = len(tasks)
        sent = _send(task_w, tasks, 0, end, piece)
        for _ in range(workers - 1):
            result_r, result_w = os.pipe()
            open_fds.update((result_r, result_w))
            pid = os.fork()
            if pid == 0:
                for fd in open_fds - {task_r, result_w}:
                    os.close(fd)
                _child(task, ns, args, task_r, result_w, parent)
            # closed before the next fork, so only this child holds its write end
            close(result_w)
            children.append((pid, result_r))
        here = {}
        while True:
            sent = _send(task_w, tasks, sent, end, piece)
            if sent < end:
                # the pipe is full, and may be emptied before this process
                # reads it: take the last unsent task instead
                end -= 4
                record = tasks[end : end + 4]
            else:
                if task_w in open_fds:
                    close(task_w)
                record = os.read(task_r, 4)
                if not record:
                    break
            i = int.from_bytes(record, "little")
            here[i] = task(ns[i], *args)
        errors = {}
        while children:
            pid, result_r = children[-1]
            sent_back = bytearray()
            while chunk := os.read(result_r, 1 << 16):
                sent_back += chunk
            close(result_r)
            # the child has closed its end of its result pipe, so it has
            # ended or is ending; off the list first, so it is not reaped twice
            children.pop()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code:
                how = f"killed by signal {-code}" if code < 0 else f"exited with code {code}"
                raise WorkerDied(f"a worker process died: pid {pid} {how}")
            results, failed = pickle.loads(sent_back)
            here.update(results)
            errors.update(failed)
        if errors:
            raise errors[min(errors)]
        return [here[i] for i in range(len(ns))]
    except BaseException:
        import signal

        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        for pid, _ in children:
            os.waitpid(pid, 0)
        raise
    finally:
        for fd in list(open_fds):
            close(fd)


def _send(fd: int, tasks: bytes, sent: int, end: int, piece: int) -> int:
    """Write ``tasks[sent:end]`` to ``fd`` as far as the pipe has room; the new ``sent``.

    Each write is at most ``piece`` bytes, so it is written whole or not
    at all.
    """
    while sent < end:
        try:
            sent += os.write(fd, tasks[sent : min(sent + piece, end)])
        except BlockingIOError:
            break
    return sent


def _child(
    task: Callable[..., object],
    ns: Sequence[int],
    args: tuple,
    task_r: int,
    result_w: int,
    parent: int,
) -> None:
    """A forked worker: run tasks until the task pipe ends, send the results, exit.

    The results go down ``result_w``, the child's own pipe, as one pickle
    of ``(results by index, exception by index)``; no other process
    writes to it, so they need no framing. A task exception ends the loop.
    The process ends with ``os._exit``, so no handler or buffer of the
    parent's runs twice; anything unexpected, Ctrl-C included, ends it
    with code 1.
    """
    import pickle

    code = 1
    try:
        results = {}
        failed = {}
        while True:
            if os.getppid() != parent:
                # the command is gone: start no further task
                os._exit(1)
            record = os.read(task_r, 4)
            if not record:
                break
            i = int.from_bytes(record, "little")
            try:
                results[i] = task(ns[i], *args)
            except Exception as exc:
                failed[i] = exc
                break
        with open(result_w, "wb") as out:
            pickle.dump((results, failed), out)
        code = 0
    finally:
        os._exit(code)


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
    # each order is made, written and dropped before the next, from tau_max down
    for r in range(profile.tau_max, 0, -1):
        (target / f"zones_r{r}.json").write_text(zone_json(decompose(framework, profile, r)))


def table_entry(
    n: int, out_root: Path, no_recompute: bool
) -> tuple[ThicknessProfile, list[str]] | str:
    """The profile of ``n`` and the names of its maximal locus, for the ``tables`` command.

    The profile is read from n's ``profile.json`` under ``out_root`` when
    that file exists, and must be exactly what ``compute`` writes for n;
    otherwise it is computed, unless ``no_recompute``. A file that cannot
    be used is not raised but returned, as the text of the usage error,
    so the command can name the smallest bad n whatever the worker
    layout. No graph is built, and n is enumerated once: the profile and
    the locus names share the cached tuple.
    """
    path = n_dir(out_root, n) / "profile.json"
    if path.exists():
        try:
            profile = profile_from_json(path.read_text())
            if profile.n != n:
                raise ValueError(f"it holds the profile for n={profile.n}")
        except (OSError, ValueError) as exc:
            return f"malformed artifact {path}: {exc}"
    elif no_recompute:
        return f"missing artifact {path}; run compute first or drop --no-recompute"
    else:
        profile = thickness_profile(n)
    parts = enumerate_partitions(n)
    return profile, [format_partition(parts[i]) for i in profile.max_locus]
