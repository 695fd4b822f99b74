"""Command-line front door for the partition-atlas pipeline.

The parser is the standard library's ``argparse``. :func:`main` always
ends in ``SystemExit`` with one of three codes:

- 0 on success;
- 1 when a check fails, the run is interrupted, or a worker dies or an
  output cannot be written; the last two print one ``Error: <message>``
  line on stderr;
- 2 on a usage error, which prints a ``usage:`` and an ``error:`` line on
  stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from . import REFERENCE_RANGE_MAX

# each command imports the layers it runs in its own body, so a command
# loads only those, and reads each function off its home module per call


class UsageError(Exception):
    """Arguments the parser accepted but the command cannot run with; exit 2."""


class CommandError(Exception):
    """A command that could not finish; ``Error: <message>`` on stderr, exit 1."""


def _echo(message: str, err: bool = False) -> None:
    # flushed per line, so the two streams keep their order when merged
    print(message, file=sys.stderr if err else sys.stdout, flush=True)


def _resolve_range(n_min: int, n_max: int, allow_beyond: bool) -> tuple[int, int]:
    """The range to process, capped at the verified range unless allowed past it."""
    if n_min < 1 or n_max < n_min:
        raise UsageError(f"invalid range {n_min}..{n_max}")
    # only the top of a range is capped; one that starts past the cap is refused
    _check_single_n(n_min, allow_beyond)
    if n_max > REFERENCE_RANGE_MAX:
        if allow_beyond:
            _echo(
                f"note: n > {REFERENCE_RANGE_MAX} is beyond the verified range; "
                "results there are extrapolation",
                err=True,
            )
        else:
            _echo(
                f"warning: capping n at {REFERENCE_RANGE_MAX} (the verified range); "
                "pass --allow-beyond-verified-range to go further",
                err=True,
            )
            n_max = REFERENCE_RANGE_MAX
    return n_min, n_max


def _check_single_n(n: int, allow_beyond: bool) -> None:
    if n < 1:
        raise UsageError(f"invalid n {n}")
    if n > REFERENCE_RANGE_MAX and not allow_beyond:
        raise UsageError(
            f"n={n} is beyond the verified range; pass --allow-beyond-verified-range"
        )


@contextmanager
def _writing():
    """Turn an ``OSError`` raised while writing output into a one-line error, exit 1.

    A worker's error arrives pickled, and keeps the file name it failed on.
    """
    try:
        yield
    except OSError as exc:
        raise CommandError(f"cannot write {exc.filename}: {exc.strerror}") from None


def _directory(value: str) -> Path:
    if Path(value).is_file():
        raise argparse.ArgumentTypeError(f"{value!r} is a file, not a directory")
    return Path(value)


def _file(value: str) -> Path:
    if Path(value).is_dir():
        raise argparse.ArgumentTypeError(f"{value!r} is a directory, not a file")
    return Path(value)


def _option(*flags: str, **settings) -> tuple:
    """The arguments of one ``add_argument`` call, made when the parser is built."""
    return flags, settings


_allow_beyond = _option(
    "--allow-beyond-verified-range",
    dest="allow_beyond",
    action="store_true",
    help=f"Permit n above {REFERENCE_RANGE_MAX}; such results are extrapolation.",
)
_n_min = _option(
    "--n-min", default=1, type=int, help="Smallest n to process (default: %(default)s)."
)
_n_max = _option(
    "--n-max", default=30, type=int, help="Largest n to process (default: %(default)s)."
)

# name -> (function, options), in the order the help lists them
_COMMANDS: dict = {}


def _command(name: str, *options: tuple):
    def register(function):
        _COMMANDS[name] = (function, options)
        return function

    return register


@_command(
    "compute",
    _n_min,
    _n_max,
    _allow_beyond,
    _option(
        "--out",
        dest="out_dir",
        default="artifacts",
        type=_directory,
        help="Output directory; one subdirectory per n (default: %(default)s).",
    ),
    _option(
        "--jobs",
        default=1,
        type=int,
        help="Worker processes; 0 means one per CPU this process may run on "
        "(default: %(default)s).",
    ),
)
def compute(n_min: int, n_max: int, allow_beyond: bool, out_dir: Path, jobs: int) -> None:
    """Compute graphs, profiles and zone decompositions for a range of n."""
    from .pipeline import WorkerDied, compute_artifacts_for_n, cpu_count, map_n

    n_min, n_max = _resolve_range(n_min, n_max, allow_beyond)
    if jobs < 0:
        raise UsageError(f"invalid worker count {jobs}")
    ns = range(n_min, n_max + 1)
    # each n writes only its own directory, so the worker layout changes no byte
    try:
        with _writing():
            map_n(compute_artifacts_for_n, ns, jobs or cpu_count(), out_dir)
    except WorkerDied as exc:
        raise CommandError(str(exc)) from None
    _echo(f"computed {len(ns)} graphs into {out_dir}")


@_command(
    "tables",
    _allow_beyond,
    _n_max,
    _option(
        "--out",
        dest="out_dir",
        default="artifacts",
        type=_directory,
        help="Directory holding per-n artifacts; tables are written here too "
        "(default: %(default)s).",
    ),
    _option(
        "--no-recompute",
        action="store_true",
        help="Fail instead of computing profiles missing from the output directory.",
    ),
)
def tables(n_max: int, allow_beyond: bool, out_dir: Path, no_recompute: bool) -> None:
    """Write the first-occurrence, per-n summary and max-locus tables for 1..n-max."""
    from .atlas import export_tables
    from .pipeline import n_dir
    from .partitions import enumerate_partitions, format_partition
    from .thickness import profile_from_json, thickness_profile

    _, n_max = _resolve_range(1, n_max, allow_beyond)
    profiles = []
    locus_names = []
    for n in range(1, n_max + 1):
        # enumerated once: the profile and the locus names reuse the cached tuple
        parts = enumerate_partitions(n)
        path = n_dir(out_dir, n) / "profile.json"
        if path.exists():
            try:
                profile = profile_from_json(path.read_text())
                if profile.n != n:
                    raise ValueError(f"it holds the profile for n={profile.n}")
            except (OSError, ValueError) as exc:
                raise UsageError(f"malformed artifact {path}: {exc}") from None
            profiles.append(profile)
        elif no_recompute:
            raise UsageError(
                f"missing artifact {path}; run compute first or drop --no-recompute"
            )
        else:
            profiles.append(thickness_profile(n))
        locus_names.append([format_partition(parts[i]) for i in profiles[-1].max_locus])
    with _writing():
        written = export_tables(profiles, locus_names, out_dir)
    for name in sorted(written):
        _echo(f"wrote {written[name]}")


@_command(
    "atlas",
    _option("--n", required=True, type=int, help="Which graph to draw."),
    _option(
        "--mode",
        default="thickness",
        choices=["thickness", "zones"],
        help="Color by thickness, or by zone (default: %(default)s).",
    ),
    _option(
        "--out",
        dest="out_dir",
        default="artifacts",
        type=_directory,
        help="Output directory (default: %(default)s).",
    ),
    _allow_beyond,
)
def atlas_cmd(n: int, mode: str, out_dir: Path, allow_beyond: bool) -> None:
    """Render one atlas figure as SVG, maximal locus outlined."""
    from .atlas import atlas_chunks
    from .thickness import thickness_profile
    from .transfer_graph import build_graph

    _check_single_n(n, allow_beyond)
    graph = build_graph(n)
    profile = thickness_profile(n)
    # raises before any file is opened, so a rejected drawing leaves none
    chunks = atlas_chunks(graph, profile, mode)
    path = out_dir / f"atlas_n{n}_{mode}.svg"
    with _writing():
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(chunks)
    _echo(f"wrote {path}")


@_command("verify", _n_min, _n_max, _allow_beyond)
def verify(n_min: int, n_max: int, allow_beyond: bool) -> int:
    """Run the named invariant and reference-value checks.

    The range is spread over one worker process per CPU this process may
    run on, one n per task. Verdicts go to stdout, the same for any number
    of workers. The seconds each check spent, summed over n and across
    workers, go to stderr.
    """
    from .pipeline import WorkerDied, cpu_count
    from .verify import run_checks

    n_min, n_max = _resolve_range(n_min, n_max, allow_beyond)
    try:
        results = run_checks(n_min=n_min, n_max=n_max, workers=cpu_count())
    except WorkerDied as exc:
        raise CommandError(str(exc)) from None
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        suffix = f": {res.detail}" if res.detail else ""
        _echo(f"[{status}] {res.name}{suffix}")
        # stderr, so stdout stays the verdicts alone
        _echo(f"{res.seconds:6.2f} s  {res.name}", err=True)
    passed = sum(1 for r in results if r.ok)
    _echo(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


@_command(
    "graph-dump",
    _option("--n", required=True, type=int, help="Which graph to dump."),
    _option(
        "--out",
        dest="out_path",
        default=None,
        type=_file,
        help="Output file; stdout when omitted.",
    ),
    _allow_beyond,
)
def graph_dump(n: int, out_path: Path | None, allow_beyond: bool) -> None:
    """Write the edge list of one graph as tab-separated partition pairs."""
    from .transfer_graph import build_graph

    _check_single_n(n, allow_beyond)
    chunks = build_graph(n).edge_chunks()
    if out_path is None:
        sys.stdout.writelines(chunks)
    else:
        with _writing():
            out_path.parent.mkdir(parents=True, exist_ok=True)
            with open(out_path, "w", encoding="utf-8") as f:
                f.writelines(chunks)
        _echo(f"wrote {out_path}")


def _parser(prog: str | None) -> tuple[argparse.ArgumentParser, dict]:
    """The parser, and each command's own parser by name."""
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Exact thickness atlases of the unit-transfer graph on partitions.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, (function, options) in _COMMANDS.items():
        doc = function.__doc__
        command = commands.add_parser(
            name, help=doc.split("\n", 1)[0], description=doc, allow_abbrev=False
        )
        for flags, settings in options:
            command.add_argument(*flags, **settings)
    return parser, commands.choices


def main(args: list[str] | None = None, prog_name: str | None = None) -> None:
    """Run the command that ``args`` (default ``sys.argv[1:]``) names, then exit."""
    parser, commands = _parser(prog_name)
    options = vars(parser.parse_args(args))
    name = options.pop("command")
    try:
        code = _COMMANDS[name][0](**options)
        sys.stdout.flush()
    except UsageError as exc:
        commands[name].error(str(exc))
    except CommandError as exc:
        _echo(f"Error: {exc}", err=True)
        code = 1
    except KeyboardInterrupt:
        _echo("\nAborted!", err=True)
        code = 1
    except BrokenPipeError:
        # the reader left early, as `| head` does; stdout goes to devnull so
        # that the flush at exit cannot fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code or 0)


if __name__ == "__main__":
    main()
