"""Command-line front door for the partition-atlas pipeline."""

from __future__ import annotations

import sys
from pathlib import Path

import click

from . import REFERENCE_RANGE_MAX

# each command imports the layers it runs in its own body, so a command
# loads only those, and reads each function off its home module per call


def _resolve_range(n_min: int, n_max: int, allow_beyond: bool) -> tuple[int, int]:
    """The range to process, capped at the verified range unless allowed past it."""
    if n_min < 1 or n_max < n_min:
        raise click.UsageError(f"invalid range {n_min}..{n_max}")
    # only the top of a range is capped; one that starts past the cap is refused
    _check_single_n(n_min, allow_beyond)
    if n_max > REFERENCE_RANGE_MAX:
        if allow_beyond:
            click.echo(
                f"note: n > {REFERENCE_RANGE_MAX} is beyond the verified range; "
                "results there are extrapolation",
                err=True,
            )
        else:
            click.echo(
                f"warning: capping n at {REFERENCE_RANGE_MAX} (the verified range); "
                "pass --allow-beyond-verified-range to go further",
                err=True,
            )
            n_max = REFERENCE_RANGE_MAX
    return n_min, n_max


def _check_single_n(n: int, allow_beyond: bool) -> None:
    if n < 1:
        raise click.UsageError(f"invalid n {n}")
    if n > REFERENCE_RANGE_MAX and not allow_beyond:
        raise click.UsageError(
            f"n={n} is beyond the verified range; pass --allow-beyond-verified-range"
        )


_allow_beyond = click.option(
    "--allow-beyond-verified-range",
    "allow_beyond",
    is_flag=True,
    help=f"Permit n above {REFERENCE_RANGE_MAX}; such results are extrapolation.",
)
_n_min = click.option(
    "--n-min", default=1, show_default=True, type=int, help="Smallest n to process."
)
_n_max = click.option(
    "--n-max", default=30, show_default=True, type=int, help="Largest n to process."
)


def _range_options(command):
    return _allow_beyond(_n_max(_n_min(command)))


@click.group()
def main() -> None:
    """Exact thickness atlases of the unit-transfer graph on partitions."""


@main.command()
@_range_options
@click.option(
    "--out",
    "out_dir",
    default="artifacts",
    show_default=True,
    type=click.Path(file_okay=False, path_type=Path),
    help="Output directory; one subdirectory per n.",
)
@click.option(
    "--jobs",
    default=1,
    show_default=True,
    type=int,
    help="Worker processes; 0 means one per CPU this process may run on.",
)
def compute(n_min: int, n_max: int, allow_beyond: bool, out_dir: Path, jobs: int) -> None:
    """Compute graphs, profiles and zone decompositions for a range of n."""
    from .pipeline import WorkerDied, compute_artifacts_for_n, cpu_count, map_n

    n_min, n_max = _resolve_range(n_min, n_max, allow_beyond)
    if jobs < 0:
        raise click.UsageError(f"invalid worker count {jobs}")
    ns = range(n_min, n_max + 1)
    # each n writes only its own directory, so the worker layout changes no byte
    try:
        map_n(compute_artifacts_for_n, ns, jobs or cpu_count(), out_dir)
    except WorkerDied as exc:
        raise click.ClickException(str(exc)) from None
    click.echo(f"computed {len(ns)} graphs into {out_dir}")


@main.command()
@_allow_beyond
@_n_max
@click.option(
    "--out",
    "out_dir",
    default="artifacts",
    show_default=True,
    type=click.Path(file_okay=False, path_type=Path),
    help="Directory holding per-n artifacts; tables are written here too.",
)
@click.option(
    "--no-recompute",
    is_flag=True,
    help="Fail instead of computing profiles missing from the output directory.",
)
def tables(n_max: int, allow_beyond: bool, out_dir: Path, no_recompute: bool) -> None:
    """Write the first-occurrence, per-n summary and max-locus tables for 1..n-max."""
    from .atlas import export_tables
    from .pipeline import n_dir
    from .partitions import _partition_tuples
    from .thickness import _corner_profile, profile_from_json

    _, n_max = _resolve_range(1, n_max, allow_beyond)
    profiles = []
    locus_names = []
    for n in range(1, n_max + 1):
        path = n_dir(out_dir, n) / "profile.json"
        if path.exists():
            try:
                profile = profile_from_json(path.read_text())
                if profile.n != n:
                    raise ValueError(f"it holds the profile for n={profile.n}")
            except (OSError, ValueError) as exc:
                raise click.UsageError(f"malformed artifact {path}: {exc}") from None
            profiles.append(profile)
        elif no_recompute:
            raise click.UsageError(
                f"missing artifact {path}; run compute first or drop --no-recompute"
            )
        else:
            # the profile reads only the vertices, so no graph is built
            profiles.append(_corner_profile(n, _partition_tuples(n)))
        # this n's partitions are cached now, so naming its locus enumerates nothing
        parts = _partition_tuples(n)
        locus_names.append([",".join(map(str, parts[i])) for i in profiles[-1].max_locus])
    written = export_tables(profiles, locus_names, out_dir)
    for name in sorted(written):
        click.echo(f"wrote {written[name]}")


@main.command("atlas")
@click.option("--n", "n", required=True, type=int, help="Which graph to draw.")
@click.option(
    "--mode",
    type=click.Choice(["thickness", "zones"]),
    default="thickness",
    show_default=True,
)
@click.option(
    "--out",
    "out_dir",
    default="artifacts",
    show_default=True,
    type=click.Path(file_okay=False, path_type=Path),
)
@_allow_beyond
def atlas_cmd(n: int, mode: str, out_dir: Path, allow_beyond: bool) -> None:
    """Render one atlas figure as SVG, maximal locus outlined."""
    from .atlas import atlas_chunks
    from .thickness import thickness_profile
    from .transfer_graph import build_graph

    _check_single_n(n, allow_beyond)
    graph = build_graph(n)
    profile = thickness_profile(graph)
    # raises before any file is opened, so a rejected drawing leaves none
    chunks = atlas_chunks(graph, profile, mode)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"atlas_n{n}_{mode}.svg"
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(chunks)
    click.echo(f"wrote {path}")


@main.command()
@_range_options
def verify(n_min: int, n_max: int, allow_beyond: bool) -> None:
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
        raise click.ClickException(str(exc)) from None
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        suffix = f": {res.detail}" if res.detail else ""
        click.echo(f"[{status}] {res.name}{suffix}")
        # stderr, so stdout stays the verdicts alone
        click.echo(f"{res.seconds:6.2f} s  {res.name}", err=True)
    passed = sum(1 for r in results if r.ok)
    click.echo(f"{passed}/{len(results)} checks passed")
    if passed != len(results):
        sys.exit(1)


@main.command("graph-dump")
@click.option("--n", "n", required=True, type=int, help="Which graph to dump.")
@click.option(
    "--out",
    "out_path",
    default=None,
    type=click.Path(dir_okay=False, path_type=Path),
    help="Output file; stdout when omitted.",
)
@_allow_beyond
def graph_dump(n: int, out_path: Path | None, allow_beyond: bool) -> None:
    """Write the edge list of one graph as tab-separated partition pairs."""
    from .transfer_graph import build_graph

    _check_single_n(n, allow_beyond)
    chunks = build_graph(n).edge_chunks()
    if out_path is None:
        sys.stdout.writelines(chunks)
    else:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        with open(out_path, "w", encoding="utf-8") as f:
            f.writelines(chunks)
        click.echo(f"wrote {out_path}")


if __name__ == "__main__":
    main()
