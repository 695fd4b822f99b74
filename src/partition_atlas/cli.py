"""Command-line front door for the partition-atlas pipeline."""

from __future__ import annotations

import multiprocessing
import os
import sys
from pathlib import Path

import click

from .atlas import export_tables, render_atlas
from .pipeline import compute_artifacts_for_n, n_dir
from .thickness import max_thickness_locus, profile_from_json, thickness_profile
from .transfer_graph import build_graph
from .verify import REFERENCE_RANGE_MAX, run_checks


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


def _range_options(command):
    command = click.option(
        "--n-min", default=1, show_default=True, type=int, help="Smallest n to process."
    )(command)
    command = click.option(
        "--n-max", default=30, show_default=True, type=int, help="Largest n to process."
    )(command)
    command = click.option(
        "--allow-beyond-verified-range",
        "allow_beyond",
        is_flag=True,
        help=f"Permit n above {REFERENCE_RANGE_MAX}; such results are extrapolation.",
    )(command)
    return command


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
    help="Worker processes; 0 means one per CPU.",
)
def compute(n_min: int, n_max: int, allow_beyond: bool, out_dir: Path, jobs: int) -> None:
    """Compute graphs, profiles and zone decompositions for a range of n."""
    n_min, n_max = _resolve_range(n_min, n_max, allow_beyond)
    if jobs < 0:
        raise click.UsageError(f"invalid worker count {jobs}")
    ns = list(range(n_min, n_max + 1))
    workers = jobs if jobs > 0 else (os.cpu_count() or 1)
    if workers == 1 or len(ns) == 1:
        for n in ns:
            compute_artifacts_for_n(n, out_dir)
    else:
        with multiprocessing.Pool(min(workers, len(ns))) as pool:
            pool.starmap(compute_artifacts_for_n, [(n, out_dir) for n in ns])
    click.echo(f"computed {len(ns)} graphs into {out_dir}")


@main.command()
@_range_options
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
def tables(n_min: int, n_max: int, allow_beyond: bool, out_dir: Path, no_recompute: bool) -> None:
    """Write the first-occurrence, per-n summary and max-locus tables."""
    if n_min != 1:
        raise click.UsageError("tables needs profiles from n=1 upward; use --n-min 1")
    _, n_max = _resolve_range(n_min, n_max, allow_beyond)
    profiles = []
    for n in range(1, n_max + 1):
        path = n_dir(out_dir, n) / "profile.json"
        if path.exists():
            try:
                profile = profile_from_json(path.read_text())
                if profile.n != n:
                    raise ValueError(f"it holds the profile for n={profile.n}")
            except ValueError as exc:
                raise click.UsageError(f"malformed artifact {path}: {exc}") from None
            profiles.append(profile)
        elif no_recompute:
            raise click.UsageError(
                f"missing artifact {path}; run compute first or drop --no-recompute"
            )
        else:
            profiles.append(thickness_profile(build_graph(n)))
    written = export_tables(profiles, out_dir)
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
@click.option(
    "--allow-beyond-verified-range",
    "allow_beyond",
    is_flag=True,
    help=f"Permit n above {REFERENCE_RANGE_MAX}.",
)
def atlas_cmd(n: int, mode: str, out_dir: Path, allow_beyond: bool) -> None:
    """Render one atlas figure as SVG, maximal locus outlined."""
    _check_single_n(n, allow_beyond)
    graph = build_graph(n)
    profile = thickness_profile(graph)
    svg = render_atlas(graph, profile, mode, highlight=max_thickness_locus(graph, profile))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"atlas_n{n}_{mode}.svg"
    path.write_text(svg)
    click.echo(f"wrote {path}")


@main.command()
@_range_options
def verify(n_min: int, n_max: int, allow_beyond: bool) -> None:
    """Run the named invariant and reference-value checks."""
    n_min, n_max = _resolve_range(n_min, n_max, allow_beyond)
    results = run_checks(n_min=n_min, n_max=n_max)
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        suffix = f": {res.detail}" if res.detail else ""
        click.echo(f"[{status}] {res.name}{suffix}")
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
@click.option(
    "--allow-beyond-verified-range",
    "allow_beyond",
    is_flag=True,
    help=f"Permit n above {REFERENCE_RANGE_MAX}.",
)
def graph_dump(n: int, out_path: Path | None, allow_beyond: bool) -> None:
    """Write the edge list of one graph as tab-separated partition pairs."""
    _check_single_n(n, allow_beyond)
    text = build_graph(n).dump_edges()
    if out_path is None:
        click.echo(text, nl=False)
    else:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(text)
        click.echo(f"wrote {out_path}")


if __name__ == "__main__":
    main()
