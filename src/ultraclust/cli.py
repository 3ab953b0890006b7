"""Command-line front end.

Subcommands: analyze, ultrametric, cluster, histogram, generate.  All
output is deterministic for a given input and flag set.  Exit codes:
0 success, 1 validation failure, 2 I/O failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .clustering import distance_histogram, estimate_num_clusters, radii_from_valleys, spheric_clustering
from .data import (
    LatticeConfig,
    lattice_generate,
    load_matrix_csv,
    load_points_csv,
    pairwise_matrix,
    save_matrix_csv,
    save_points_csv,
)
from .errors import ValidationError
from .semiring import power_chain, stabilize
from .ultrametric import subdominant

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors remapped from exit code 2 to 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@dataclass
class AnalysisReport:
    n: int
    m: int
    clusterability: float
    ultrametricity: float
    is_ultrametric: bool
    distinct_values_before: int
    distinct_values_after: int
    estimated_k: int | None
    suggested_radius: float | None


def _load_matrix(args) -> np.ndarray:
    if args.kind == "matrix":
        return load_matrix_csv(args.input)
    points = load_points_csv(args.input)
    return pairwise_matrix(points, metric=args.metric)


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _auto_radius(hist) -> float | None:
    radii, shortfall = radii_from_valleys(hist, 1)
    return radii[0] if radii else None


def cmd_analyze(args) -> int:
    a = _load_matrix(args)
    result = stabilize(a)
    hist = distance_histogram(result.star, mode="distinct")
    report = AnalysisReport(
        n=a.shape[0],
        m=result.m,
        clusterability=result.ultrametricity,
        ultrametricity=result.ultrametricity,
        is_ultrametric=result.m == 1,
        distinct_values_before=distance_histogram(a).values.size,
        distinct_values_after=hist.values.size,
        estimated_k=estimate_num_clusters(hist.num_peaks),
        suggested_radius=_auto_radius(hist),
    )
    if args.format == "json":
        text = json.dumps(asdict(report), indent=2) + "\n"
    else:
        lines = [f"{key} = {value}" for key, value in asdict(report).items()]
        lines.append("note: clusterability above 5 was observed for clusterable datasets")
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return EXIT_OK


def cmd_ultrametric(args) -> int:
    star = subdominant(_load_matrix(args))
    save_matrix_csv(star, args.output or sys.stdout)
    return EXIT_OK


def cmd_cluster(args) -> int:
    a = subdominant(_load_matrix(args))
    if args.radius == "auto":
        radius = _auto_radius(distance_histogram(a))
        if radius is None:
            radius = 0.0  # single distance level: everything merges below it
    else:
        try:
            radius = float(args.radius)
        except ValueError:
            raise ValidationError(f"invalid radius {args.radius!r}") from None
    clustering = spheric_clustering(a, radius)
    rows = [f"{i},{int(c)}" for i, c in enumerate(clustering.assignment)]
    _emit("\n".join(rows) + "\n", args.output)
    return EXIT_OK


def _histogram_rows(a: np.ndarray, mode: str, bins: int | None, stage: str | None):
    hist = distance_histogram(a, mode=mode, bins=bins)
    if hist.mode == "distinct":
        pairs = zip(hist.values, hist.counts)
    else:
        mids = (hist.values[:-1] + hist.values[1:]) / 2.0
        pairs = zip(mids, hist.counts)
    prefix = f"{stage}," if stage is not None else ""
    return [f"{prefix}{value:.17g},{count}" for value, count in pairs]


def cmd_histogram(args) -> int:
    a = _load_matrix(args)
    if args.stage == "raw":
        rows = _histogram_rows(a, args.mode, args.bins, None)
    elif args.stage == "stabilized":
        rows = _histogram_rows(subdominant(a), args.mode, args.bins, None)
    else:  # trace: one histogram per distinct power A, A^2, ..., A* (m stages)
        rows = []
        for stage, p in enumerate(power_chain(a), 1):
            rows.extend(_histogram_rows(p, args.mode, args.bins, str(stage)))
    _emit("\n".join(rows) + "\n", args.output)
    return EXIT_OK


def _parse_pair(text: str, flag: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ValidationError(f"{flag} expects RxC, got {text!r}")
    try:
        r, c = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValidationError(f"{flag} expects integers, got {text!r}") from None
    return r, c


def cmd_generate(args) -> int:
    grid_rows, grid_cols = _parse_pair(args.grid, "--grid")
    cluster_rows, cluster_cols = _parse_pair(args.cluster, "--cluster")
    config = LatticeConfig(
        grid_rows=grid_rows,
        grid_cols=grid_cols,
        cluster_rows=cluster_rows,
        cluster_cols=cluster_cols,
        spacing=args.spacing,
        gap=args.gap,
    )
    points = lattice_generate(config)
    if args.output:
        save_points_csv(points, args.output)
    else:
        _emit("\n".join(",".join(f"{v:.17g}" for v in p) for p in points) + "\n", None)
    return EXIT_OK


def _add_input_flags(p):
    p.add_argument("--input", required=True, help="input CSV path")
    p.add_argument("--kind", choices=["matrix", "points"], default="matrix")
    p.add_argument("--metric", choices=["manhattan", "euclidean"], default="manhattan")
    p.add_argument("--output", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ultraclust", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="stabilization indices and histogram heuristics")
    _add_input_flags(p)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("ultrametric", help="write the subdominant ultrametric matrix")
    _add_input_flags(p)
    p.set_defaults(func=cmd_ultrametric)

    p = sub.add_parser("cluster", help="spheric clustering at a radius")
    _add_input_flags(p)
    p.add_argument("--radius", default="auto", help="radius value or 'auto'")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("histogram", help="distance histograms, optionally per power")
    _add_input_flags(p)
    p.add_argument("--mode", choices=["distinct", "binned"], default="distinct")
    p.add_argument("--bins", type=int, default=None)
    p.add_argument("--stage", choices=["raw", "stabilized", "trace"], default="raw")
    p.set_defaults(func=cmd_histogram)

    p = sub.add_parser("generate", help="deterministic lattice point sets")
    p.add_argument("--grid", required=True, help="cluster arrangement, RxC")
    p.add_argument("--cluster", required=True, help="points per cluster, AxB")
    p.add_argument("--spacing", type=float, default=1.0)
    p.add_argument("--gap", type=float, default=3.0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
