"""Command-line front end.

Subcommands: analyze, ultrametric, cluster, histogram, generate.  All
output is deterministic for a given input and flag set.  Exit codes:
0 success, 1 validation failure, 2 I/O failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .clustering import distance_histogram, estimate_num_clusters, radii_from_valleys
from .data import (
    LatticeConfig,
    _save_table_csv,
    lattice_generate,
    load_matrix_csv,
    load_points_csv,
    pairwise_matrix,
    save_matrix_csv,
    save_points_csv,
)
from .dendrogram import Dendrogram
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
    hist = result.dendrogram.histogram()  # A*'s, from the sweep
    report = {
        "n": a.shape[0],
        "m": result.m,
        "clusterability": result.ultrametricity,
        "ultrametricity": result.ultrametricity,
        "is_ultrametric": result.m == 1,
        "distinct_values_before": distance_histogram(a).values.size,
        "distinct_values_after": hist.values.size,
        "estimated_k": estimate_num_clusters(hist.num_peaks),
        "suggested_radius": _auto_radius(hist),
    }
    if args.format == "json":
        text = json.dumps(report, indent=2) + "\n"
    else:
        lines = [f"{key} = {value}" for key, value in report.items()]
        lines.append("note: clusterability above 5 was observed for clusterable datasets")
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return EXIT_OK


def cmd_ultrametric(args) -> int:
    star = subdominant(_load_matrix(args))
    save_matrix_csv(star, args.output or sys.stdout)
    return EXIT_OK


def cmd_cluster(args) -> int:
    # A*'s dendrogram from one spanning-forest sweep: no min-max product, no n^2 A*
    dendrogram = Dendrogram.from_matrix(_load_matrix(args))
    if args.radius == "auto":
        radius = _auto_radius(dendrogram.histogram())
        if radius is None:
            radius = 0.0  # single distance level: everything merges below it
    else:
        try:
            radius = float(args.radius)
        except ValueError:
            raise ValidationError(f"invalid radius {args.radius!r}") from None
    assignment = dendrogram.cut(radius)
    table = np.column_stack((np.arange(assignment.size), assignment))
    np.savetxt(args.output or sys.stdout, table, fmt="%d", delimiter=",")
    return EXIT_OK


def _histogram_table(hist) -> np.ndarray:
    """(value, count) rows: the distinct values, or the bin midpoints."""
    values = hist.values
    if hist.mode == "binned":
        values = (values[:-1] + values[1:]) / 2.0
    return np.column_stack((values, hist.counts))


def cmd_histogram(args) -> int:
    a = _load_matrix(args)
    fmt = ("%.17g", "%d")
    if args.stage == "trace":  # one histogram per distinct power A, A^2, ..., A* (m stages)
        tables = [_histogram_table(distance_histogram(p, args.mode, args.bins)) for p in power_chain(a)]
        table = np.vstack([np.column_stack((np.full(len(t), k), t)) for k, t in enumerate(tables, 1)])
        fmt = ("%d", *fmt)
    elif args.stage == "stabilized":  # A*'s, from the sweep: no n^2 fill
        table = _histogram_table(Dendrogram.from_matrix(a).histogram(args.mode, args.bins))
    else:
        table = _histogram_table(distance_histogram(a, args.mode, args.bins))
    np.savetxt(args.output or sys.stdout, table, fmt=fmt, delimiter=",")
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
    else:  # no "# dim" header on stdout
        _save_table_csv(points, sys.stdout)
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
    p.add_argument("--spacing", type=float, default=1.0,
                   help="distance between neighbouring points of a cluster")
    p.add_argument("--gap", type=float, default=3.0,
                   help="distance added between adjacent clusters (nearest points: spacing + gap)")
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
