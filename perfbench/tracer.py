"""Span tracing of ultraclust's public functions, from outside the package.

``patched(tracer)`` replaces each traced function at every place its name is
bound.  ``from .semiring import minmax_product`` copies the function object
into the importing module, so patching only the defining module would miss
the calls made from ``ultrametric``, ``cli`` and the package root.  Every
binding is restored on exit.

A span is ``[name, start, end, parent, note]``; ``parent`` indexes the span
that was open when this one began (-1 for a root).  Spans live in memory and
are written out once, at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import sys
import time

# layer -> public functions wrapped in that layer's module
TRACED = {
    "semiring": ["minmax_product", "stabilize", "validate_dissimilarity"],
    "ultrametric": ["is_ultrametric", "minimax_oracle"],
    "clustering": ["spheric_clustering", "distance_histogram", "radii_from_valleys"],
    "data": [
        "lattice_generate",
        "load_matrix_csv",
        "load_points_csv",
        "pairwise_matrix",
        "save_matrix_csv",
        "save_points_csv",
    ],
    "cli": ["main"],
}
LAYERS = list(TRACED)
CLI_COMMANDS = ["analyze", "ultrametric", "cluster", "histogram", "generate"]


def _note_product(args, kwargs, result):
    a, b = args[0], args[1]
    rows, k = len(a), len(b)
    cols = result.shape[1]
    return {
        "ops": 2 * rows * k * cols,
        # float64 operands, result and the (rows, k, cols) broadcast temporary
        "bytes": 8 * (rows * k + k * cols + rows * cols + rows * k * cols),
    }


def _note_stabilize(args, kwargs, result):
    return {"m": result.m}


def _note_file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


_NOTES = {
    "semiring.minmax_product": _note_product,
    "semiring.stabilize": _note_stabilize,
    "data.load_matrix_csv": _note_file_bytes,
}


class Tracer:
    """In-memory span recorder; one instance per benchmark run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        note = _NOTES.get(name)
        cli_main = name == "cli.main"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = f"cli.{args[0][0]}" if cli_main else name
            idx = len(self.spans)
            span = [label, time.perf_counter(), None, self._stack[-1] if self._stack else -1, None]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        return wrapper


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Route every binding of the traced functions through ``tracer``."""
    modules = [
        mod for key, mod in list(sys.modules.items())
        if mod is not None and (key == "ultraclust" or key.startswith("ultraclust."))
    ]
    saved = []
    try:
        for layer, names in TRACED.items():
            home = sys.modules[f"ultraclust.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = tracer.wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            saved.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
        yield tracer
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)


def _self_times(spans: list[list]) -> list[float]:
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans: list[list], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced region that took ``wall_s`` seconds.

    ``spans`` must hold only that region's spans, with parents indexed
    within the list.  Function totals (``.s``, ``.calls``) sum every span of
    the name; ``self_s`` subtracts the time covered by direct children.
    """
    own = _self_times(spans)
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for layer, names in TRACED.items():
        out[f"{layer}.self_s"] = 0.0
        for fname in names:
            if fname != "main":
                out[f"{layer}.{fname}.calls"] = 0
                out[f"{layer}.{fname}.s"] = 0.0
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.s"] = 0.0
    for key in ("semiring.stabilize.self_s", "clustering.spheric_clustering.self_s"):
        out[key] = 0.0
    for key in ("semiring.minmax_product.ops", "semiring.minmax_product.bytes", "data.load_matrix_csv.bytes"):
        out[key] = 0

    in_stabilize = [False] * len(spans)
    stab_products = 0
    stab_log2m = 0
    for i, (name, start, end, parent, note) in enumerate(spans):
        dur = end - start
        layer = name.split(".", 1)[0]
        add(f"{layer}.self_s", own[i])
        add(f"{name}.s", dur)
        if layer != "cli":
            add(f"{name}.calls", 1)
        if name in ("semiring.stabilize", "clustering.spheric_clustering"):
            add(f"{name}.self_s", own[i])
        in_stabilize[i] = name == "semiring.stabilize" or (parent >= 0 and in_stabilize[parent])
        if note:
            for k, v in note.items():
                if k != "m":
                    add(f"{name}.{k}", v)
        if name == "semiring.minmax_product" and in_stabilize[i]:
            stab_products += 1
        if name == "semiring.stabilize" and note:
            stab_log2m += max(1, math.ceil(math.log2(note["m"])))
    out["semiring.stabilize.products_per_log2m"] = stab_products / stab_log2m if stab_log2m else 0.0
    roots = sum(s[2] - s[1] for s in spans if s[3] < 0)
    out["trace.unattributed_s"] = wall_s - roots
    out["trace.layer_self_share"] = sum(out[f"{layer}.self_s"] for layer in LAYERS) / wall_s
    return out
