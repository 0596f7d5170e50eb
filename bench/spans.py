"""Spans and counters recorded around the calls into each layer.

``Tracer.install`` replaces the public functions of the ``cantorforge``
modules by wrappers that record a span (name, start, end, parent) per
call, and counters next to them.  A function is replaced under every
module name it is bound to, since modules call each other through their
own imports: ``cli`` holds its own ``build_nested_rep`` and
``und_certificate``, ``applications`` its own ``find_chain`` and
``check_dominance``, and ``_find_selection`` reaches ``d_min`` and
``kappa_ratios`` through the ``nested_rd`` globals.  ``uninstall`` puts
the originals back.  Nothing under ``src/`` changes.

Spans stay in memory; ``layer_metrics`` folds them into the per-layer
figures and ``dump`` writes them out.  A span's self time is its
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter

from cantorforge import (
    applications,
    cantor1d,
    cli,
    containment1d,
    containment_rd,
    dyadic,
    nested_rd,
)
import cantorforge
from metrics import LAYER_METRICS, PIPELINES, RUN_METRICS

MODULES = (cantorforge, cantor1d, containment1d, nested_rd, containment_rd, applications, dyadic, cli)

class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self.not_shrinking: list[list] = []  # rep.not_shrinking of every rep built
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def timed(self, name, fn, after=None):
        """Wrap fn in a span; ``after(args, result)`` runs once it returns."""
        name_id = self._ids.setdefault(name, len(self._ids))
        if name_id == len(self.names):
            self.names.append(name)
        counts, opened = self.counts, self._open
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(opened[-1] if opened else -1)
            ends.append(0.0)
            opened.append(idx)
            starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = time.perf_counter()
                opened.pop()
            counts[calls] += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, name, fn, after=None):
        """Wrap fn with a call counter and no span, for calls too small to time."""
        counts = self.counts
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[calls] += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _replace(self, original, wrapper):
        """Bind wrapper wherever a module binds original."""
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _replace_attr(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- install ----------------------------------------------------------

    def install(self):
        counts = self.counts
        geometry, component = nested_rd.ProductGeometry, nested_rd.Component

        def add_cells(args, result):
            counts["nested_rd.cells"] += len(result)

        self._replace_attr(geometry, "refine_cells",
                           self.timed("nested_rd.refine_cells", geometry.refine_cells, add_cells))
        self._replace_attr(geometry, "cell_image_box",
                           self.timed("nested_rd.cell_image_box", geometry.cell_image_box))

        traced_children = self.timed("nested_rd.children", component.children)

        def children(comp):
            fresh = comp._children is None
            result = traced_children(comp)
            if fresh:
                counts["nested_rd.components"] += len(result)
            return result

        self._replace_attr(component, "children", children)

        def add_pairs(args, result):
            a, b = args[:2]
            counts["nested_rd.cell_pairs"] += len(a.cells) * len(b.cells)

        def add_selection(args, cert):
            stack = [cert.root]
            while stack:
                node = stack.pop()
                counts["nested_rd.cert_components"] += len(node.components)
                counts["nested_rd.selected_pairs"] += len(node.dmins)
                stack.extend(node.children)

        def add_bytes(args, text):
            counts["cantor1d.canonical_json.bytes"] += len(text.encode("utf-8"))

        wrappers = [
            (nested_rd.build_nested_rep, self.counted(
                "nested_rd.build_nested_rep", nested_rd.build_nested_rep,
                lambda args, rep: self.not_shrinking.append(rep.not_shrinking))),
            (nested_rd.und_certificate, self.counted(
                "nested_rd.und_certificate", nested_rd.und_certificate, add_selection)),
            (nested_rd.d_min, self.counted("nested_rd.d_min", nested_rd.d_min)),
            (cantor1d.canonical_json, self.timed(
                "cantor1d.canonical_json", cantor1d.canonical_json, add_bytes)),
            (nested_rd.kappa_ratios, self.timed(
                "nested_rd.kappa_ratios", nested_rd.kappa_ratios, add_pairs)),
        ]
        for name, fn in [
            ("nested_rd.verify_certificate", nested_rd.verify_certificate),
            ("nested_rd.rotation_search", nested_rd.rotation_search),
            ("containment_rd.find_chain_rd", containment_rd.find_chain_rd),
            ("containment1d.find_chain", containment1d.find_chain),
            ("containment1d.check_dominance", containment1d.check_dominance),
            ("cantor1d.affine_image", cantor1d.affine_image),
            ("dyadic.root_bounds", dyadic.root_bounds),
            ("dyadic.iroot_floor", dyadic.iroot_floor),
            ("applications.verify_H_interior", applications.verify_H_interior),
            ("applications.erdos_obstruction", applications.erdos_obstruction),
            ("cli.run_scenario", cli.run_scenario),
        ]:
            wrappers.append((fn, self.timed(name, fn)))
        for original, wrapper in wrappers:
            self._replace(original, wrapper)
        for pipeline in PIPELINES:
            handler = cli._HANDLERS[pipeline]
            self._patches.append((cli._HANDLERS, pipeline, handler))
            cli._HANDLERS[pipeline] = self.timed(f"cli.scenario.{pipeline}", handler)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of the pass, all but the RUN_METRICS."""
        n = len(self.starts)
        child_time = [0.0] * n
        total: Counter = Counter()
        own: Counter = Counter()
        for i in range(n):
            duration = self.ends[i] - self.starts[i]
            parent = self.parents[i]
            if parent >= 0:
                child_time[parent] += duration
        for i in range(n):
            name = self.names[self.name_ids[i]]
            duration = self.ends[i] - self.starts[i]
            total[name] += duration
            own[name] += duration - child_time[i]
        c = self.counts
        out: dict[str, float] = {}
        for name, _ in LAYER_METRICS:
            if name.endswith(".self_s"):
                out[name] = own[name[: -len(".self_s")]]
            elif name.endswith(".s"):
                out[name] = total[name[: -len(".s")]]
            else:
                out[name] = c[name]
        out["nested_rd.not_shrinking"] = sum(len(paths) for paths in self.not_shrinking)
        out["nested_rd.component_yield"] = _ratio(c["nested_rd.cert_components"], c["nested_rd.components"])
        out["nested_rd.selection_yield"] = _ratio(c["nested_rd.selected_pairs"], c["nested_rd.d_min.calls"])
        for name in RUN_METRICS:
            del out[name]
        return out

    def dump(self, path, **header):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    **header,
                    "names": self.names,
                    "spans": [
                        [self.name_ids[i], self.starts[i], self.ends[i], self.parents[i]]
                        for i in range(len(self.starts))
                    ],
                },
                fh,
                separators=(",", ":"),
            )


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
