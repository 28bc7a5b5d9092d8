"""Spans around calls into proxkern, recorded from the benchmark's own side.

``Tracer.install`` replaces the public names that each proxkern module looks
up at call time (for example ``proxkern.corrections.nystrom_eig_indefinite``)
with timing wrappers, and ``uninstall`` puts the originals back.  A name that
a later refactor removes is reported in ``absent`` instead of failing.

Spans stay in memory as ``[name, parent, stage, start, end, count]`` with the
index of the enclosing span as parent.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name, count): the count callable maps the call's
# arguments and result to a work count stored on the span.
HOOKS = [
    ("proxkern.corrections", "nystrom_factors", "nystrom.factors", None),
    ("proxkern.nystrom", "RowOracle.row", "nystrom.fetch", lambda args, out: len(out)),
    ("proxkern.corrections", "nystrom_double_center", "nystrom.center", None),
    ("proxkern.corrections", "nystrom_eig_indefinite", "nystrom.eig", None),
    ("proxkern.eigencore", "sym_eig", "eigencore.sym_eig", None),
    ("proxkern.nystrom", "sym_eig", "eigencore.sym_eig", None),
    ("proxkern.corrections", "sym_eig", "eigencore.sym_eig", None),
    ("proxkern.nystrom", "pinv_sym", "eigencore.pinv", None),
    ("proxkern.corrections", "pinv_sym", "eigencore.pinv", None),
    ("proxkern.evaluate", "pinv_sym", "eigencore.pinv", None),
    ("proxkern.corrections", "build_corrected_model", "corrections.build", None),
    ("proxkern.corrections", "save_model", "corrections.save",
     lambda args, out: os.path.getsize(args[1])),
    ("proxkern.corrections", "load_model", "corrections.load", None),
    ("proxkern.oos", "center_dissimilarity_rows", "oos.center_rows", None),
    ("proxkern.oos", "extend_similarities", "oos.extend_block", None),
    ("proxkern.oos", "extend_features", "oos.features", None),
    ("proxkern.evaluate", "fit_corrected_model_from_factors", "evaluate.fold_fit", None),
    ("proxkern.evaluate", "extend_features", "evaluate.features", None),
    ("proxkern.evaluate", "fit_ridge_classifier", "evaluate.ridge", None),
]

LAYERS = ("nystrom", "eigencore", "corrections", "oos", "evaluate", "dataio")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stage = ""
        self.ops: Counter = Counter()  # traced operations per stage
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, parent, self.stage, perf_counter(), 0.0, 0]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record[4] = perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            with self.span(name) as record:
                out = fn(*args, **kwargs)
            if count is not None:
                record[5] = count(args, out)
            return out

        return traced

    def install(self) -> None:
        for module_name, attr, name, count in HOOKS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.absent.add(f"{module_name}.{attr}")
                continue
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(name, original, count))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def self_times(self) -> list[float]:
        out = [end - start for _, _, _, start, end, _ in self.spans]
        for _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def per_op(self) -> dict[str, dict[str, float]]:
        """Self seconds, calls and counts of each span name for one pass.

        A pass is one traced operation of every stage: each stage's totals
        are divided by its traced operation count, then summed over stages.
        """
        totals: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0.0, 0, 0])
        for (name, _, stage, _, _, count), own in zip(self.spans, self.self_times()):
            entry = totals[name, stage]
            entry[0] += own
            entry[1] += 1
            entry[2] += count
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "calls": 0.0, "count": 0.0}
        )
        for (name, stage), (own, calls, count) in totals.items():
            ops = self.ops[stage] or 1
            out[name]["self_s"] += own / ops
            out[name]["calls"] += calls / ops
            out[name]["count"] += count / ops
        return out

    def shares(self) -> dict[str, float]:
        """Each layer's share of the self time of all traced operations."""
        own = Counter()
        for (name, *_), t in zip(self.spans, self.self_times()):
            layer = name.split(".")[0]
            own[layer if layer in LAYERS else "benchmark"] += t
        total = sum(own.values()) or 1.0
        return {layer: own[layer] / total for layer in (*LAYERS, "benchmark")}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, parent, stage, start, end, count in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "parent": parent, "stage": stage,
                         "start": start, "end": end, "count": count}
                    )
                )
                fh.write("\n")
