"""Spans around the package's public functions, installed from outside.

The tracer replaces each listed function in every ``dropfresh`` module that
binds it, so a call is timed wherever the caller looks the name up
(``harness`` calls ``gen_gaussian``, ``reweight`` and others through names
bound in its own module). ``src/`` is not touched; :meth:`Tracer.uninstall`
puts every original back.

Each span is ``(name, start, end, parent)``. Self time is the span's duration
minus the durations of its direct children, accumulated as each span closes.
The first ``max_spans`` spans are kept in memory and written out once, at the
end of the run; later spans still count toward calls and self time.
"""
from __future__ import annotations

import functools
import importlib
import time
from array import array
from pathlib import Path

TARGETS = {
    "config": ("read_config_file", "apply_preset", "build_experiment_config"),
    "datasets": ("gen_gaussian", "load_idx", "make_batch", "epoch_batches"),
    "model": ("forward", "softmax_xent", "backward", "sgd_step"),
    "scheduler": ("LossLedger.record", "end_of_epoch", "trace"),
    "baselines": ("reweight", "uniform_policy"),
    "harness": ("load_dataset", "evaluate", "run_experiment", "compare",
                "training_population", "write_run_outputs", "save_params",
                "load_params", "export_features"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{module}.{func}" for module, funcs in TARGETS.items() for func in funcs)

_NO_PARENT = -1


class Tracer:
    def __init__(self, clock=time.perf_counter, max_spans: int = 250_000) -> None:
        self.clock = clock
        self.max_spans = max_spans
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.covered_s = 0.0  # time inside root spans
        self.spans_opened = 0
        # open spans, innermost last: [name, start, children's total duration, id, parent id]
        self._stack: list[list] = []
        # stored spans in closing order; ids number spans in opening order
        self._ids = array("i")
        self._parents = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._names: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def enter(self, name: str) -> None:
        parent = self._stack[-1][3] if self._stack else _NO_PARENT
        self._stack.append([name, self.clock(), 0.0, self.spans_opened, parent])
        self.spans_opened += 1

    def exit(self) -> None:
        end = self.clock()
        name, start, children, span_id, parent = self._stack.pop()
        duration = end - start
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - children
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.covered_s += duration
        # Keeping the first spans by opening order keeps every stored span's parent.
        if span_id < self.max_spans:
            self._ids.append(span_id)
            self._parents.append(parent)
            self._starts.append(start)
            self._ends.append(end)
            self._names.append(name)

    def spans(self) -> list[tuple[int, str, float, float, int]]:
        """Stored spans as ``(id, name, start, end, parent id)`` in opening order."""
        order = sorted(range(len(self._ids)), key=self._ids.__getitem__)
        return [(self._ids[i], self._names[i], self._starts[i], self._ends[i],
                 self._parents[i]) for i in order]

    def write_spans(self, path: Path) -> None:
        dropped = self.spans_opened - len(self._ids)
        lines = [f"# spans stored {len(self._ids)} dropped {dropped}",
                 "id\tname\tstart\tend\tparent"]
        lines.extend(f"{span_id}\t{name}\t{start!r}\t{end!r}\t{parent}"
                     for span_id, name, start, end, parent in self.spans())
        path.write_text("\n".join(lines) + "\n")

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()
        return traced

    def install(self) -> None:
        modules = {name: importlib.import_module(f"dropfresh.{name}") for name in TARGETS}
        namespaces = [*modules.values(), importlib.import_module("dropfresh")]
        for module_name, funcs in TARGETS.items():
            for func in funcs:
                label = f"{module_name}.{func}"
                owner_name, _, attr = func.rpartition(".")
                if owner_name:  # a method: every caller finds it on the class
                    self._replace(getattr(modules[module_name], owner_name), attr, label)
                    continue
                original = getattr(modules[module_name], attr)
                for namespace in namespaces:
                    for key, value in list(vars(namespace).items()):
                        if value is original:
                            self._replace(namespace, key, label)

    def _replace(self, owner, attr: str, label: str) -> None:
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(label, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
