"""Spans around calls into the program's public functions, from outside.

:class:`Tracer` replaces public functions and methods with timing wrappers
(and restores them), keeps every span in memory and aggregates per layer
afterwards.  Nothing in the program changes: a wrapper calls the original and
returns its result untouched.

:func:`instrument` installs the wrappers for every layer the README's
per-layer table names, each around the public calls listed there.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import threading
import time
import weakref
from typing import NamedTuple

from common import PER_LAYER


class Span:
    """One timed call: layer name, start/end (perf_counter) and parent."""

    __slots__ = ("name", "start", "end", "parent", "thread")

    def __init__(self, name, start, parent, thread):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.thread = thread

    def outermost(self) -> bool:
        """No enclosing span of the same layer (so time is not counted twice)."""
        parent = self.parent
        while parent is not None:
            if parent.name == self.name:
                return False
            parent = parent.parent
        return True


class Tracer:
    """In-memory span recorder with restorable wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        #: ``(counter, perf_counter time, amount)`` per counted event.
        self.events: list[tuple[str, float, float]] = []
        self.captures: list[tuple] = []
        #: GPS layer module -> its position in its model (``models.gps_layer<i>``).
        self.layer_index = weakref.WeakKeyDictionary()
        self._local = threading.local()
        self._patches: list[tuple] = []

    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def register_model(self, model) -> None:
        """Label the GPS layers of ``model`` by their position."""
        for position, layer in enumerate(getattr(model, "layers", ())):
            self.layer_index[layer] = position

    def count(self, name: str, amount: float = 1) -> None:
        """Record ``amount`` more of a named counter, now."""
        self.events.append((name, time.perf_counter(), amount))

    def wrap(self, name, fn, on_result=None):
        """A wrapper recording a span named ``name`` around ``fn``.

        ``on_result(args, kwargs, result)`` runs after the call, outside the
        span, for counts taken at the same boundary.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, 0.0, stack[-1] if stack else None,
                        threading.get_ident())
            tracer.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------------ #
    def patch_attr(self, owner, attr: str, name: str, on_result=None) -> None:
        """Wrap ``owner.attr`` (a class's method or a module's function)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, staticmethod):
            replacement = staticmethod(self.wrap(name, original.__func__, on_result))
        elif isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, on_result))
        else:
            replacement = self.wrap(name, original, on_result)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def patch_function(self, fn, name: str, on_result=None):
        """Wrap ``fn`` under every name a loaded ``repro`` module binds it to;
        returns the wrapper."""
        wrapper = self.wrap(name, fn, on_result)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, fn))
        return wrapper

    def restore(self) -> None:
        """Put every original back (reverse order of patching)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    def counts(self, start: float, end: float) -> dict[str, float]:
        """Counter totals of the events in [start, end)."""
        totals: dict[str, float] = {}
        for name, when, amount in list(self.events):
            if start <= when < end:
                totals[name] = totals.get(name, 0) + amount
        return totals

    def layer_seconds(self, start: float, end: float) -> dict[str, float]:
        """Per-layer time of the outermost spans that began in [start, end)."""
        totals: dict[str, float] = {}
        for span in list(self.spans):
            if span.end is None or not start <= span.start < end:
                continue
            if span.outermost():
                totals[span.name] = totals.get(span.name, 0.0) + (span.end - span.start)
        return totals

    def covered_seconds(self, start: float, end: float) -> float:
        """Time in [start, end) covered by top-level spans (no parent)."""
        total = 0.0
        for span in list(self.spans):
            if span.end is None or span.parent is not None:
                continue
            total += max(0.0, min(span.end, end) - max(span.start, start))
        return total

    def dump(self, path) -> None:
        """Write spans and counter events to ``path`` as JSON."""
        index = {id(span): position for position, span in enumerate(self.spans)}
        spans = [[s.name, s.start, s.end,
                  None if s.parent is None else index[id(s.parent)], s.thread]
                 for s in self.spans]
        with open(path, "w") as handle:
            json.dump({"spans": spans, "events": self.events}, handle)

    @classmethod
    def load(cls, path) -> "Tracer":
        """Rebuild a tracer's record from :meth:`dump` output."""
        with open(path) as handle:
            payload = json.load(handle)
        tracer = cls()
        for name, start, end, parent, thread in payload["spans"]:
            span = Span(name, start,
                        None if parent is None else tracer.spans[parent], thread)
            span.end = end
            tracer.spans.append(span)
        tracer.events = [tuple(event) for event in payload["events"]]
        return tracer

    def write_chrome_trace(self, path) -> None:
        """Write the spans as Chrome trace-event JSON (Perfetto readable)."""
        origin = min((s.start for s in self.spans), default=0.0)
        events = [{"name": s.name, "ph": "X", "pid": 0, "tid": s.thread,
                   "ts": (s.start - origin) * 1e6, "dur": (s.end - s.start) * 1e6}
                  for s in self.spans if s.end is not None]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events}, handle)


# --------------------------------------------------------------------------- #
# The instrumentation every workload installs
# --------------------------------------------------------------------------- #
def instrument(tracer: Tracer, capture_extraction: bool = False) -> None:
    """Wrap every layer's public calls (listed in the README's layer table)."""
    from repro import netlist
    from repro.api.tasks import Task
    from repro.core import data, datasets, serve, trainer
    from repro.core.serve import AnnotationEngine
    from repro.core.server import app
    from repro.graph import batch, convert
    from repro.graph.csr import CSRGraph
    from repro.graph.datapipe import EnclosingExtractStage
    from repro.models.circuitgps import CircuitGPS
    from repro.models.gps_layer import GPSLayer
    from repro.models.heads import LinkPredictionHead, RegressionHead
    from repro.nn import optim
    from repro.nn.backends import active_backend
    from repro.nn.tensor import Tensor

    tracer.patch_function(netlist.parse_spice_file, "netlist.parse")
    tracer.patch_function(netlist.parse_spice, "netlist.parse")
    tracer.patch_attr(netlist.Circuit, "flatten", "netlist.flatten")
    tracer.patch_function(convert.netlist_to_graph, "graph.convert")
    tracer.patch_attr(CSRGraph, "from_edges", "graph.convert")
    tracer.patch_function(serve.default_candidate_pairs, "serve.candidates")
    tracer.patch_attr(AnnotationEngine, "links_for_pairs", "serve.candidates")

    def extracted(args, kwargs, result):
        subgraphs = result if isinstance(result, list) else [result]
        tracer.count("graph.links", len(subgraphs))
        tracer.count("graph.nodes", sum(int(s.num_nodes) for s in subgraphs))
        # Keep the inputs and outputs of extraction on the first graph only.
        if capture_extraction and (not tracer.captures
                                   or tracer.captures[0][0] is args[1]):
            links = args[2] if isinstance(result, list) else [args[2]]
            tracer.captures.append((args[1], list(links), subgraphs))

    tracer.patch_attr(EnclosingExtractStage, "extract_many", "graph.extract", extracted)
    tracer.patch_attr(EnclosingExtractStage, "extract_one", "graph.extract", extracted)
    tracer.patch_function(data.attach_pe_batch, "graph.pe")
    tracer.patch_function(data.attach_pe, "graph.pe")

    def looked_up(args, kwargs, result):
        tracer.count("pe.hits" if result is not None else "pe.misses")

    tracer.patch_attr(data.PECache, "get", "graph.pe_lookup", looked_up)

    # DataLoader binds ``collate`` as a default argument, so wrap it per loader.
    original_collate = batch.collate
    wrapped_collate = tracer.patch_function(original_collate, "graph.collate")

    def loader_built(args, kwargs, result):
        loader = args[0]
        if loader.collate_fn is original_collate:
            loader.collate_fn = wrapped_collate

    tracer.patch_attr(data.DataLoader, "__init__", "graph.loader_init", loader_built)

    tracer.patch_attr(AnnotationEngine, "predict_batch", "models.forward")
    tracer.patch_attr(Task, "forward", "models.forward")
    tracer.patch_attr(LinkPredictionHead, "forward", "models.head")
    tracer.patch_attr(RegressionHead, "forward", "models.head")
    # The span name carries the layer's position, known only per instance.
    original_layer_forward = GPSLayer.__dict__["forward"]

    @functools.wraps(original_layer_forward)
    def layer_forward(layer, *args, **kwargs):
        name = f"models.gps_layer{tracer.layer_index.get(layer, 'x')}"
        return tracer.wrap(name, original_layer_forward)(layer, *args, **kwargs)

    GPSLayer.forward = layer_forward
    tracer._patches.append((GPSLayer, "forward", original_layer_forward))

    def model_built(args, kwargs, result):
        tracer.register_model(args[0])

    tracer.patch_attr(CircuitGPS, "__init__", "models.build", model_built)

    # Wrapped on the class: ``fit`` activates a freshly built backend instance.
    backend_class = type(active_backend())

    def scattered(args, kwargs, result):
        tracer.count("nn.scatter_add_calls")

    tracer.patch_attr(backend_class, "scatter_add", "nn.scatter_add", scattered)
    tracer.patch_attr(backend_class, "matmul", "nn.matmul")
    tracer.patch_attr(Tensor, "backward", "nn.backward")
    tracer.patch_function(optim.clip_grad_norm, "nn.optim")
    for cls in vars(optim).values():
        if isinstance(cls, type) and issubclass(cls, optim.Optimizer) \
                and "step" in cls.__dict__:
            tracer.patch_attr(cls, "step", "nn.optim")

    tracer.patch_function(datasets.build_link_samples, "trainer.sample")
    tracer.patch_attr(Task, "build_dataset", "trainer.sample")
    tracer.patch_attr(trainer.Trainer, "evaluate", "trainer.validate")
    tracer.patch_attr(trainer.Trainer, "recalibrate_batchnorm", "trainer.bn_recalibrate")
    tracer.patch_attr(AnnotationEngine, "build_records", "serve.records")
    tracer.patch_attr(AnnotationEngine, "extract_chunk", "server.compute")

    def batched(args, kwargs, result):
        tracer.count("server.batches")
        tracer.count("server.batch_links", len(args[1]))

    tracer.patch_attr(AnnotationEngine, "predict_samples", "server.compute", batched)
    tracer.patch_function(app.dumps_canonical, "server.wire")


def layer_metrics(seconds: dict[str, float], counts: dict[str, float],
                  extra: dict[str, float], operations: int = 1
                  ) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per operation, from one traced window.

    ``seconds`` maps layer names to time and ``counts`` holds the counter
    totals of the window, which held ``operations`` operations; ``extra``
    supplies the server and trace figures.  A layer the workload never calls
    reads 0.
    """
    hits, misses = counts.get("pe.hits", 0), counts.get("pe.misses", 0)
    links = counts.get("graph.links", 0)
    values = dict(extra)
    values["graph.nodes_per_link"] = counts.get("graph.nodes", 0) / links if links else 0.0
    values["data.pe_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values["nn.scatter_add_calls"] = counts.get("nn.scatter_add_calls", 0) / operations
    for name, unit in PER_LAYER:
        if unit == "s":
            values[name] = seconds.get(name[:-2], 0.0) / operations
    return {name: (float(values.get(name, 0.0)), unit) for name, unit in PER_LAYER}


# --------------------------------------------------------------------------- #
# Timed loops of local operations (annotate_chip, train_fewshot)
# --------------------------------------------------------------------------- #
class Operation(NamedTuple):
    """One timed call of a workload's operation."""

    result: object
    start: float
    end: float
    traced: bool


def run_operations(operation, seconds: float, tracer: Tracer | None = None,
                   between=None, **instrument_kwargs) -> list[Operation]:
    """Call ``operation()`` until ``seconds`` have passed (whole operations).

    ``operation`` returns ``(result, start, end)`` with its own timed window.
    ``between()``, if given, runs after every operation, outside its window
    (the workloads repeat their set-up there, so set-up samples span the run).
    With a ``tracer``, every other operation (starting with the first) runs
    with the wrappers installed; the others run on the unwrapped program and
    give the untraced baseline of the same run.
    """
    operations: list[Operation] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        traced = tracer is not None and len(operations) % 2 == 0
        if traced:
            instrument(tracer, **instrument_kwargs)
        try:
            result, start, end = operation()
        finally:
            if traced:
                tracer.restore()
        operations.append(Operation(result, start, end, traced))
        if between is not None:
            between()
    return operations


def traced_metrics(tracer: Tracer, operations: list[Operation]
                   ) -> dict[str, tuple[float, str]]:
    """Medians over the traced operations, plus overhead and span coverage."""
    traced = [op for op in operations if op.traced]
    plain = [op for op in operations if not op.traced] or traced
    per_op = []
    for op in traced:
        wall = op.end - op.start
        coverage = tracer.covered_seconds(op.start, op.end) / wall
        per_op.append(layer_metrics(tracer.layer_seconds(op.start, op.end),
                                    tracer.counts(op.start, op.end),
                                    {"trace.span_coverage": coverage}))
    metrics = {name: (statistics.median(op[name][0] for op in per_op), unit)
               for name, unit in PER_LAYER}
    overhead = (statistics.median(op.end - op.start for op in traced)
                / statistics.median(op.end - op.start for op in plain) - 1.0)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics
