"""``annotate_chip``: repeated local annotation of one large SRAM chip.

One operation is ``AnnotationEngine.annotate`` of the chip's SPICE file with
``CHIP_CANDIDATES`` default candidates, on a cold PE cache, as a user
annotating a chip once pays it.  Parse/flatten, graph build and subgraph
extraction do most of the work; the forward pass does little.
"""

from __future__ import annotations

import gc
import json
import statistics
import time

import checks
import common
import inputs
from tracer import Tracer, run_operations, traced_metrics

#: Set-ups timed before the first annotate; ``SETUPS_BETWEEN`` more follow
#: every timed annotate, so the set-up samples span the run.
SETUPS_BEFORE = 5
SETUPS_BETWEEN = 2


def _setup(ckpt):
    """Checkpoint load and engine build (what ``repro annotate`` pays first)."""
    from repro.api import load
    from repro.core.serve import AnnotationEngine

    return AnnotationEngine(load(ckpt))


def run(seed: int, seconds: float, trace: bool):
    artifacts = common.artifact_dir()
    chip = artifacts / "chip.sp"
    nets = frozenset(json.loads((artifacts / "chip_nets.json").read_text()))
    candidate_seed = inputs.candidate_seed(seed)

    engine = _setup(artifacts / "ckpt")
    setup_times = []

    def set_up(count):
        """Time ``count`` more set-ups; their engines are dropped."""
        setup_times.extend(common.time_setup(lambda: _setup(artifacts / "ckpt"))
                           for _ in range(count))

    set_up(SETUPS_BEFORE)

    def operation():
        engine.cache.clear()
        gc.collect()
        started = time.perf_counter()
        report = engine.annotate(chip, max_candidates=inputs.CHIP_CANDIDATES,
                                 seed=candidate_seed)
        return report.records, started, time.perf_counter()

    reference, _, _ = operation()  # warm-up, untimed
    tracer = Tracer() if trace else None
    if trace:
        tracer.register_model(engine.link_model)
        tracer.register_model(engine.reg_model)
    operations = run_operations(
        operation, seconds, tracer, capture_extraction=True,
        between=None if trace else lambda: set_up(SETUPS_BETWEEN))
    latencies = [op.end - op.start for op in operations if not op.traced]
    common.log("op latencies (s): " + " ".join(
        f"{op.end - op.start:.3f}" for op in operations))

    problems = checks.check_records(
        reference, nets=nets, threshold=engine.threshold, cap_min=inputs.CAP_MIN,
        cap_max=inputs.CAP_MAX, expected_count=inputs.CHIP_CANDIDATES)
    for index, op in enumerate(operations):
        problems += [f"op {index}: {p}"
                     for p in checks.compare_records(op.result, reference, rtol=0.0)]
    if trace:
        problems += _check_extraction(tracer.captures, engine.config.data.hops)
    for problem in problems[:20]:
        common.log(f"check failed: {problem}")
    correct, attempted = not problems, 1 + len(operations)

    if trace:
        tracer.write_chrome_trace(common.trace_path("annotate_chip", seed))
        return correct, attempted, 0, traced_metrics(tracer, operations)
    p50 = statistics.median(latencies)
    return correct, attempted, 0, common.end_to_end(
        setup_s=statistics.median(setup_times),
        latency_p50_ms=p50 * 1e3,
        links_per_s=inputs.CHIP_CANDIDATES / p50,
        peak_rss_mb=common.peak_rss_mb())


def _check_extraction(captures, hops: int) -> list[str]:
    """Captured subgraphs stay inside the benchmark's own hop ball."""
    if not captures:
        return ["traced run captured no extraction"]
    graph = captures[0][0]
    neighbourhoods = checks.Neighbourhoods(graph.num_nodes, graph.edge_index)
    problems = []
    for _, links, subgraphs in captures:
        problems += checks.check_subgraphs(neighbourhoods, links, subgraphs, hops)
    return problems
