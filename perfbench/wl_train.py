"""``train_fewshot``: ``repro.api.fit`` on the three training designs.

One operation is one ``fit``: pre-train on link prediction, then fine-tune
``edge_regression`` with mode ``all``, 2 + 2 epochs, dim 32, 2 layers, on a
fixed generated design suite; the seed picks the training seed.  Forward and
backward dominate; this is the only workload that measures backward, the
optimiser and training-side sampling.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import checks
import common
import inputs
from tracer import Tracer, run_operations, traced_metrics

#: Design-suite builds timed before the first fit; one more follows every
#: timed fit, so the set-up samples span the run.
SETUPS_BEFORE = 3
#: Held-out zero-shot link AUC must clear this (0.89-0.97 over 25 seeds).
AUC_FLOOR = 0.7


def _suite():
    """The design suite (generation, placement, extraction, graphs)."""
    from repro.core.datasets import load_design_suite

    return load_design_suite(scale=inputs.SCALE, seed=inputs.SUITE_SEED,
                             use_cache=False)


def _trained_links(pipeline) -> int:
    """Link samples the fit trained on, times epochs (pre-train + fine-tune)."""
    epochs = pipeline.config.train.epochs
    finetuned = pipeline.finetune_results[("edge_regression", "all")]
    return epochs * (len(pipeline.pretrain_result.train_samples)
                     + len(finetuned.train_samples))


def _losses(pipeline) -> list[float]:
    finetuned = pipeline.finetune_results[("edge_regression", "all")]
    return [row["loss"] for result in (pipeline.pretrain_result, finetuned)
            for row in result.history.history]


def _quality(pipeline, held_out):
    """Held-out link AUC, computed here from the model's predictions and the
    ground truth, and the fine-tuned head's held-out regression predictions
    with their targets."""
    from repro.api import EdgeRegressionTask, LinkPredictionTask
    from repro.core.datasets import CapacitanceNormalizer

    config = pipeline.config
    pretrained = pipeline.pretrain_result
    finetuned = pipeline.finetune_results[("edge_regression", "all")]
    links = LinkPredictionTask().build_dataset(
        held_out, config.data, pe_kind=pretrained.model.pe_kind, rng=1234)
    link_auc = checks.auc(pretrained.trainer.predict(links), links.labels())
    couplings = EdgeRegressionTask().build_dataset(
        held_out, config.data, pe_kind=finetuned.model.pe_kind,
        normalizer=CapacitanceNormalizer(config.data.cap_min, config.data.cap_max),
        rng=1234)
    return link_auc, finetuned.trainer.predict(couplings), couplings.targets()


def run(seed: int, seconds: float, trace: bool):
    from repro.api import fit
    from repro.core.data import default_pe_cache
    from repro.core.datasets import TEST_DESIGNS, TRAIN_DESIGNS

    suite = _suite()
    setup_times = [common.time_setup(_suite) for _ in range(SETUPS_BEFORE)]
    designs = [suite[name] for name in TRAIN_DESIGNS]
    spec = inputs.experiment_spec(inputs.train_seed(seed))

    # Warm-up: a small one-epoch fit through the same code paths, untimed.
    warm = inputs.experiment_spec(inputs.train_seed(seed))
    warm["train"]["epochs"] = 1
    warm["data"]["max_links_per_design"] = 20
    fit(warm, designs=designs)

    last = {}

    def operation():
        # Every fit starts on a cold process-wide PE cache, as a fresh
        # ``repro train`` process does.
        default_pe_cache().clear()
        started = time.perf_counter()
        pipeline = fit(spec, designs=designs)
        ended = time.perf_counter()
        last["pipeline"] = pipeline
        return (_losses(pipeline), _trained_links(pipeline)), started, ended

    tracer = Tracer() if trace else None
    operations = run_operations(
        operation, seconds, tracer,
        between=None if trace else lambda: setup_times.append(common.time_setup(_suite)))
    latencies = [op.end - op.start for op in operations if not op.traced]
    losses = [op.result[0] for op in operations]

    link_auc, predictions, targets = _quality(last["pipeline"],
                                              [suite[n] for n in TEST_DESIGNS])
    # Reported, not checked: the fine-tune loses to the constant (median)
    # predictor on some training seeds (README "Fine-tuning stability").
    mae = float(np.abs(predictions - targets).mean())
    constant = float(np.abs(np.median(targets) - targets).mean())
    common.log(f"held-out link AUC {link_auc:.3f}, edge-regression MAE {mae:.4f} "
               f"(constant predictor {constant:.4f})")
    problems = checks.check_training(losses[0], link_auc, AUC_FLOOR,
                                     predictions, targets)
    pipeline = last["pipeline"]
    weights = [{name: param.data for name, param in result.model.named_parameters()}
               for result in (pipeline.pretrain_result,
                              pipeline.finetune_results[("edge_regression", "all")])]
    problems += checks.check_finetuned_weights(*weights)
    problems += [f"fit {i}: losses {other} differ from fit 0's {losses[0]}"
                 for i, other in enumerate(losses) if other != losses[0]]
    correct = not problems
    for problem in problems:
        common.log(f"check failed: {problem}")

    if trace:
        tracer.write_chrome_trace(common.trace_path("train_fewshot", seed))
        return correct, len(operations), 0, traced_metrics(tracer, operations)
    p50 = statistics.median(latencies)
    return correct, len(operations), 0, common.end_to_end(
        setup_s=statistics.median(setup_times),
        latency_p50_ms=p50 * 1e3,
        links_per_s=statistics.median(op.result[1] for op in operations) / p50,
        peak_rss_mb=common.peak_rss_mb())
