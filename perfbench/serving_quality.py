"""Serving-quality reference figures (reported in the README, not a check).

    python3 perfbench/serving_quality.py

Annotates the six generated paper designs (scale 0.35, suite seed 0) with
the benchmark's checkpoint and scores the served outputs against the
generator's ground-truth couplings on net-net candidates:

* coupling-probability AUC: every true net-net coupling against as many
  uncoupled net pairs;
* capacitance MAE on the true couplings, in normalised units, against a
  constant (median) predictor;
* the same MAE when the served graph's X_C statistics are normalised with the
  training designs' ``StatsNormalizer``, as training does;
* the link AUC of the program's own evaluation (``repro.api.evaluate``).
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import checks  # noqa: E402
import common  # noqa: E402
import inputs  # noqa: E402


def main() -> None:
    common.require_program()
    from repro.api import evaluate, load
    from repro.core.datasets import (TRAIN_DESIGNS, CapacitanceNormalizer,
                                     StatsNormalizer, load_design_suite)
    from repro.core.serve import AnnotationEngine
    from repro.graph import netlist_to_graph
    from repro.graph.hetero import LINK_NET_NET, NODE_NET

    pipeline = load(common.artifact_dir() / "ckpt")
    engine = AnnotationEngine(pipeline)
    suite = load_design_suite(scale=inputs.SCALE, seed=inputs.CHECKPOINT_SEED,
                              use_cache=False)
    stats = StatsNormalizer.fit([suite[name].raw_stats for name in TRAIN_DESIGNS])
    caps = CapacitanceNormalizer(inputs.CAP_MIN, inputs.CAP_MAX)
    rng = np.random.default_rng(0)
    print(f"{'design':16s} {'split':5s} {'pos':>4s} {'AUC':>6s} {'MAE':>6s} "
          f"{'const':>6s} {'MAE X_C-norm':>12s} {'eval AUC':>8s}")
    for name, design in suite.items():
        graph = design.graph
        positives = [link for link in graph.links
                     if link.link_type == LINK_NET_NET and link.capacitance > 0]
        coupled = {link.key() for link in graph.links}
        nets = graph.nodes_of_type(NODE_NET)
        negatives: set[tuple[int, int]] = set()
        while len(negatives) < len(positives):
            a, b = (int(x) for x in rng.choice(nets, size=2, replace=False))
            key = (min(a, b), max(a, b))
            if key not in coupled:
                negatives.add(key)
        names = graph.node_names
        pairs = ([(names[link.source], names[link.target]) for link in positives]
                 + [(names[a], names[b]) for a, b in sorted(negatives)])
        labels = [1] * len(positives) + [0] * len(negatives)
        truth = np.array([caps.normalize(link.capacitance) for link in positives])

        served = engine.annotate(design.circuit, pairs=pairs).records
        auc = checks.auc([r["coupling_probability"] for r in served], labels)
        predicted = np.array([r["capacitance_normalized"] for r in served[:len(positives)]])
        mae = float(np.abs(predicted - truth).mean())
        constant = float(np.abs(np.median(truth) - truth).mean())

        normalised = netlist_to_graph(design.circuit)
        normalised.node_stats = stats.transform(normalised.node_stats)
        renormed = engine.annotate(normalised, pairs=pairs[:len(positives)]).records
        mae_norm = float(np.abs(np.array([r["capacitance_normalized"] for r in renormed])
                                - truth).mean())
        eval_auc = evaluate(pipeline, design, task="link")["auc"]
        print(f"{name:16s} {design.split:5s} {len(positives):4d} {auc:6.3f} {mae:6.3f} "
              f"{constant:6.3f} {mae_norm:12.3f} {eval_auc:8.3f}")


if __name__ == "__main__":
    main()
