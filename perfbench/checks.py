"""Output checks of the three workloads.

Each checker returns a list of problems (empty when the output is correct).
The checks test properties the method must have, or compare against values
the benchmark computes itself; none compares against a stored copy of an
earlier output.
"""

from __future__ import annotations

import math

import numpy as np

#: Relative tolerance of "equal at wire precision": the daemon quantises
#: floats to 10 significant digits, so one rounding step is <= 1e-9 relative.
WIRE_RTOL = 2e-9


def denormalize(value: float, cap_min: float, cap_max: float) -> float:
    """Farads of a log-scale min-max normalised capacitance (0 maps to 0)."""
    if value <= 0:
        return 0.0
    low, high = math.log10(cap_min), math.log10(cap_max)
    return 10.0 ** (low + value * (high - low))


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + 1e-300


def check_records(records, *, nets, threshold: float, cap_min: float,
                  cap_max: float, expected_pairs=None,
                  expected_count: int | None = None) -> list[str]:
    """Properties every annotation record must have.

    ``nets`` is the set of signal nets a pair may name.  ``expected_pairs``
    (explicit candidates) must come back in order; otherwise
    ``expected_count`` distinct unordered pairs are expected.
    """
    problems = []
    if expected_pairs is not None:
        expected_count = len(expected_pairs)
    if len(records) != expected_count:
        problems.append(f"{len(records)} records for {expected_count} candidates")
    seen = set()
    for index, record in enumerate(records):
        where = f"record {index}"
        pair = tuple(record.get("pair", ()))
        if len(pair) != 2 or pair[0] == pair[1]:
            problems.append(f"{where}: pair {pair!r} is not two distinct nodes")
            continue
        if not (pair[0] in nets and pair[1] in nets):
            problems.append(f"{where}: pair {pair!r} names a node that is not "
                            "a signal net of the design")
        key = frozenset(pair)
        if key in seen:
            problems.append(f"{where}: pair {pair!r} repeated")
        seen.add(key)
        if expected_pairs is not None and index < len(expected_pairs) \
                and pair != tuple(expected_pairs[index]):
            problems.append(f"{where}: pair {pair!r} is not the requested "
                            f"{tuple(expected_pairs[index])!r}")
        if record.get("link_type") != "net-net":
            problems.append(f"{where}: link_type {record.get('link_type')!r} "
                            "for a net pair")
        prob = record.get("coupling_probability")
        if not (isinstance(prob, float) and math.isfinite(prob) and 0.0 <= prob <= 1.0):
            problems.append(f"{where}: probability {prob!r} outside [0, 1]")
            continue
        if record.get("coupled") is not (prob >= threshold):
            problems.append(f"{where}: coupled={record.get('coupled')!r} with "
                            f"p={prob} and threshold {threshold}")
        norm = record.get("capacitance_normalized")
        farad = record.get("capacitance_farad")
        if not (isinstance(norm, float) and 0.0 <= norm <= 1.0):
            problems.append(f"{where}: normalised capacitance {norm!r} outside [0, 1]")
            continue
        if not isinstance(farad, float) or not _close(
                farad, denormalize(norm, cap_min, cap_max), WIRE_RTOL):
            problems.append(f"{where}: capacitance {farad!r} F is not the "
                            f"denormalised {norm}")
        elif norm > 0 and not (cap_min * (1 - WIRE_RTOL) <= farad
                               <= cap_max * (1 + WIRE_RTOL)):
            problems.append(f"{where}: capacitance {farad} F outside "
                            f"[{cap_min}, {cap_max}]")
    return problems


def compare_records(got, want, rtol: float = WIRE_RTOL) -> list[str]:
    """Record lists equal up to ``rtol`` on floats (exact on everything else)."""
    if len(got) != len(want):
        return [f"{len(got)} records, expected {len(want)}"]
    problems = []
    for index, (a, b) in enumerate(zip(got, want)):
        if set(a) != set(b):
            problems.append(f"record {index}: keys {sorted(a)} != {sorted(b)}")
            continue
        for key in a:
            x, y = a[key], b[key]
            if isinstance(x, float) and isinstance(y, float):
                if not _close(x, y, rtol):
                    problems.append(f"record {index}: {key} {x!r} != {y!r}")
            elif (list(x) if isinstance(x, tuple) else x) != \
                    (list(y) if isinstance(y, tuple) else y):
                problems.append(f"record {index}: {key} {x!r} != {y!r}")
    return problems


def check_response(payload, request: dict, *, nets, threshold: float,
                   cap_min: float, cap_max: float) -> list[str]:
    """The body of one HTTP 200 reply to a single-design ``/annotate``."""
    if not isinstance(payload, dict) or payload.get("status") != "ok":
        return [f"response status {payload.get('status') if isinstance(payload, dict) else payload!r}"]
    problems = []
    if payload.get("design") != request["name"]:
        problems.append(f"design {payload.get('design')!r} != {request['name']!r}")
    if payload.get("num_candidates") != len(request["pairs"]):
        problems.append(f"num_candidates {payload.get('num_candidates')!r}")
    problems += check_records(payload.get("records", []), nets=nets,
                              threshold=threshold, cap_min=cap_min,
                              cap_max=cap_max, expected_pairs=request["pairs"])
    return problems


# --------------------------------------------------------------------------- #
# Subgraph extraction
# --------------------------------------------------------------------------- #
class Neighbourhoods:
    """Hop-bounded BFS over a graph's undirected edge list."""

    def __init__(self, num_nodes: int, edge_index: np.ndarray):
        src = np.concatenate([edge_index[0], edge_index[1]]).astype(np.int64)
        dst = np.concatenate([edge_index[1], edge_index[0]]).astype(np.int64)
        order = np.argsort(src, kind="stable")
        self.targets = dst[order]
        self.offsets = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=num_nodes), out=self.offsets[1:])

    def ball(self, seeds, hops: int) -> set[int]:
        """Nodes within ``hops`` edges of any seed."""
        reached = set(int(s) for s in seeds)
        frontier = list(reached)
        for _ in range(hops):
            nxt = []
            for node in frontier:
                for neighbour in self.targets[self.offsets[node]:self.offsets[node + 1]]:
                    neighbour = int(neighbour)
                    if neighbour not in reached:
                        reached.add(neighbour)
                        nxt.append(neighbour)
            frontier = nxt
        return reached


def check_subgraphs(neighbourhoods: Neighbourhoods, links, subgraphs,
                    hops: int) -> list[str]:
    """Sampled subgraphs hold both anchors and stay inside the hop ball."""
    problems = []
    if len(links) != len(subgraphs):
        return [f"{len(subgraphs)} subgraphs for {len(links)} links"]
    for index, (link, sub) in enumerate(zip(links, subgraphs)):
        ids = [int(i) for i in sub.node_ids]
        a, b = sub.anchors
        if (ids[a], ids[b]) != (int(link.source), int(link.target)):
            problems.append(f"subgraph {index}: anchors {(ids[a], ids[b])} are "
                            f"not the link {(link.source, link.target)}")
            continue
        outside = set(ids) - neighbourhoods.ball((link.source, link.target), hops)
        if outside:
            problems.append(f"subgraph {index}: {len(outside)} node(s) beyond "
                            f"{hops} hop(s) of the anchors")
    return problems


# --------------------------------------------------------------------------- #
# Training quality
# --------------------------------------------------------------------------- #
def auc(scores, labels) -> float:
    """ROC AUC by the rank-sum statistic (ties get average ranks)."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels) > 0.5
    positives, negatives = int(labels.sum()), int((~labels).sum())
    if positives == 0 or negatives == 0:
        raise ValueError("AUC needs both classes")
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    start = 0
    while start < len(scores):
        stop = start
        while stop + 1 < len(scores) and sorted_scores[stop + 1] == sorted_scores[start]:
            stop += 1
        ranks[order[start:stop + 1]] = (start + stop) / 2.0 + 1.0
        start = stop + 1
    rank_sum = ranks[labels].sum()
    return float((rank_sum - positives * (positives + 1) / 2.0)
                 / (positives * negatives))


def check_training(losses, link_auc: float, auc_floor: float,
                   predictions, targets) -> list[str]:
    """Finite losses, a held-out link AUC above the floor, and one finite
    normalised capacitance in [0, 1] per held-out coupling.

    The held-out edge-regression MAE is not checked against a constant
    predictor's: the fine-tune loses that comparison on some training seeds
    (README "Fine-tuning stability"), so the workload only reports it.
    """
    problems = []
    if not losses or not all(math.isfinite(value) for value in losses):
        problems.append(f"non-finite training losses {losses!r}")
    if not link_auc >= auc_floor:
        problems.append(f"held-out link AUC {link_auc:.3f} below {auc_floor}")
    predictions = np.asarray(predictions, dtype=float)
    if predictions.shape != np.shape(targets):
        problems.append(f"{predictions.shape} regression predictions for "
                        f"{np.shape(targets)} held-out couplings")
    elif not (np.isfinite(predictions).all() and (predictions >= 0.0).all()
              and (predictions <= 1.0).all()):
        problems.append("regression predictions not finite in [0, 1]")
    return problems


def check_finetuned_weights(pretrained: dict, finetuned: dict) -> list[str]:
    """Fine-tuning in mode ``all`` trains the pre-trained encoder: of the
    parameters the two models share by name and shape, some must differ.

    Maps are parameter name -> array.  This holds on every training seed,
    unlike the MAE comparison, and fails when the fine-tune takes no step.
    """
    shared = [name for name in pretrained if name in finetuned
              and np.shape(pretrained[name]) == np.shape(finetuned[name])]
    if not shared:
        return ["the fine-tuned model shares no parameter with the pre-trained one"]
    if all(np.array_equal(pretrained[name], finetuned[name]) for name in shared):
        return [f"fine-tuning left all {len(shared)} shared parameters unchanged"]
    return []
