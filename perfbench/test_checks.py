"""Self-tests of the benchmark's output checkers (fast; no program runs).

    python3 -m pytest perfbench -q

Each checker must accept a correct output and reject a corrupted one: a
dropped record, an out-of-range probability, one perturbed daemon record,
non-finite losses, a held-out AUC under the floor, a missing or
non-finite regression prediction or a fine-tune that left the pre-trained
weights unchanged.
"""

from __future__ import annotations

import copy
import itertools
import pathlib
import sys
from types import SimpleNamespace

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import checks  # noqa: E402

CAP_MIN, CAP_MAX = 1e-21, 1e-15
NETS = frozenset({"a", "b", "c", "d"})


def _record(pair, prob, norm, threshold=0.5):
    return {"pair": pair, "link_type": "net-net", "coupling_probability": prob,
            "coupled": prob >= threshold, "capacitance_normalized": norm,
            "capacitance_farad": checks.denormalize(norm, CAP_MIN, CAP_MAX)}


def _records():
    return [_record(("a", "b"), 0.7, 0.4), _record(("a", "c"), 0.2, 0.0),
            _record(("b", "d"), 0.5, 1.0)]


def _problems(records, **kwargs):
    kwargs.setdefault("expected_count", 3)
    return checks.check_records(records, nets=NETS, threshold=0.5,
                                cap_min=CAP_MIN, cap_max=CAP_MAX, **kwargs)


def test_valid_records_pass():
    assert _problems(_records()) == []


def test_dropped_record_is_rejected():
    assert _problems(_records()[:-1])


def test_out_of_range_probability_is_rejected():
    records = _records()
    records[0] = _record(("a", "b"), 1.2, 0.4)
    assert _problems(records)
    records[0]["coupling_probability"] = float("nan")
    assert _problems(records)


def test_wrong_threshold_decision_is_rejected():
    records = _records()
    records[1]["coupled"] = True
    assert _problems(records)


def test_capacitance_must_be_the_denormalised_value():
    records = _records()
    records[0]["capacitance_farad"] *= 1.01
    assert _problems(records)


def test_rail_or_repeated_pairs_are_rejected():
    records = _records()
    records[0]["pair"] = ("a", "VDD")
    assert _problems(records)
    records = _records()
    records[2]["pair"] = ("b", "a")
    assert _problems(records)


def test_denormalize_spans_the_capacitance_range():
    assert checks.denormalize(0.0, CAP_MIN, CAP_MAX) == 0.0
    assert np.isclose(checks.denormalize(1e-12, CAP_MIN, CAP_MAX), CAP_MIN)
    assert np.isclose(checks.denormalize(1.0, CAP_MIN, CAP_MAX), CAP_MAX)


def test_perturbed_daemon_record_is_rejected():
    local = _records()
    wire = [dict(r, pair=list(r["pair"]),
                 coupling_probability=float(f"{r['coupling_probability']:.10g}"))
            for r in local]
    assert checks.compare_records(wire, local) == []
    wire[1]["coupling_probability"] += 1e-6
    assert checks.compare_records(wire, local)


def test_response_checks():
    request = {"name": "D", "pairs": [["a", "b"], ["a", "c"], ["b", "d"]]}
    payload = {"design": "D", "status": "ok", "num_candidates": 3,
               "records": [dict(r, pair=list(r["pair"])) for r in _records()]}
    ok = dict(nets=NETS, threshold=0.5, cap_min=CAP_MIN, cap_max=CAP_MAX)
    assert checks.check_response(payload, request, **ok) == []
    reordered = copy.deepcopy(payload)
    reordered["records"].reverse()
    assert checks.check_response(reordered, request, **ok)
    failed = dict(payload, status="error")
    assert checks.check_response(failed, request, **ok)


def test_auc_matches_pair_counting():
    rng = np.random.default_rng(0)
    scores = rng.integers(0, 5, size=40).astype(float)
    labels = rng.integers(0, 2, size=40)
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0
               for p, n in itertools.product(scores[labels == 1], scores[labels == 0]))
    expected = wins / ((labels == 1).sum() * (labels == 0).sum())
    assert np.isclose(checks.auc(scores, labels), expected)


def test_training_checks():
    targets = np.array([0.1, 0.5, 0.9])
    ok = dict(link_auc=0.9, auc_floor=0.7, predictions=[0.2, 0.4, 1.0],
              targets=targets)
    assert checks.check_training([0.7, 0.5], **ok) == []
    assert checks.check_training([0.7, float("inf")], **ok)
    assert checks.check_training([], **ok)
    assert checks.check_training([0.7, 0.5], **dict(ok, link_auc=0.6))


def test_regression_predictions_must_cover_every_coupling_in_range():
    ok = dict(link_auc=0.9, auc_floor=0.7, targets=np.array([0.1, 0.5, 0.9]))
    assert checks.check_training([0.7, 0.5], predictions=[0.2, 0.4], **ok)
    assert checks.check_training([0.7, 0.5], predictions=[0.2, float("nan"), 0.4], **ok)
    assert checks.check_training([0.7, 0.5], predictions=[0.2, 1.3, 0.4], **ok)


def test_finetuning_must_change_the_pretrained_weights():
    pretrained = {"encoder.w": np.ones((2, 2)), "link_head.w": np.ones(3)}
    moved = {"encoder.w": np.full((2, 2), 0.9), "edge_head.w": np.ones(4)}
    assert checks.check_finetuned_weights(pretrained, moved) == []
    assert checks.check_finetuned_weights(pretrained, dict(moved, **{"encoder.w": np.ones((2, 2))}))
    assert checks.check_finetuned_weights(pretrained, {"edge_head.w": np.ones(4)})


def test_subgraphs_must_stay_inside_the_hop_ball():
    # Path graph 0-1-2-3-4; the link (1, 2) with one hop reaches 0..3.
    edges = np.array([[0, 1, 2, 3], [1, 2, 3, 4]])
    balls = checks.Neighbourhoods(5, edges)
    link = SimpleNamespace(source=1, target=2)
    inside = SimpleNamespace(node_ids=np.array([1, 2, 0, 3]), anchors=(0, 1))
    beyond = SimpleNamespace(node_ids=np.array([1, 2, 4]), anchors=(0, 1))
    swapped = SimpleNamespace(node_ids=np.array([2, 1]), anchors=(0, 1))
    assert checks.check_subgraphs(balls, [link], [inside], hops=1) == []
    assert checks.check_subgraphs(balls, [link], [beyond], hops=1)
    assert checks.check_subgraphs(balls, [link], [swapped], hops=1)
