"""Tests of the benchmark's own arithmetic and of BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

import json
import math
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from lenreg import calibration, corpus  # noqa: E402

Sample = namedtuple("Sample", "confidence correct")
Record = namedtuple("Record", "step total ce_term penalty_term hinge_active_fraction "
                              "ratio_r masked_count")


def test_exact_ece_hand_worked():
    # M = 10. 0.9 and 0.9 share bin 9: excess (1 - 0.9) + (0 - 0.9) = -0.8.
    # The float 0.3 lies just below 3/10, so it joins 0.25 in bin 2:
    # excess (1 - 0.25) + (0 - 0.3) = 0.45. ECE = (0.8 + 0.45) / 4.
    samples = [Sample(0.9, True), Sample(0.9, False), Sample(0.25, True), Sample(0.3, False)]
    value, counts = checks.exact_ece(samples, 10)
    assert value == 0.3125
    assert counts == [0, 0, 2, 0, 0, 0, 0, 0, 0, 2]


def test_exact_ece_edges_and_extremes():
    assert checks.exact_ece([Sample(1.0, True)], 10) == (0.0, [0] * 9 + [1])
    assert checks.exact_ece([Sample(1.0, False)], 10)[0] == 1.0
    # 0.5 is exactly 5/10: the edge belongs to the upper bin.
    assert checks.exact_ece([Sample(0.5, True)], 10)[1][5] == 1
    # Two bins, n = 3: |1 - 0.75| + |(0 - 0.25) + (1 - 0.25)| over 3.
    value, counts = checks.exact_ece(
        [Sample(0.75, True), Sample(0.25, False), Sample(0.25, True)], 2)
    assert counts == [2, 1]
    assert value == pytest.approx(0.75 / 3, abs=1e-16)


def test_ece_problems_against_library_report():
    rng = np.random.default_rng(0)
    samples = [calibration.PredictionSample(float(c), bool(ok), 4)
               for c, ok in zip(rng.uniform(0, 1, 500), rng.uniform(0, 1, 500) < 0.6)]
    report = calibration.ece(samples, 10)
    assert checks.ece_problems("iv", samples, report) == []
    tampered = calibration.CalibrationReport(report.n, report.n_bins, report.ece + 1e-9,
                                             report.bins)
    assert len(checks.ece_problems("iv", samples, tampered)) == 1
    problems = checks.ece_problems("iv", samples[:-1], report)
    assert problems and "bin counts" in problems[0]


def _seq(length):
    body = [5] * (length - 2)
    return corpus.TokenSequence(np.array([corpus.CLS_ID, *body, corpus.SEP_ID]))


def test_trained_tokens_hand_worked():
    seqs = [_seq(4), _seq(4), _seq(126)]
    # (4 + 4 + 126) real tokens per epoch, three epochs.
    assert checks.trained_tokens(seqs, 3) == 402
    # One padded batch holds 3 x 126 slots; padding is not counted.
    ids, pad, lengths = corpus.pad_to_batch(seqs)
    assert ids.size == 378 and int((~pad).sum()) == 134 == checks.trained_tokens(seqs, 1)


def _good(step=0, **kw):
    rec = dict(step=step, total=1.5, ce_term=1.25, penalty_term=0.25,
               hinge_active_fraction=0.5, ratio_r=4 / 128, masked_count=40)
    rec.update(kw)
    return Record(**rec)


def _problems(history, **kw):
    kw.setdefault("allowed_lengths", lambda n: n == 4)
    return checks.training_problems(history, maxlen=128, **kw)


def test_training_problems_accepts_good_history():
    assert _problems([_good(0), _good(1)], masked_bounds=(32, 64)) == []


@pytest.mark.parametrize("bad", [
    dict(total=math.nan), dict(total=1.6), dict(penalty_term=-0.1, total=1.15),
    dict(hinge_active_fraction=1.5), dict(ratio_r=5 / 128), dict(ratio_r=0.0314),
    dict(masked_count=65), dict(masked_count=31),
])
def test_training_problems_flags_each_property(bad):
    assert len(_problems([_good(0), _good(1, **bad)], masked_bounds=(32, 64))) == 1


def test_training_problems_loss_decrease():
    falling = [_good(i, total=3.0 - 0.1 * i, ce_term=3.0 - 0.1 * i, penalty_term=0.0)
               for i in range(10)]
    assert _problems(falling, expect_decrease=True) == []
    assert len(_problems(falling[::-1], expect_decrease=True)) == 1


def test_tensor_problems_is_bitwise():
    a = {"w": np.array([0.0, 1.0], dtype=np.float32)}
    assert checks.tensor_problems(a, {"w": a["w"].copy()}) == []
    assert checks.tensor_problems(a, {"w": np.array([-0.0, 1.0], dtype=np.float32)})
    assert checks.tensor_problems(a, {"w": a["w"].astype(np.float64)})


def test_benchmark_json_matches_the_code():
    import layers
    import run
    import workloads

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.LAYER_METRICS
    assert spec["command"] == ["python3", "perfbench/run.py"] and spec["paths"] == ["perfbench"]
