import csv
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenreg.calibration import (
    CalibrationReport,
    PredictionSample,
    _validate_intervals,
    collect_predictions,
    default_intervals,
    ece,
    entropy_profile,
    interval_label,
    write_reliability_csv,
    write_report_csv,
    write_report_json,
)
from lenreg.corpus import build_vocab, encode
from lenreg.encoder import init_params, preset_config

from conftest import rng_of
from oracles import rational_ece


def _samples(rng, n, sharp=False):
    out = []
    for _ in range(n):
        c = float(rng.uniform(0, 1)) if not sharp else float(rng.choice([0.1, 0.5, 0.9, 1.0]))
        out.append(PredictionSample(confidence=c, correct=bool(rng.random() < c),
                                    input_length=int(rng.integers(3, 128))))
    return out


# ------------------------------------------------------------------ ece

def test_hand_worked_four_sample_example():
    # one occupied bin [0.5, 1]: acc 1/2, conf 3/4 (the float-rounding
    # offsets of 0.9 and 0.6 cancel), ece exactly 1/4
    samples = [
        PredictionSample(0.9, True, 5),
        PredictionSample(0.9, False, 5),
        PredictionSample(0.6, True, 5),
        PredictionSample(0.6, False, 5),
    ]
    report = ece(samples, n_bins=2)
    assert report.ece == 0.25
    assert report.n == 4
    assert report.bins[0].count == 0 and report.bins[1].count == 4
    assert report.bins[1].accuracy == 0.5 and report.bins[1].mean_confidence == 0.75


def test_perfect_confident_predictor():
    samples = [PredictionSample(1.0, True, 9)] * 25
    assert ece(samples, n_bins=10).ece == 0.0


def test_ece_matches_rational_oracle():
    rng = rng_of(60)
    for trial in range(200):
        n_bins = int(rng.integers(1, 16))
        samples = _samples(rng, int(rng.integers(1, 60)), sharp=bool(trial % 2))
        got = ece(samples, n_bins=n_bins)
        want = rational_ece([s.confidence for s in samples],
                            [s.correct for s in samples], n_bins)
        assert Fraction(got.ece) == Fraction(float(want)), (trial, n_bins)


def test_bin_edges_belong_to_upper_bin():
    # with 8 bins every edge m/8 is an exact float, so each edge opens its bin
    for m in range(8):
        report = ece([PredictionSample(m / 8, True, 5)], n_bins=8)
        assert report.bins[m].count == 1, m
    top = ece([PredictionSample(1.0, True, 5)], n_bins=8)
    assert top.bins[7].count == 1  # 1.0 stays in the top bin


def test_binning_is_exact_over_float_literals():
    # the float written 0.7 is the dyadic rational just below 7/10, so the
    # exact comparison lands it under the edge; 0.8's float sits just above
    below = ece([PredictionSample(0.7, True, 5)], n_bins=10)
    assert below.bins[6].count == 1
    above = ece([PredictionSample(0.8, True, 5)], n_bins=10)
    assert above.bins[8].count == 1


def test_ece_permutation_invariant():
    rng = rng_of(61)
    samples = _samples(rng, 50)
    a = ece(samples, n_bins=7)
    perm = [samples[i] for i in rng.permutation(len(samples))]
    b = ece(perm, n_bins=7)
    assert a.ece == b.ece
    assert a.bins == b.bins


def test_ece_rejects_bad_inputs():
    with pytest.raises(ValueError):
        ece([], n_bins=10)
    with pytest.raises(ValueError):
        ece([PredictionSample(0.5, True, 5)], n_bins=0)
    with pytest.raises(ValueError):
        ece([PredictionSample(1.5, True, 5)], n_bins=10)


def test_ece_calibrated_generator_is_small():
    # P(correct | conf) == conf by construction, n = 1e5
    rng = rng_of(62)
    conf = rng.uniform(0, 1, size=100_000)
    correct = rng.random(100_000) < conf
    samples = [PredictionSample(float(c), bool(k), 10) for c, k in zip(conf, correct)]
    report = ece(samples, n_bins=10)
    assert report.ece <= 0.02


def test_ece_detects_constant_overconfidence():
    # all predictions at confidence .9 with accuracy .5: ece == .4 exactly
    samples = [PredictionSample(0.9, i % 2 == 0, 5) for i in range(1000)]
    report = ece(samples, n_bins=10)
    assert report.ece == pytest.approx(0.4, abs=1e-12)


@given(st.lists(st.tuples(st.integers(0, 2**20), st.booleans()), min_size=1, max_size=80),
       st.integers(1, 20))
@settings(max_examples=60, deadline=None)
def test_ece_equals_oracle_property(raw, n_bins):
    samples = [PredictionSample(v / 2**20, ok, 5) for v, ok in raw]
    got = ece(samples, n_bins=n_bins)
    want = rational_ece([s.confidence for s in samples],
                            [s.correct for s in samples], n_bins)
    assert Fraction(got.ece) == Fraction(float(want))
    assert sum(b.count for b in got.bins) == len(samples)


def test_ece_union_additivity():
    # ece of a union is the count-weighted mean of per-part gaps only when
    # parts share bins; verify via the exact rational reduction instead
    rng = rng_of(63)
    a = _samples(rng, 30)
    b = _samples(rng, 50)
    whole = rational_ece([s.confidence for s in a + b],
                         [s.correct for s in a + b], 10)
    # brute recompute from per-bin tallies of the parts
    def tallies(samples):
        t = {}
        for s in samples:
            i = min(9, int(Fraction(s.confidence) * 10)) if s.confidence < 1 else 9
            c, k, f = t.get(i, (0, 0, Fraction(0)))
            t[i] = (c + 1, k + bool(s.correct), f + Fraction(s.confidence))
        return t
    merged = {}
    for part in (tallies(a), tallies(b)):
        for i, (c, k, f) in part.items():
            c0, k0, f0 = merged.get(i, (0, 0, Fraction(0)))
            merged[i] = (c0 + c, k0 + k, f0 + f)
    n = len(a) + len(b)
    expect = sum(Fraction(c, n) * abs(Fraction(k, c) - f / c)
                 for c, k, f in merged.values())
    assert whole == expect


# ------------------------------------------------------------------ intervals

def test_default_intervals_scaling():
    assert default_intervals(512) == [(10, 50), (50, 200), (200, 512)]
    assert default_intervals(128) == [(3, 13), (13, 50), (50, 128)]
    assert default_intervals(256) == [(5, 25), (25, 100), (100, 256)]
    with pytest.raises(ValueError):
        default_intervals(3)


def test_default_intervals_are_valid_or_rejected():
    # Defaults that exist must pass the same check evaluate() applies after
    # training; below maxlen 26 the first edge rounds to 0, so there are none.
    for maxlen in range(4, 513):
        try:
            intervals = default_intervals(maxlen)
        except ValueError as e:
            assert maxlen < 26
            assert f"maxlen {maxlen}" in str(e) and "--intervals" in str(e)
        else:
            assert _validate_intervals(intervals) == intervals, maxlen


def test_interval_label_convention():
    assert interval_label(3, 13, closed=False) == "[3,13)"
    assert interval_label(50, 128, closed=True) == "[50,128]"


# ------------------------------------------------------------------ model-facing

@pytest.fixture(scope="module")
def eval_setup():
    units = []
    rng = rng_of(64)
    for i in range(120):
        n_body = int(rng.integers(2, 9)) if i % 2 else int(rng.integers(28, 60))
        words = [f"w{int(rng.integers(0, 40))}" for _ in range(n_body)]
        units.append(" ".join(words))
    vocab = build_vocab(units, 64)
    maxlen = 64
    seqs = [encode(u, vocab, maxlen) for u in units]
    cfg = preset_config("nano", vocab_size=vocab.size, seed=9, maxlen=maxlen,
                        hidden_size=16, num_heads=2, ffn_size=32, dropout_p=0.0)
    return vocab, seqs, init_params(cfg)


def test_collect_predictions_grouping(eval_setup):
    vocab, seqs, params = eval_setup
    intervals = [(3, 12), (12, 64)]
    preds = collect_predictions(params, seqs, vocab, intervals=intervals,
                                per_interval_n=20, rng=rng_of(65))
    assert set(preds) == {(3, 12), (12, 64)}
    for (lo, hi), samples in preds.items():
        assert samples, (lo, hi)
        closed = (lo, hi) == (12, 64)
        for s in samples:
            assert 0.0 <= s.confidence <= 1.0
            assert lo <= s.input_length <= hi if closed else s.input_length < hi
    # per_interval_n caps sequences, not predictions
    short_lengths = {s.input_length for s in preds[(3, 12)]}
    assert short_lengths <= set(range(3, 12))


def test_collect_predictions_empty_interval(eval_setup):
    vocab, seqs, params = eval_setup
    preds = collect_predictions(params, seqs, vocab, intervals=[(3, 12), (63, 64)],
                                per_interval_n=5, rng=rng_of(66))
    assert preds[(63, 64)] == []


def test_collect_predictions_deterministic(eval_setup):
    vocab, seqs, params = eval_setup
    kw = dict(intervals=[(3, 12), (12, 64)], per_interval_n=10)
    a = collect_predictions(params, seqs, vocab, rng=rng_of(67), **kw)
    b = collect_predictions(params, seqs, vocab, rng=rng_of(67), **kw)
    assert a == b


def test_collect_predictions_requires_rng(eval_setup):
    vocab, seqs, params = eval_setup
    with pytest.raises(ValueError):
        collect_predictions(params, seqs, vocab)


def test_untrained_entropy_profile_near_uniform(eval_setup):
    # a fresh model's masked-position entropy stays near ln V in every slice
    vocab, seqs, params = eval_setup
    prof = entropy_profile(params, seqs, vocab, intervals=[(3, 12), (12, 64)],
                           per_interval_n=30, rng=rng_of(68))
    ln_v = float(np.log(vocab.size))
    for row in prof.intervals:
        assert row.count > 0
        assert abs(row.mean - ln_v) < 0.1 * ln_v
        assert row.std < 0.1 * ln_v


def test_entropy_profile_empty_interval(eval_setup):
    vocab, seqs, params = eval_setup
    prof = entropy_profile(params, seqs, vocab, intervals=[(3, 12), (63, 64)],
                           per_interval_n=5, rng=rng_of(69))
    empty = prof.intervals[1]
    assert empty.count == 0 and empty.mean is None and empty.std is None


def test_bad_intervals_rejected(eval_setup):
    vocab, seqs, params = eval_setup
    for bad in ([], [(0, 10)], [(10, 10)], [(12, 3)]):
        with pytest.raises(ValueError):
            collect_predictions(params, seqs, vocab, intervals=bad, rng=rng_of(70))


# ------------------------------------------------------------------ report files

def test_report_writers_round_trip(tmp_path, eval_setup):
    vocab, seqs, params = eval_setup
    intervals = [(3, 12), (12, 64)]
    preds = collect_predictions(params, seqs, vocab, intervals=intervals,
                                per_interval_n=15, rng=rng_of(71))
    prof = entropy_profile(params, seqs, vocab, intervals=intervals,
                           per_interval_n=15, rng=rng_of(72))
    reports = [ece(preds[iv], 10, interval_label(*iv, closed=i == 1)) if preds[iv] else None
               for i, iv in enumerate(intervals)]

    jpath, cpath, rpath = (tmp_path / n for n in
                           ("report.json", "report.csv", "reliability.csv"))
    write_report_json(jpath, intervals, reports, prof, meta={"seed": 3})
    write_report_csv(cpath, intervals, reports, prof)
    write_reliability_csv(rpath, intervals, reports)

    doc = json.loads(jpath.read_text())
    assert doc["format_version"] == 1
    assert doc["kind"] == "ece_report"
    assert doc["seed"] == 3
    assert [iv["label"] for iv in doc["intervals"]] == ["[3,12)", "[12,64]"]
    for payload, rep in zip(doc["intervals"], reports):
        assert payload["ece"] == rep.ece
        assert payload["n_samples"] == rep.n
        assert len(payload["bins"]) == 10

    rows = list(csv.DictReader(cpath.read_text().splitlines()))
    assert [r["interval"] for r in rows] == ["[3,12)", "[12,64]"]
    # repr round-trip: the csv carries full float precision
    for row, rep in zip(rows, reports):
        assert float(row["ece"]) == rep.ece

    rel = list(csv.DictReader(rpath.read_text().splitlines()))
    assert len(rel) == 20
    assert {r["interval"] for r in rel} == {"[3,12)", "[12,64]"}


def test_report_writers_deterministic_bytes(tmp_path, eval_setup):
    vocab, seqs, params = eval_setup
    intervals = [(3, 12), (12, 64)]

    def render(tag):
        preds = collect_predictions(params, seqs, vocab, intervals=intervals,
                                    per_interval_n=10, rng=rng_of(73))
        prof = entropy_profile(params, seqs, vocab, intervals=intervals,
                               per_interval_n=10, rng=rng_of(74))
        reports = [ece(preds[iv], 10) if preds[iv] else None for iv in intervals]
        paths = [tmp_path / f"{tag}.{n}" for n in ("json", "csv", "rel.csv")]
        write_report_json(paths[0], intervals, reports, prof, meta={"seed": 0})
        write_report_csv(paths[1], intervals, reports, prof)
        write_reliability_csv(paths[2], intervals, reports)
        return [p.read_bytes() for p in paths]

    assert render("a") == render("b")
