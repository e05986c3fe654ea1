"""Expected calibration error sliced by input length, plus entropy profiles.

ECE uses M equal-width confidence bins over [0, 1]; a bin edge belongs to
the upper bin except 1.0, which stays in the top bin. Bin assignment
compares the confidence against the rational edges m/M with exact integer
arithmetic (floats are dyadic rationals), and the final sum is reduced with
``fractions.Fraction`` before a single float conversion, so the value is
the mathematically exact ECE of its inputs rounded once.

Length intervals follow the convention [lo, hi) for every interval except
the last, which is closed. The defaults are [10,50), [50,200), [200,512] at
maxlen 512, scaled proportionally (half-up rounding) for other maxlens.

``evaluate`` is the one eval pass behind ``eval-ece``, ``compare`` and the
mechanism study: predictions and entropies per interval, drawn from the
seed streams ``(seed, 40)`` and ``(seed, 41)``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .corpus import TokenSequence, Vocab, mask_batch
from .encoder import ModelParams, forward
from .losses import log_softmax_entropy

__all__ = [
    "FORMAT_VERSION", "PredictionSample", "CalibrationBin", "CalibrationReport",
    "IntervalEntropy", "EntropyProfile", "Evaluation", "ece", "default_intervals",
    "interval_label", "interval_labels", "collect_predictions", "entropy_profile",
    "evaluate", "write_report_json", "write_report_csv", "write_reliability_csv",
    "compare_row", "write_compare",
]

FORMAT_VERSION = 1

_CANONICAL_EDGES = (10, 50, 200, 512)
_CANONICAL_MAXLEN = 512
DEFAULT_BINS = 10
DEFAULT_PER_INTERVAL_N = 1000

# Seed-stream domains of the eval pass; the training loop uses 1-3.
_DOMAIN_PRED = 40
_DOMAIN_ENT = 41


@dataclass(frozen=True)
class PredictionSample:
    confidence: float
    correct: bool
    input_length: int


@dataclass(frozen=True)
class CalibrationBin:
    lo: float
    hi: float
    count: int
    mean_confidence: float  # 0.0 when the bin is empty
    accuracy: float         # 0.0 when the bin is empty


@dataclass(frozen=True)
class CalibrationReport:
    n: int
    n_bins: int
    ece: float
    bins: tuple[CalibrationBin, ...]
    interval_label: str = ""


def _bin_index(confidence: float, n_bins: int) -> int:
    # Exact comparison of the dyadic rational confidence against edges m/M.
    p, q = float(confidence).as_integer_ratio()
    guess = min(n_bins - 1, int(confidence * n_bins))
    while guess < n_bins - 1 and p * n_bins >= (guess + 1) * q:
        guess += 1
    while guess > 0 and p * n_bins < guess * q:
        guess -= 1
    return guess


def ece(samples, n_bins: int = DEFAULT_BINS, interval_label: str = "") -> CalibrationReport:
    """Exact expected calibration error of a non-empty sample set."""
    if n_bins < 1:
        raise ValueError(f"n_bins must be positive, got {n_bins}")
    samples = list(samples)
    if not samples:
        raise ValueError("ece of an empty sample set is undefined")
    counts = [0] * n_bins
    corrects = [0] * n_bins
    conf_sums = [Fraction(0)] * n_bins
    for s in samples:
        c = float(s.confidence)
        if not (0.0 <= c <= 1.0):
            raise ValueError(f"confidence {c} outside [0, 1]")
        i = _bin_index(c, n_bins)
        counts[i] += 1
        corrects[i] += bool(s.correct)
        conf_sums[i] += Fraction(c)
    n = len(samples)
    total = Fraction(0)
    bins = []
    for m in range(n_bins):
        lo, hi = m / n_bins, (m + 1) / n_bins
        if counts[m] == 0:
            bins.append(CalibrationBin(lo, hi, 0, 0.0, 0.0))
            continue
        acc = Fraction(corrects[m], counts[m])
        conf = conf_sums[m] / counts[m]
        total += Fraction(counts[m], n) * abs(acc - conf)
        bins.append(CalibrationBin(lo, hi, counts[m], float(conf), float(acc)))
    return CalibrationReport(n=n, n_bins=n_bins, ece=float(total), bins=tuple(bins),
                             interval_label=interval_label)


def default_intervals(maxlen: int) -> list[tuple[int, int]]:
    """Length intervals scaled from the canonical maxlen-512 slicing.

    Below maxlen 26 the first edge rounds to 0, so there are no defaults.
    """
    scaled = [math.floor(e * maxlen / _CANONICAL_MAXLEN + 0.5) for e in _CANONICAL_EDGES]
    if scaled[0] < 1:
        raise ValueError(f"maxlen {maxlen} is too small for the default length intervals; "
                         f"give them with --intervals")
    return [(scaled[i], scaled[i + 1]) for i in range(len(scaled) - 1)]


def interval_label(lo: int, hi: int, closed: bool) -> str:
    return f"[{lo},{hi}]" if closed else f"[{lo},{hi})"


def _with_closed(intervals) -> list[tuple[int, int, bool]]:
    """(lo, hi, closed) per interval: only the last interval is closed."""
    last = len(intervals) - 1
    return [(lo, hi, i == last) for i, (lo, hi) in enumerate(intervals)]


def interval_labels(intervals) -> list[str]:
    return [interval_label(lo, hi, closed) for lo, hi, closed in _with_closed(intervals)]


def _in_interval(length: int, lo: int, hi: int, closed: bool) -> bool:
    return lo <= length <= hi if closed else lo <= length < hi


def _validate_intervals(intervals) -> list[tuple[int, int]]:
    ivals = [(int(lo), int(hi)) for lo, hi in intervals]
    if not ivals:
        raise ValueError("need at least one length interval")
    for lo, hi in ivals:
        if lo < 1 or hi <= lo:
            raise ValueError(f"bad interval [{lo},{hi})")
    return ivals


def _eval_masked_positions(
    params: ModelParams,
    sequences: list[TokenSequence],
    vocab: Vocab,
    rng: np.random.Generator,
    batch_size: int = 64,
):
    """Yield (probs (N,V), entropies (N,), labels (N,), lengths (N,)) per eval batch."""
    for start in range(0, len(sequences), batch_size):
        chunk = sequences[start : start + batch_size]
        mb = mask_batch(chunk, vocab, rng, maxlen=params.config.maxlen)
        logits = forward(params, mb.ids, mb.pad_mask, head_positions=mb.mask_positions)
        _, probs, ent = log_softmax_entropy(logits)
        labels = mb.labels[mb.mask_positions]
        row_seq = np.nonzero(mb.mask_positions)[0]
        lengths = mb.true_lengths[row_seq]
        yield probs, ent, labels, lengths


def _interval_batches(params, sequences, vocab, intervals, per_interval_n, rng):
    """Yield ((lo, hi, closed), eval batches) per interval.

    All intervals draw their sequences from ``rng`` before any is masked.
    """
    if rng is None:
        raise ValueError("eval sampling needs an rng stream")
    intervals = _with_closed(_validate_intervals(
        intervals if intervals is not None else default_intervals(params.config.maxlen)))
    if per_interval_n < 1:
        raise ValueError("per_interval_n must be positive")
    chosen = []
    for lo, hi, closed in intervals:
        members = [s for s in sequences if _in_interval(s.length, lo, hi, closed)]
        if members:
            picks = rng.choice(len(members), size=min(per_interval_n, len(members)), replace=False)
            members = [members[int(j)] for j in picks]
        chosen.append(members)
    for interval, members in zip(intervals, chosen):
        yield interval, _eval_masked_positions(params, members, vocab, rng)


def collect_predictions(
    params: ModelParams,
    sequences: list[TokenSequence],
    vocab: Vocab,
    intervals=None,
    per_interval_n: int = DEFAULT_PER_INTERVAL_N,
    rng: np.random.Generator | None = None,
) -> dict[tuple[int, int], list[PredictionSample]]:
    """Masked-token predictions grouped by input-length interval.

    Uniformly samples up to ``per_interval_n`` sequences per interval, masks
    them with the given stream, and emits one sample per masked position
    (confidence = max probability, correct = argmax hits the original id).
    Intervals with no matching sequence map to empty lists.
    """
    out: dict[tuple[int, int], list[PredictionSample]] = {}
    for (lo, hi, _), batches in _interval_batches(params, sequences, vocab, intervals,
                                                  per_interval_n, rng):
        samples: list[PredictionSample] = []
        for probs, _, labels, lengths in batches:
            conf = probs.max(axis=1)
            pred = probs.argmax(axis=1)
            for c, ok, ln in zip(conf, pred == labels, lengths):
                samples.append(PredictionSample(float(c), bool(ok), int(ln)))
        out[(lo, hi)] = samples
    return out


@dataclass(frozen=True)
class IntervalEntropy:
    lo: int
    hi: int
    closed: bool
    count: int
    mean: float | None
    std: float | None


@dataclass(frozen=True)
class EntropyProfile:
    intervals: tuple[IntervalEntropy, ...]


def entropy_profile(
    params: ModelParams,
    sequences: list[TokenSequence],
    vocab: Vocab,
    intervals=None,
    per_interval_n: int = DEFAULT_PER_INTERVAL_N,
    rng: np.random.Generator | None = None,
) -> EntropyProfile:
    """Mean/std of masked-position prediction entropy per length interval."""
    rows = []
    for (lo, hi, closed), batches in _interval_batches(params, sequences, vocab, intervals,
                                                       per_interval_n, rng):
        ents = [ent for _, ent, _, _ in batches]
        if ents:
            all_e = np.concatenate(ents)
            rows.append(IntervalEntropy(lo, hi, closed, int(all_e.size),
                                        float(all_e.mean()), float(all_e.std())))
        else:
            rows.append(IntervalEntropy(lo, hi, closed, 0, None, None))
    return EntropyProfile(tuple(rows))


@dataclass(frozen=True)
class Evaluation:
    """One model scored per length interval; ``reports[i]`` is None when
    interval i drew no prediction."""
    intervals: list[tuple[int, int]]
    labels: list[str]
    predictions: dict[tuple[int, int], list[PredictionSample]]
    reports: list[CalibrationReport | None]
    profile: EntropyProfile


def evaluate(params: ModelParams, sequences: list[TokenSequence], vocab: Vocab,
             intervals=None, per_interval_n: int = DEFAULT_PER_INTERVAL_N,
             n_bins: int = DEFAULT_BINS, seed: int = 0) -> Evaluation:
    """Exact ECE and entropy profile per length interval for one model.

    Predictions and entropies sample and mask independently, from the seed
    streams (seed, 40) and (seed, 41).
    """
    intervals = _validate_intervals(intervals if intervals is not None
                                    else default_intervals(params.config.maxlen))
    labels = interval_labels(intervals)
    rng_pred, rng_ent = (np.random.default_rng(np.random.SeedSequence(entropy=(seed, domain)))
                         for domain in (_DOMAIN_PRED, _DOMAIN_ENT))
    predictions = collect_predictions(params, sequences, vocab, intervals, per_interval_n, rng_pred)
    profile = entropy_profile(params, sequences, vocab, intervals, per_interval_n, rng_ent)
    reports = [ece(predictions[iv], n_bins, label) if predictions[iv] else None
               for iv, label in zip(intervals, labels)]
    return Evaluation(intervals, labels, predictions, reports, profile)


def _interval_payload(intervals, reports, profile):
    payload = []
    for (lo, hi, closed), rep, ent in zip(_with_closed(intervals), reports, profile.intervals):
        payload.append({
            "label": interval_label(lo, hi, closed),
            "lo": lo, "hi": hi, "closed": closed,
            "n_samples": rep.n if rep is not None else 0,
            "ece": rep.ece if rep is not None else None,
            "entropy_count": ent.count,
            "entropy_mean": ent.mean,
            "entropy_std": ent.std,
            "bins": [
                {"lo": b.lo, "hi": b.hi, "count": b.count,
                 "mean_confidence": b.mean_confidence, "accuracy": b.accuracy}
                for b in rep.bins
            ] if rep is not None else [],
        })
    return payload


def write_report_json(path, intervals, reports, profile, meta: dict) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "ece_report",
        **meta,
        "intervals": _interval_payload(intervals, reports, profile),
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def write_report_csv(path, intervals, reports, profile) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["format_version", "interval", "n_samples", "ece",
                    "entropy_count", "entropy_mean", "entropy_std"])
        for label, rep, ent in zip(interval_labels(intervals), reports, profile.intervals):
            w.writerow([
                FORMAT_VERSION, label,
                rep.n if rep is not None else 0,
                repr(rep.ece) if rep is not None else "",
                ent.count,
                repr(ent.mean) if ent.mean is not None else "",
                repr(ent.std) if ent.std is not None else "",
            ])


def write_reliability_csv(path, intervals, reports) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["format_version", "interval", "bin_lo", "bin_hi",
                    "count", "mean_confidence", "accuracy"])
        for label, rep in zip(interval_labels(intervals), reports):
            if rep is None:
                continue
            for b in rep.bins:
                w.writerow([FORMAT_VERSION, label,
                            repr(b.lo), repr(b.hi), b.count,
                            repr(b.mean_confidence), repr(b.accuracy)])


def compare_row(mode: str, seed: int, final_loss: float, evaluation: Evaluation) -> dict:
    """One ``compare`` member: its final loss, then ECE and mean entropy per interval."""
    row: dict = {"mode": mode, "seed": seed, "final_loss": final_loss}
    for label, rep, ent in zip(evaluation.labels, evaluation.reports, evaluation.profile.intervals):
        row[f"ece {label}"] = rep.ece if rep else None
        row[f"entropy {label}"] = ent.mean
    return row


def _compare_wins(modes, seeds, labels, rows) -> dict[str, dict[str, int]]:
    # Per interval, a mode wins a seed when it attains that seed's minimum
    # ECE among the modes that finished (ties award all).
    wins = {m: {lb: 0 for lb in labels} for m in modes}
    for s in seeds:
        by_mode = {r["mode"]: r for r in rows if r is not None and r["seed"] == s}
        for lb in labels:
            values = {m: r[f"ece {lb}"] for m, r in by_mode.items() if r[f"ece {lb}"] is not None}
            if not values:
                continue
            best = min(values.values())
            for m, v in values.items():
                if v == best:
                    wins[m][lb] += 1
    return wins


def write_compare(out_dir, modes, seeds, intervals, rows, failures) -> tuple[Path, Path]:
    """Write ``compare.csv`` and ``compare.json`` into ``out_dir`` and return
    their paths. ``rows`` holds one ``compare_row`` or None (failed) per
    member, mode-major."""
    labels = interval_labels(intervals)
    metric_cols = [f"ece {lb}" for lb in labels] + [f"entropy {lb}" for lb in labels]

    def cells(row):
        return [repr(row[c]) if row[c] is not None else "" for c in metric_cols]

    wins = _compare_wins(modes, seeds, labels, rows)
    csv_path, json_path = Path(out_dir) / "compare.csv", Path(out_dir) / "compare.json"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["format_version", "mode", "seed", "final_loss"] + metric_cols)
        # Block slicing (members are mode-major) keeps a mode listed twice
        # from having its rows interleaved or written double.
        for j, m in enumerate(modes):
            block = rows[j * len(seeds):(j + 1) * len(seeds)]
            finished = []
            for s, row in zip(seeds, block):
                if row is None:
                    w.writerow([FORMAT_VERSION, m, s, "FAILED"] + [""] * len(metric_cols))
                else:
                    w.writerow([FORMAT_VERSION, m, s, repr(row["final_loss"])] + cells(row))
                    finished.append(row)
            if finished:  # aggregate row: across-seed means of each column
                agg = {"final_loss": float(np.mean([r["final_loss"] for r in finished]))}
                for col in metric_cols:
                    vals = [r[col] for r in finished if r[col] is not None]
                    agg[col] = float(np.mean(vals)) if vals else None
                w.writerow([FORMAT_VERSION, m, "mean", repr(agg["final_loss"])] + cells(agg))
        for m in modes:
            w.writerow([FORMAT_VERSION, m, "wins", ""]
                       + [wins[m][lb] for lb in labels] + [""] * len(labels))
    doc = {
        "format_version": FORMAT_VERSION, "kind": "compare_report",
        "modes": modes, "seeds": seeds, "intervals": labels,
        "rows": [r for r in rows if r is not None], "wins": wins, "failures": failures,
    }
    json_path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return csv_path, json_path
