"""Correctness checks applied to every benchmark round.

Each check returns a list of problem descriptions; an empty list means the
check passed. The checks test independent computations or properties the
method must have, never stored copies of earlier output. This module does
not import lenreg, so it can be tested on hand-worked cases alone.
"""

from __future__ import annotations

import math
from fractions import Fraction

ECE_TOLERANCE = 1e-12


def trained_tokens(sequences, epochs: int) -> int:
    """Real tokens ([CLS]/[SEP] included, padding excluded) seen by a run
    that covers every sequence once per epoch."""
    return epochs * sum(s.length for s in sequences)


def exact_ece(samples, n_bins: int) -> tuple[float, list[int]]:
    """ECE computed as (1/n) * sum over bins of |sum(correct_i - conf_i)|.

    That is the same quantity as sum_b (n_b/n) |acc_b - conf_b|, reached by
    another route. Bins are equal-width over [0, 1]; a confidence on an
    edge m/M belongs to bin m (the upper one), except 1.0, which stays in
    the top bin. Binning and sums use exact rationals, so the value is
    rounded once. Returns the ECE and the per-bin sample counts.
    """
    counts = [0] * n_bins
    excess = [Fraction(0)] * n_bins
    for s in samples:
        c = Fraction(s.confidence)
        b = min(n_bins - 1, math.floor(c * n_bins))
        counts[b] += 1
        excess[b] += int(bool(s.correct)) - c
    n = sum(counts)
    if n == 0:
        raise ValueError("no samples")
    return float(sum(abs(e) for e in excess) / n), counts


def ece_problems(label: str, samples, report) -> list[str]:
    """Compare a library ECE report with the independent recomputation."""
    value, counts = exact_ece(samples, report.n_bins)
    problems = []
    if report.n != len(samples) or [b.count for b in report.bins] != counts:
        problems.append(f"ece {label}: bin counts {[b.count for b in report.bins]} "
                        f"(n={report.n}) differ from recomputed {counts} (n={len(samples)})")
    if not abs(report.ece - value) <= ECE_TOLERANCE:
        problems.append(f"ece {label}: {report.ece!r} differs from recomputed {value!r}")
    return problems


def entropy_problems(profile, vocab_size: int) -> list[str]:
    top = math.log(vocab_size)
    return [
        f"entropy mean {row.mean!r} of [{row.lo},{row.hi}) outside [0, ln V={top:.6f}]"
        for row in profile.intervals
        if row.count and not (0.0 <= row.mean <= top)
    ]


def training_problems(history, *, maxlen: int, allowed_lengths, masked_bounds=None,
                      expect_decrease: bool = False) -> list[str]:
    """Per-step properties of a training history.

    ``allowed_lengths``: predicate on the batch's longest true length,
    recovered exactly as ratio_r * maxlen (maxlen is a power of two).
    ``masked_bounds``: inclusive (lo, hi) for each step's masked count.
    ``expect_decrease``: the mean loss of the final fifth of steps must lie
    below that of the first fifth.
    """
    problems = []
    for rec in history:
        where = f"step {rec.step}"
        terms = (rec.total, rec.ce_term, rec.penalty_term)
        if not all(math.isfinite(x) for x in terms):
            problems.append(f"{where}: non-finite loss terms {terms}")
            continue
        if not math.isclose(rec.total, rec.ce_term + rec.penalty_term,
                            rel_tol=1e-12, abs_tol=1e-12):
            problems.append(f"{where}: total {rec.total!r} != ce {rec.ce_term!r} "
                            f"+ penalty {rec.penalty_term!r}")
        if rec.penalty_term < 0.0:
            problems.append(f"{where}: negative penalty {rec.penalty_term!r}")
        if not 0.0 <= rec.hinge_active_fraction <= 1.0:
            problems.append(f"{where}: hinge fraction {rec.hinge_active_fraction!r} outside [0, 1]")
        longest = rec.ratio_r * maxlen
        if longest != int(longest) or not allowed_lengths(int(longest)):
            problems.append(f"{where}: ratio_r {rec.ratio_r!r} (longest {longest}) not allowed")
        if masked_bounds is not None and not masked_bounds[0] <= rec.masked_count <= masked_bounds[1]:
            problems.append(f"{where}: masked_count {rec.masked_count} outside {masked_bounds}")
    if expect_decrease:
        k = max(1, len(history) // 5)
        first = sum(r.total for r in history[:k]) / k
        last = sum(r.total for r in history[-k:]) / k
        if not last < first:
            problems.append(f"mean loss of the last {k} steps {last:.4f} is not below "
                            f"that of the first {k} steps {first:.4f}")
    return problems


def tensor_problems(expected: dict, actual: dict) -> list[str]:
    """Bitwise equality of two name -> array maps."""
    problems = []
    if list(expected) != list(actual):
        return [f"tensor names differ: {sorted(set(expected) ^ set(actual))}"]
    for name, a in expected.items():
        b = actual[name]
        if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
            problems.append(f"tensor {name} differs after reload")
    return problems


def audit_problems(families, required=()) -> list[str]:
    problems = [
        f"{f.family}: max_rel_err {f.max_rel_err:.3e} above tolerance {f.tolerance:.0e}"
        for f in families if not f.max_rel_err <= f.tolerance
    ]
    present = {f.family for f in families}
    problems += [f"audit family {name} missing" for name in required if name not in present]
    return problems
