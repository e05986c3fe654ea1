import math
import os
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest

from lenreg.corpus import encode, ingest
from lenreg.synthetic import (
    MarkovSpec,
    classify_unit,
    generate_corpus,
    length_skew_corpus,
)

from conftest import rng_of

SPEC = MarkovSpec()


@pytest.fixture(scope="module")
def units():
    return ingest(generate_corpus(SPEC, seed=7))


def _split(units):
    short, long_ = [], []
    for u in units:
        kind, ctx, filler = classify_unit(u)
        (short if kind == "short" else long_).append((ctx, filler, u))
    return short, long_


def test_spec_validation():
    with pytest.raises(ValueError):
        MarkovSpec(n_fillers=3)
    with pytest.raises(ValueError):
        MarkovSpec(n_topics=9, per_topic=1, n_fillers=8)  # 9 units across 8 fillers
    with pytest.raises(ValueError):
        MarkovSpec(long_min_tokens=10, long_max_tokens=9)
    with pytest.raises(ValueError):
        MarkovSpec(tail_words=14)  # shares a factor with the rotation stride
    assert SPEC.short_slot_entropy == math.log(8)


def test_unit_counts(units):
    short, long_ = _split(units)
    assert len(short) == SPEC.n_short == 512
    assert len(long_) == SPEC.n_long == 1120


def test_short_fillers_exactly_balanced(units):
    # the slot's marginal distribution is uniform by construction, so the
    # ground-truth entropy is exactly ln(n_fillers)
    short, _ = _split(units)
    counts = Counter(filler for _, filler, _ in short)
    assert set(counts) == {f"ans{i:02d}" for i in range(8)}
    assert all(c == SPEC.n_short // 8 for c in counts.values())
    topic_counts = Counter(ctx for ctx, _, _ in short)
    assert all(c == SPEC.per_topic for c in topic_counts.values())
    assert len(topic_counts) == SPEC.n_topics


def test_long_filler_is_a_function_of_the_key(units):
    _, long_ = _split(units)
    by_key = defaultdict(set)
    for key, filler, _ in long_:
        by_key[key].add(filler)
    assert len(by_key) == SPEC.n_keys
    for key, fillers in by_key.items():
        k = int(key.removeprefix("case"))
        assert fillers == {f"ans{k % SPEC.n_fillers:02d}"}


def test_long_lengths_cycle_evenly(units):
    _, long_ = _split(units)
    lengths = Counter(len(u.split()) + 2 for _, _, u in long_)
    assert set(lengths) == set(range(120, 127))
    assert all(c == SPEC.n_long // 7 for c in lengths.values())


def test_short_units_are_two_words(units):
    short, _ = _split(units)
    assert all(len(u.split()) == 2 for _, _, u in short)


def test_encoded_lengths_match_word_counts(units, markov_vocab):
    for u in units[::97]:
        assert encode(u, markov_vocab, 128).length == len(u.split()) + 2


def test_classify_unit_rejects_foreign_text():
    with pytest.raises(ValueError):
        classify_unit("hello world")
    with pytest.raises(ValueError):
        classify_unit("topic000 body00")  # slot word is not a filler
    assert classify_unit("case03 body00 ans03") == ("long", "case03", "ans03")


def test_generate_corpus_deterministic():
    assert generate_corpus(SPEC, seed=11) == generate_corpus(SPEC, seed=11)
    assert generate_corpus(SPEC, seed=11) != generate_corpus(SPEC, seed=12)


def test_held_out_split_shares_long_units_but_not_short_assignments():
    a_short, a_long = _split(ingest(generate_corpus(SPEC, seed=1)))
    b_short, b_long = _split(ingest(generate_corpus(SPEC, seed=2)))
    assert {u for _, _, u in a_long} == {u for _, _, u in b_long}
    a_map = sorted((ctx, filler) for ctx, filler, _ in a_short)
    b_map = sorted((ctx, filler) for ctx, filler, _ in b_short)
    assert a_map != b_map  # fresh filler draw per seed
    assert Counter(f for _, f in a_map) == Counter(f for _, f in b_map)


def test_bundled_fixtures_match_regeneration(markov_units):
    assert markov_units == ingest(generate_corpus(MarkovSpec(), seed=42))


def test_length_skew_uniform_range():
    text = length_skew_corpus(n_units=2048, min_tokens=8, max_tokens=128, seed=0)
    units = ingest(text)
    assert len(units) == 2048
    lengths = [len(u.split()) + 2 for u in units]
    assert min(lengths) >= 8 and max(lengths) <= 128
    assert len(set(lengths)) > 110  # near-complete coverage of 121 levels
    # uniform draw: mean near the midpoint, spread near (b-a)/sqrt(12)
    assert abs(np.mean(lengths) - 68) < 3
    assert abs(np.std(lengths) - 121 / math.sqrt(12)) < 3


def test_length_skew_deterministic_and_validated():
    assert length_skew_corpus(n_units=16, seed=3) == length_skew_corpus(n_units=16, seed=3)
    with pytest.raises(ValueError):
        length_skew_corpus(min_tokens=2)
    with pytest.raises(ValueError):
        length_skew_corpus(min_tokens=20, max_tokens=10)


def test_bundled_fixtures_match_generator():
    # data/ is what scripts/gen_fixtures.py writes; --check regenerates in memory.
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(root / "scripts" / "gen_fixtures.py"), "--check"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(": ok (") == 3
