"""Command-line interface; ``lenreg --help`` lists the subcommands.

Every command that writes into an --out directory also writes exactly one
``manifest.json`` there (resolved config, seed, input/output hashes, wall
clock); ``compare`` also writes one into each member's ``{mode}_seed{seed}``
directory with that member's resolved model, train and regularizer config.
Exit codes: 0 success, 1 usage or input error (including an unknown config
section or key), 2 numeric abort during training, 3 comparison finished
with failed members.

A ``--config`` file holds the sections ``data`` (``corpus``, ``vocab``,
``eval_corpus``, ``min_length``), ``model`` and ``train`` (the fields of
``ModelConfig`` and ``TrainConfig``, plus ``preset``) and ``regularizer``
(the fields of ``RegularizerConfig``); any other key exits 1.
``resolve_config`` applies the preset, then the file, then the flags, and
rejects ``model.seed``, ``model.vocab_size`` and ``train.regularizer``, which
it derives. ``pretrain`` and every ``compare`` member train on the corpus
filtered by ``data.min_length``. ``compare`` reads every config and input
once, before any member trains, so a bad one exits 1 without training.

``compare`` trains its members in up to ``LENREG_THREADS`` threads (default
1), which pays only with one BLAS thread per member (``OMP_NUM_THREADS=1
OPENBLAS_NUM_THREADS=1``; README, "Determinism"). A (mode, seed) pair listed
more than once is trained once; each of its rows repeats that result.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from . import calibration, compare, corpus, losses, synthetic, trainer
from .checkpoint import load_params
from .encoder import MODEL_PRESETS, ModelConfig
from .manifest import write_manifest
from .trainer import TRAIN_PRESETS, NonFiniteLossError

# The keys each config section may hold; ``preset`` names a preset table entry.
SECTION_KEYS = {
    "data": ("corpus", "vocab", "eval_corpus", "min_length"),
    "model": ("preset", *(f.name for f in dataclasses.fields(ModelConfig))),
    "train": ("preset", *(f.name for f in dataclasses.fields(trainer.TrainConfig))),
    "regularizer": tuple(f.name for f in dataclasses.fields(losses.RegularizerConfig)),
}
# --preset names both a model and a train preset.
RUN_PRESETS = sorted(set(MODEL_PRESETS) & set(TRAIN_PRESETS))
# Config keys the resolver derives, each with where its value comes from.
DERIVED_KEYS = {("model", "seed"): "train.seed (or --seed)",
                ("model", "vocab_size"): "the vocabulary",
                ("train", "regularizer"): "the regularizer section"}


class _Parser(argparse.ArgumentParser):
    # Usage errors are exit code 1; 2 is reserved for numeric aborts.
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    for name, section in doc.items():
        if name not in SECTION_KEYS:
            raise ValueError(f"{path}: unknown config section {name!r} "
                             f"(expected one of {', '.join(SECTION_KEYS)})")
        if not isinstance(section, dict):
            raise ValueError(f"{path}: config section {name!r} must be a JSON object")
        for key in section:
            if key not in SECTION_KEYS[name]:
                raise ValueError(f"{path}: unknown {name} key {key!r} "
                                 f"(expected one of {', '.join(SECTION_KEYS[name])})")
    return doc


def _parse_intervals(text: str) -> list[tuple[int, int]]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition(":")
        try:
            out.append((int(lo), int(hi)))
        except ValueError:
            raise ValueError(f"--intervals entry {part!r} is not of the form lo:hi "
                             f"(two integers, e.g. 10:50)") from None
    return out


def seed_list(text: str) -> list[int]:
    """The ``--seeds`` type: comma-separated integers (argparse names the flag on error)."""
    return [int(s) for s in text.split(",") if s.strip()]


def _preset_fields(cfg_doc: dict, section: str, preset, table: dict) -> dict:
    """The named preset's fields updated by the file section's own keys."""
    doc = dict(cfg_doc.get(section, {}))
    file_preset = doc.pop("preset", "nano")
    name = preset or file_preset
    if name not in table:
        raise ValueError(f"unknown {section} preset {name!r} "
                         f"(expected one of {', '.join(sorted(table))})")
    return {**table[name], **doc}


def resolve_config(cfg_doc: dict, vocab_size: int, *, mode=None, seed=None, preset=None, steps=None,
                   beta=None, T=None, alpha=None) -> tuple[ModelConfig, trainer.TrainConfig]:
    """Model and train config of one run: the preset, then the config file,
    then every override that is not None. The model seed is the train seed."""
    for (section, key), source in DERIVED_KEYS.items():
        if key in cfg_doc.get(section, {}):
            raise ValueError(f"config key {section}.{key} is not allowed: {source} sets it")
    reg = dict(cfg_doc.get("regularizer", {}))
    reg.update({k: v for k, v in (("mode", mode), ("beta", beta), ("T", T), ("alpha", alpha))
                if v is not None})
    regularizer = losses.RegularizerConfig(mode=losses.Mode.parse(reg.pop("mode", "mlm")), **reg)
    train_kw = _preset_fields(cfg_doc, "train", preset, TRAIN_PRESETS)
    if seed is not None:
        train_kw["seed"] = seed
    if steps is not None:
        train_kw["total_steps"] = steps
        train_kw["warmup_steps"] = min(train_kw["warmup_steps"], max(0, steps - 1))
    train_cfg = trainer.TrainConfig(regularizer=regularizer, **train_kw)
    model_kw = _preset_fields(cfg_doc, "model", preset, MODEL_PRESETS)
    return ModelConfig(vocab_size=vocab_size, seed=train_cfg.seed, **model_kw), train_cfg


def _data_path(cfg_doc: dict, args, key: str, default=None) -> Path:
    value = getattr(args, key, None) or cfg_doc.get("data", {}).get(key) or default
    if value is None:
        raise ValueError(f"missing required input: --{key.replace('_', '-')} (or data.{key} in --config)")
    return Path(value)


def cmd_build_vocab(args) -> int:
    t0 = time.time()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    units = corpus.ingest(Path(args.corpus).read_bytes())
    vocab = corpus.build_vocab(units, args.size)
    vocab_path = out_dir / "vocab.txt"
    vocab.save(vocab_path)
    write_manifest(out_dir, "build-vocab", {"size": args.size}, None,
                   [args.corpus], [vocab_path], t0, time.time())
    print(f"vocab: {vocab.size} ids ({len(vocab.tokens)} tokens + 5 reserved) -> {vocab_path}")
    return 0


def cmd_gen_corpus(args) -> int:
    t0 = time.time()
    spec = synthetic.MarkovSpec(
        n_fillers=args.fillers, n_topics=args.topics, per_topic=args.per_topic,
        n_long=args.n_long, n_keys=args.keys,
        long_min_tokens=args.long_min, long_max_tokens=args.long_max,
        tail_words=args.tail_words,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "corpus.txt"
    synthetic.write_corpus(path, spec, args.seed)
    write_manifest(out_dir, "gen-corpus", spec, args.seed, [], [path], t0, time.time())
    print(f"wrote {spec.n_short} short + {spec.n_long} long paragraphs -> {path}")
    return 0


def cmd_pretrain(args) -> int:
    t0 = time.time()
    cfg_doc = _load_config_file(args.config)
    corpus_path = _data_path(cfg_doc, args, "corpus")
    vocab_path = _data_path(cfg_doc, args, "vocab")
    vocab = corpus.Vocab.load(vocab_path)
    model_cfg, train_cfg = resolve_config(
        cfg_doc, vocab.size, mode=args.mode, seed=args.seed, preset=args.preset,
        steps=args.steps, beta=args.beta, T=args.T, alpha=args.alpha)
    sequences = corpus.load_corpus(corpus_path, vocab, model_cfg.maxlen,
                                   cfg_doc.get("data", {}).get("min_length"))

    out_dir = Path(args.out)
    result = trainer.train(model_cfg, train_cfg, sequences, vocab, out_dir)
    last = result.history[-1]
    write_manifest(
        out_dir, "pretrain",
        {"model": model_cfg, "train": train_cfg, "regularizer": result.regularizer},
        train_cfg.seed, [corpus_path, vocab_path],
        [result.checkpoint_path, result.log_path], t0, time.time(),
    )
    print(f"trained {train_cfg.total_steps} steps ({train_cfg.regularizer.mode.value}); "
          f"final loss {last.total:.4f} -> {result.checkpoint_path}")
    return 0


def cmd_eval_ece(args) -> int:
    t0 = time.time()
    params = load_params(args.checkpoint)
    vocab = corpus.Vocab.load(args.vocab)
    if vocab.size != params.config.vocab_size:
        raise ValueError(f"vocab size {vocab.size} does not match checkpoint "
                         f"({params.config.vocab_size})")
    sequences = corpus.load_corpus(args.corpus, vocab, params.config.maxlen)
    ev = calibration.evaluate(
        params, sequences, vocab, _parse_intervals(args.intervals) if args.intervals else None,
        args.n_per_interval, args.bins, args.seed)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / "report.json"
    csv_path = out_dir / "report.csv"
    rel_path = out_dir / "reliability.csv"
    meta = {"checkpoint": str(args.checkpoint), "corpus": str(args.corpus),
            "seed": args.seed, "n_bins": args.bins, "per_interval_n": args.n_per_interval}
    calibration.write_report_json(json_path, ev.intervals, ev.reports, ev.profile, meta)
    calibration.write_report_csv(csv_path, ev.intervals, ev.reports, ev.profile)
    calibration.write_reliability_csv(rel_path, ev.intervals, ev.reports)
    write_manifest(out_dir, "eval-ece", meta, args.seed,
                   [args.checkpoint, args.corpus, args.vocab],
                   [json_path, csv_path, rel_path], t0, time.time())
    for label, rep in zip(ev.labels, ev.reports):
        if rep is None:
            print(f"{label}: empty")
        else:
            print(f"{label}: n={rep.n} ece={rep.ece:.4f}")
    return 0


def cmd_gradcheck(args) -> int:
    from . import gradcheck as gc

    report = gc.run_suite(
        preset=args.preset, loss_instances=args.loss_instances,
        entries_per_tensor=args.entries_per_tensor, seed=args.seed,
    )
    ok = True
    for row in report:
        status = "PASS" if row.max_rel_err <= row.tolerance else "FAIL"
        ok = ok and status == "PASS"
        print(f"{row.family:<28s} max_rel_err={row.max_rel_err:.3e} tol={row.tolerance:.0e} {status}")
    return 0 if ok else 1


def cmd_compare(args) -> int:
    t0 = time.time()
    workers = compare.workers_from_env()
    cfg_doc = _load_config_file(args.config)
    corpus_path = _data_path(cfg_doc, args, "corpus")
    vocab_path = _data_path(cfg_doc, args, "vocab")
    eval_path = _data_path(cfg_doc, args, "eval_corpus", default=corpus_path)
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    seeds = args.seeds
    if len(modes) < 2 or not seeds:
        raise ValueError("compare needs at least two modes and one seed")
    # Members differ only in mode and seed, so they share one maxlen and one
    # read of each input, all before any trains.
    vocab = corpus.Vocab.load(vocab_path)
    configs = {(m, s): resolve_config(cfg_doc, vocab.size, mode=m, seed=s,
                                      preset=args.preset, steps=args.steps)
               for m in modes for s in seeds}
    maxlen = configs[(modes[0], seeds[0])][0].maxlen
    shared = compare.SeedInputs(
        vocab,
        corpus.load_corpus(corpus_path, vocab, maxlen, cfg_doc.get("data", {}).get("min_length")),
        corpus.load_corpus(eval_path, vocab, maxlen))
    intervals = (_parse_intervals(args.intervals) if args.intervals
                 else calibration.default_intervals(maxlen))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = [corpus_path, vocab_path, eval_path]
    rows, failures = compare.run_members(
        modes, seeds, configs, dict.fromkeys(seeds, shared), intervals, args.n_per_interval,
        args.bins, workers=workers, out_dir=out_dir, manifest_inputs=inputs)

    outputs = calibration.write_compare(out_dir, modes, seeds, intervals, rows, failures)
    write_manifest(out_dir, "compare",
                   {"modes": modes, "seeds": seeds,
                    "train": {"preset": args.preset, "steps": args.steps}},
                   seeds, inputs, outputs, t0, time.time())
    for line in failures:
        print(f"FAILED member: {line}", file=sys.stderr)
    print(f"compare table -> {outputs[0]}")
    return 3 if failures else 0


def build_parser() -> _Parser:
    parser = _Parser(prog="lenreg", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-vocab", help="build a frequency-ranked vocabulary")
    p.add_argument("--corpus", required=True)
    p.add_argument("--size", type=int, default=8192, help="total ids incl. 5 reserved")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("gen-corpus", help="generate the synthetic Markov corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fillers", type=int, default=8)
    p.add_argument("--topics", type=int, default=128)
    p.add_argument("--per-topic", type=int, default=4)
    p.add_argument("--n-long", type=int, default=1120)
    p.add_argument("--keys", type=int, default=8)
    p.add_argument("--long-min", type=int, default=120)
    p.add_argument("--long-max", type=int, default=126)
    p.add_argument("--tail-words", type=int, default=32)
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("pretrain", help="train one model")
    p.add_argument("--config", help="JSON config file (flags override)")
    p.add_argument("--corpus")
    p.add_argument("--vocab")
    p.add_argument("--mode", choices=[m.value for m in losses.Mode])
    p.add_argument("--beta", type=float)
    p.add_argument("--T", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--preset", choices=RUN_PRESETS)
    p.add_argument("--seed", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("eval-ece", help="length-sliced calibration report")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--intervals", help='e.g. "10:50,50:200,200:512" (last is closed)')
    p.add_argument("--n-per-interval", type=int, default=calibration.DEFAULT_PER_INTERVAL_N)
    p.add_argument("--bins", type=int, default=calibration.DEFAULT_BINS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval_ece)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--preset", choices=sorted(MODEL_PRESETS), default="nano")
    p.add_argument("--loss-instances", type=int, default=200)
    p.add_argument("--entries-per-tensor", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("compare", help="train and evaluate several modes/seeds")
    p.add_argument("--config")
    p.add_argument("--corpus")
    p.add_argument("--vocab")
    p.add_argument("--eval-corpus", dest="eval_corpus",
                   help="held-out corpus for calibration (defaults to --corpus)")
    p.add_argument("--modes", required=True, help="comma-separated mode list")
    p.add_argument("--seeds", required=True, type=seed_list, help="comma-separated seed list")
    p.add_argument("--preset", choices=RUN_PRESETS)
    p.add_argument("--steps", type=int)
    p.add_argument("--intervals")
    p.add_argument("--n-per-interval", type=int, default=calibration.DEFAULT_PER_INTERVAL_N)
    p.add_argument("--bins", type=int, default=calibration.DEFAULT_BINS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except NonFiniteLossError as e:
        print(f"numeric abort: {e}", file=sys.stderr)
        return 2
    except (OSError, ValueError, IndexError, KeyError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
