"""Command-line interface.

Subcommands:

    build-vocab   frequency-ranked vocabulary from a corpus file
    gen-corpus    synthetic Markov corpus with a length-controlled slot
    pretrain      train one model under a chosen objective
    eval-ece      length-sliced ECE + entropy profile for a checkpoint
    gradcheck     finite-difference audit of analytic gradients
    compare       A/B training runs across modes and seeds

Every command that writes into an --out directory also writes exactly one
``manifest.json`` there (resolved config, seed, input/output hashes, wall
clock). Exit codes: 0 success, 1 usage or input error, 2 numeric abort
during training, 3 comparison finished with failed members.

``LENREG_THREADS`` bounds worker parallelism in ``compare`` (default 1).
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime as _dt
import enum
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import calibration, corpus, losses, synthetic, trainer
from .checkpoint import load_params
from .encoder import MODEL_PRESETS, ModelConfig, preset_config
from .trainer import TRAIN_PRESETS, NonFiniteLossError

MANIFEST_VERSION = 1


class _Parser(argparse.ArgumentParser):
    # Usage errors are exit code 1; 2 is reserved for numeric aborts.
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Path):
        return str(obj)
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_manifest(out_dir: Path, command: str, config_doc, seed, inputs, outputs, t0, t1) -> None:
    doc = {
        "format_version": MANIFEST_VERSION,
        "command": command,
        "config": _jsonable(config_doc),
        "seed": seed,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(p): _sha256(p) for p in outputs},
        "started_utc": _dt.datetime.fromtimestamp(t0, _dt.timezone.utc).isoformat(),
        "duration_seconds": round(t1 - t0, 3),
    }
    (out_dir / "manifest.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return doc


def _parse_intervals(text: str) -> list[tuple[int, int]]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition(":")
        out.append((int(lo), int(hi)))
    return out


def _resolve_regularizer(cfg_doc: dict, args) -> losses.RegularizerConfig:
    reg = dict(cfg_doc.get("regularizer", {}))
    if getattr(args, "mode", None):
        reg["mode"] = args.mode
    if getattr(args, "beta", None) is not None:
        reg["beta"] = args.beta
    if getattr(args, "T", None) is not None:
        reg["T"] = args.T
    if getattr(args, "alpha", None) is not None:
        reg["alpha"] = args.alpha
    mode = losses.Mode.parse(reg.pop("mode", "mlm"))
    return losses.RegularizerConfig(mode=mode, **reg)


def _resolve_train_config(cfg_doc: dict, args, regularizer) -> trainer.TrainConfig:
    doc = dict(cfg_doc.get("train", {}))
    preset = getattr(args, "preset", None) or doc.pop("preset", "nano")
    if preset not in TRAIN_PRESETS:
        raise ValueError(f"unknown preset {preset!r}")
    kw = dict(TRAIN_PRESETS[preset])
    kw.update(doc)
    if getattr(args, "seed", None) is not None:
        kw["seed"] = args.seed
    if getattr(args, "steps", None) is not None:
        kw["total_steps"] = args.steps
        kw["warmup_steps"] = min(kw["warmup_steps"], max(0, args.steps - 1))
    return trainer.TrainConfig(regularizer=regularizer, **kw)


def _resolve_model_config(cfg_doc: dict, args, vocab_size: int, seed: int) -> ModelConfig:
    doc = dict(cfg_doc.get("model", {}))
    preset = getattr(args, "preset", None) or doc.pop("preset", "nano")
    if preset not in MODEL_PRESETS:
        raise ValueError(f"unknown preset {preset!r}")
    return preset_config(preset, vocab_size=vocab_size, seed=seed, **doc)


def _data_path(cfg_doc: dict, args, key: str, flag: str, required: bool = True):
    value = getattr(args, flag, None)
    if value is None:
        value = cfg_doc.get("data", {}).get(key)
    if value is None and required:
        raise ValueError(f"missing required input: --{flag.replace('_', '-')} (or data.{key} in --config)")
    return Path(value) if value is not None else None


def cmd_build_vocab(args) -> int:
    t0 = time.time()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    units = corpus.ingest(Path(args.corpus).read_bytes())
    vocab = corpus.build_vocab(units, args.size)
    vocab_path = out_dir / "vocab.txt"
    vocab.save(vocab_path)
    _write_manifest(out_dir, "build-vocab", {"size": args.size}, None,
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
    _write_manifest(out_dir, "gen-corpus", spec, args.seed, [], [path], t0, time.time())
    print(f"wrote {spec.n_short} short + {spec.n_long} long paragraphs -> {path}")
    return 0


def cmd_pretrain(args) -> int:
    t0 = time.time()
    cfg_doc = _load_config_file(args.config)
    corpus_path = _data_path(cfg_doc, args, "corpus", "corpus")
    vocab_path = _data_path(cfg_doc, args, "vocab", "vocab")
    vocab = corpus.Vocab.load(vocab_path)
    regularizer = _resolve_regularizer(cfg_doc, args)
    train_cfg = _resolve_train_config(cfg_doc, args, regularizer)
    model_cfg = _resolve_model_config(cfg_doc, args, vocab.size, train_cfg.seed)
    min_length = cfg_doc.get("data", {}).get("min_length")
    sequences = corpus.load_corpus(corpus_path, vocab, model_cfg.maxlen, min_length)

    out_dir = Path(args.out)
    result = trainer.train(model_cfg, train_cfg, sequences, vocab, out_dir)
    last = result.history[-1]
    _write_manifest(
        out_dir, "pretrain",
        {"model": model_cfg, "train": train_cfg, "regularizer": result.regularizer},
        train_cfg.seed, [corpus_path, vocab_path],
        [result.checkpoint_path, result.log_path], t0, time.time(),
    )
    print(f"trained {train_cfg.total_steps} steps ({regularizer.mode.value}); "
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
    _write_manifest(out_dir, "eval-ece", meta, args.seed,
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


def _compare_member(member_args) -> dict:
    (mode_name, seed, cfg_doc, train_doc_args, corpus_path, vocab_path,
     eval_path, out_dir, intervals, n_per_interval, bins) = member_args
    vocab = corpus.Vocab.load(vocab_path)
    regularizer = _resolve_regularizer(cfg_doc, argparse.Namespace(mode=mode_name))
    ns = argparse.Namespace(preset=train_doc_args.get("preset"),
                            seed=seed, steps=train_doc_args.get("steps"))
    train_cfg = _resolve_train_config(cfg_doc, ns, regularizer)
    model_cfg = _resolve_model_config(cfg_doc, ns, vocab.size, seed)
    sequences = corpus.load_corpus(corpus_path, vocab, model_cfg.maxlen)
    run_dir = out_dir / f"{mode_name}_seed{seed}"
    result = trainer.train(model_cfg, train_cfg, sequences, vocab, run_dir)

    eval_sequences = corpus.load_corpus(eval_path, vocab, model_cfg.maxlen)
    ev = calibration.evaluate(result.params, eval_sequences, vocab, intervals,
                              n_per_interval, bins, seed)
    return calibration.compare_row(mode_name, seed, result.history[-1].total, ev)


def cmd_compare(args) -> int:
    t0 = time.time()
    cfg_doc = _load_config_file(args.config)
    corpus_path = _data_path(cfg_doc, args, "corpus", "corpus")
    vocab_path = _data_path(cfg_doc, args, "vocab", "vocab")
    eval_path = _data_path(cfg_doc, args, "eval_corpus", "eval_corpus", required=False) or corpus_path
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    if len(modes) < 2 or not seeds:
        raise ValueError("compare needs at least two modes and one seed")
    for m in modes:
        losses.Mode.parse(m)
    vocab_probe = corpus.Vocab.load(vocab_path)
    maxlen = _resolve_model_config(cfg_doc, args, vocab_probe.size, 0).maxlen
    intervals = (_parse_intervals(args.intervals) if args.intervals
                 else calibration.default_intervals(maxlen))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_doc_args = {"preset": args.preset, "steps": args.steps}
    members = [(m, s) for m in modes for s in seeds]
    payloads = [
        (m, s, cfg_doc, train_doc_args, corpus_path, vocab_path, eval_path,
         out_dir, intervals, args.n_per_interval, args.bins)
        for (m, s) in members
    ]
    workers = max(1, int(os.environ.get("LENREG_THREADS", "1")))
    rows: list[dict | None] = [None] * len(members)
    failures: list[str] = []
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_compare_member, p) for p in payloads]
        for i, fut in enumerate(futures):
            try:
                rows[i] = fut.result()
            except Exception as e:  # keep the table; note the failure
                failures.append(f"{members[i][0]} seed {members[i][1]}: {e}")

    csv_path = out_dir / "compare.csv"
    json_path = out_dir / "compare.json"
    calibration.write_compare_csv(csv_path, modes, seeds, intervals, rows)
    calibration.write_compare_json(json_path, modes, seeds, intervals, rows, failures)
    _write_manifest(out_dir, "compare",
                    {"modes": modes, "seeds": seeds, "train": train_doc_args},
                    seeds, [corpus_path, vocab_path, eval_path],
                    [csv_path, json_path], t0, time.time())
    for line in failures:
        print(f"FAILED member: {line}", file=sys.stderr)
    print(f"compare table -> {csv_path}")
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
    p.add_argument("--preset", choices=sorted(TRAIN_PRESETS))
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
    p.add_argument("--seeds", required=True, help="comma-separated seed list")
    p.add_argument("--preset", choices=sorted(TRAIN_PRESETS))
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
