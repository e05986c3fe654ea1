"""Command flows, run in process through cli.main.

Covers the exit-code contract (0 ok, 1 usage/input, 2 numeric abort,
3 partial comparison failure), flag-over-config precedence, one manifest
per output directory, and byte-level determinism of report artifacts.
"""

import csv
import json

import pytest

from lenreg import cli, losses, trainer
from lenreg.corpus import build_vocab, ingest


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    """Toy corpus + vocab on disk and a config file sized for fast runs."""
    root = tmp_path_factory.mktemp("cli")
    units = [f"w{i} w{(i * 7) % 23} w{(i * 3) % 23} w{i % 5}" for i in range(48)]
    (root / "corpus.txt").write_text("\n\n".join(units) + "\n", encoding="utf-8")
    build_vocab(units, 64).save(root / "vocab.txt")
    config = {
        "data": {"corpus": str(root / "corpus.txt"), "vocab": str(root / "vocab.txt")},
        "model": {"preset": "nano", "maxlen": 16, "hidden_size": 16,
                  "num_heads": 2, "ffn_size": 32},
        "train": {"total_steps": 8, "warmup_steps": 2, "log_every": 4, "seed": 3},
        "regularizer": {"mode": "cp-l", "beta": 2.0},
    }
    (root / "config.json").write_text(json.dumps(config), encoding="utf-8")
    return root


@pytest.fixture(scope="session")
def pretrain_run(workdir, tmp_path_factory):
    out = tmp_path_factory.mktemp("pretrained")
    rc = cli.main(["pretrain", "--config", str(workdir / "config.json"),
                   "--out", str(out)])
    assert rc == 0
    return out


def _manifests(root):
    return sorted(root.rglob("manifest.json"))


# ---------------------------------------------------------------- build-vocab

def test_build_vocab_writes_file_and_manifest(workdir, tmp_path):
    rc = cli.main(["build-vocab", "--corpus", str(workdir / "corpus.txt"),
                   "--size", "16", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "vocab.txt").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 16 - 5
    assert _manifests(tmp_path) == [tmp_path / "manifest.json"]
    doc = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    assert doc["format_version"] == 1
    assert doc["command"] == "build-vocab"
    for digest in {**doc["inputs"], **doc["outputs"]}.values():
        assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")


def test_build_vocab_bytes_deterministic(workdir, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli.main(["build-vocab", "--corpus", str(workdir / "corpus.txt"),
                         "--size", "32", "--out", str(out)]) == 0
    assert (a / "vocab.txt").read_bytes() == (b / "vocab.txt").read_bytes()


def test_build_vocab_rejects_size_without_room(workdir, tmp_path, capsys):
    rc = cli.main(["build-vocab", "--corpus", str(workdir / "corpus.txt"),
                   "--size", "5", "--out", str(tmp_path)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_missing_input_file_is_exit_1(tmp_path):
    rc = cli.main(["build-vocab", "--corpus", str(tmp_path / "nope.txt"),
                   "--out", str(tmp_path)])
    assert rc == 1


# ----------------------------------------------------------------- gen-corpus

def test_gen_corpus_deterministic_and_parseable(tmp_path):
    args = ["gen-corpus", "--seed", "9", "--topics", "8", "--per-topic", "2",
            "--n-long", "6", "--keys", "3"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert (a / "corpus.txt").read_bytes() == (b / "corpus.txt").read_bytes()
    assert len(ingest((a / "corpus.txt").read_bytes())) == 8 * 2 + 6
    assert _manifests(a) == [a / "manifest.json"]


# --------------------------------------------------------------- usage errors

def test_unknown_subcommand_is_exit_1(capsys):
    assert cli.main(["frobnicate"]) == 1
    capsys.readouterr()


def test_missing_required_flag_is_exit_1(capsys):
    assert cli.main(["pretrain"]) == 1  # no --out
    capsys.readouterr()


def test_bad_mode_value_is_exit_1(workdir, tmp_path, capsys):
    rc = cli.main(["pretrain", "--config", str(workdir / "config.json"),
                   "--mode", "entropy-max", "--out", str(tmp_path)])
    assert rc == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


# ------------------------------------------------------------------- pretrain

def test_pretrain_outputs(pretrain_run):
    assert (pretrain_run / "final.ckpt").exists()
    text = (pretrain_run / "train_log.jsonl").read_text(encoding="utf-8")
    steps = [json.loads(line)["step"] for line in text.splitlines()]
    assert steps == [0, 4, 7]  # every log_every, plus the last step
    assert _manifests(pretrain_run) == [pretrain_run / "manifest.json"]


def test_pretrain_flags_override_config(workdir, tmp_path):
    rc = cli.main(["pretrain", "--config", str(workdir / "config.json"),
                   "--mode", "mlm", "--seed", "9", "--steps", "6",
                   "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    assert doc["config"]["regularizer"]["mode"] == "mlm"  # file said cp-l
    assert doc["config"]["train"]["seed"] == 9
    assert doc["config"]["train"]["total_steps"] == 6
    assert doc["seed"] == 9


def test_pretrain_without_data_is_exit_1(tmp_path, capsys):
    rc = cli.main(["pretrain", "--out", str(tmp_path)])
    assert rc == 1
    assert "missing required input" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the blow-up is the point
def test_pretrain_numeric_abort_is_exit_2(workdir, tmp_path, capsys):
    cfg = json.loads((workdir / "config.json").read_text(encoding="utf-8"))
    cfg["train"].update(total_steps=40, warmup_steps=1, peak_lr=1e6, batch_size=4,
                        seed=11)
    cfg["regularizer"] = {"mode": "cp", "beta": 6.0}
    boom = tmp_path / "boom.json"
    boom.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "run"
    rc = cli.main(["pretrain", "--config", str(boom), "--out", str(out)])
    assert rc == 2
    assert "numeric abort" in capsys.readouterr().err
    assert list(out.glob("diagnostic_step*.npz"))


# ------------------------------------------------------------------- eval-ece

def test_eval_ece_reports_and_determinism(workdir, pretrain_run, tmp_path):
    base = ["eval-ece", "--checkpoint", str(pretrain_run / "final.ckpt"),
            "--corpus", str(workdir / "corpus.txt"),
            "--vocab", str(workdir / "vocab.txt"),
            "--intervals", "3:8,8:16", "--n-per-interval", "20",
            "--bins", "10", "--seed", "4"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(base + ["--out", str(a)]) == 0
    assert cli.main(base + ["--out", str(b)]) == 0
    for name in ("report.json", "report.csv", "reliability.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    doc = json.loads((a / "report.json").read_text(encoding="utf-8"))
    assert doc["format_version"] == 1 and doc["kind"] == "ece_report"
    # all toy paragraphs are 6 tokens, so the second slice stays empty;
    # n_samples counts masked positions, at least one per sampled text
    assert doc["intervals"][0]["n_samples"] >= 20
    assert doc["intervals"][1]["n_samples"] == 0
    assert doc["intervals"][1]["ece"] is None
    assert _manifests(a) == [a / "manifest.json"]


def test_eval_ece_vocab_mismatch_is_exit_1(workdir, pretrain_run, tmp_path, capsys):
    units = ingest((workdir / "corpus.txt").read_bytes())
    build_vocab(units, 10).save(tmp_path / "small.txt")
    rc = cli.main(["eval-ece", "--checkpoint", str(pretrain_run / "final.ckpt"),
                   "--corpus", str(workdir / "corpus.txt"),
                   "--vocab", str(tmp_path / "small.txt"),
                   "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "does not match" in capsys.readouterr().err


def test_eval_ece_missing_checkpoint_is_exit_1(workdir, tmp_path):
    rc = cli.main(["eval-ece", "--checkpoint", str(tmp_path / "nope.ckpt"),
                   "--corpus", str(workdir / "corpus.txt"),
                   "--vocab", str(workdir / "vocab.txt"),
                   "--out", str(tmp_path / "out")])
    assert rc == 1


# ------------------------------------------------------------------ gradcheck

def test_gradcheck_passes_and_prints_families(capsys):
    rc = cli.main(["gradcheck", "--loss-instances", "30",
                   "--entries-per-tensor", "2", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "loss[mlm]" in out and "max_rel_err" in out
    assert "FAIL" not in out


def test_gradcheck_catches_injected_sign_flip(monkeypatch, capsys):
    # A sign error in dH/dz reaches every entropy mode (cp, cp-l, cp-avg-l).
    entropy_grad = losses._entropy_grad
    monkeypatch.setattr(losses, "_entropy_grad", lambda *a: -entropy_grad(*a))
    rc = cli.main(["gradcheck", "--loss-instances", "30",
                   "--entries-per-tensor", "2", "--seed", "1"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


# -------------------------------------------------------------------- compare

@pytest.fixture()
def compare_args(workdir):
    return ["compare", "--config", str(workdir / "config.json"),
            "--modes", "mlm,cp-l", "--seeds", "1,2",
            "--steps", "6", "--intervals", "3:8,8:16",
            "--n-per-interval", "10", "--bins", "5"]


def test_compare_table_layout(compare_args, tmp_path, capsys):
    out = tmp_path / "cmp"
    assert cli.main(compare_args + ["--out", str(out)]) == 0
    capsys.readouterr()
    with open(out / "compare.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:4] == ["format_version", "mode", "seed", "final_loss"]
    assert [r[1:3] for r in rows[1:]] == [
        ["mlm", "1"], ["mlm", "2"], ["mlm", "mean"],
        ["cp-l", "1"], ["cp-l", "2"], ["cp-l", "mean"],
        ["mlm", "wins"], ["cp-l", "wins"],
    ]
    doc = json.loads((out / "compare.json").read_text(encoding="utf-8"))
    assert doc["kind"] == "compare_report"
    assert doc["failures"] == [] and len(doc["rows"]) == 4
    # member run dirs live under out/, one manifest per directory
    assert _manifests(out) == sorted(
        [out / "manifest.json"]
        + [out / f"{m}_seed{s}" / "manifest.json" for m in ("mlm", "cp-l") for s in (1, 2)])


def test_compare_threads_do_not_change_bytes(compare_args, tmp_path, monkeypatch, capsys):
    a, b = tmp_path / "serial", tmp_path / "threaded"
    monkeypatch.setenv("LENREG_THREADS", "1")
    assert cli.main(compare_args + ["--out", str(a)]) == 0
    monkeypatch.setenv("LENREG_THREADS", "4")
    assert cli.main(compare_args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert (a / "compare.csv").read_bytes() == (b / "compare.csv").read_bytes()
    assert (a / "compare.json").read_bytes() == (b / "compare.json").read_bytes()


def test_compare_partial_failure_is_exit_3(compare_args, tmp_path, capsys):
    out = tmp_path / "cmp"
    out.mkdir()
    (out / "cp-l_seed2").write_text("road block", encoding="utf-8")
    rc = cli.main(compare_args + ["--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "FAILED member" in err and "cp-l seed 2" in err
    with open(out / "compare.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    failed = [r for r in rows if r[1:3] == ["cp-l", "2"]]
    assert failed and failed[0][3] == "FAILED"
    doc = json.loads((out / "compare.json").read_text(encoding="utf-8"))
    assert doc["failures"] and len(doc["rows"]) == 3


def test_compare_duplicate_mode_rows_identical(workdir, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("LENREG_THREADS", raising=False)
    out = tmp_path / "dup"
    rc = cli.main(["compare", "--config", str(workdir / "config.json"),
                   "--modes", "mlm,mlm", "--seeds", "1", "--steps", "4",
                   "--intervals", "3:8,8:16", "--n-per-interval", "5",
                   "--bins", "5", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    with open(out / "compare.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    # header, (member, mean) twice, wins twice
    assert len(rows) == 7
    assert rows[1] == rows[3] and rows[2] == rows[4]
    assert rows[5] == rows[6]


def test_compare_honours_regularizer_section(workdir, tmp_path, monkeypatch, capsys):
    cfg = json.loads((workdir / "config.json").read_text(encoding="utf-8"))
    cfg["regularizer"] = {"mode": "cp-l", "beta": 6}
    path = tmp_path / "beta6.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    seen = []
    real_train = trainer.train

    def spy(model_cfg, train_cfg, *args, **kwargs):
        seen.append(train_cfg.regularizer)
        return real_train(model_cfg, train_cfg, *args, **kwargs)

    monkeypatch.setattr(trainer, "train", spy)
    rc = cli.main(["compare", "--config", str(path), "--modes", "mlm,cp-l",
                   "--seeds", "1", "--steps", "2", "--intervals", "3:8,8:16",
                   "--n-per-interval", "5", "--bins", "5", "--out", str(tmp_path / "cmp")])
    assert rc == 0
    capsys.readouterr()
    assert sorted(r.mode.value for r in seen) == ["cp-l", "mlm"]  # --modes beats the file
    assert all(r.beta == 6.0 for r in seen)


def test_compare_member_manifests_record_resolved_config(workdir, tmp_path, capsys):
    cfg = json.loads((workdir / "config.json").read_text(encoding="utf-8"))
    cfg["regularizer"] = {"mode": "cp-l", "beta": 6}
    path = tmp_path / "beta6.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "cmp"
    rc = cli.main(["compare", "--config", str(path), "--modes", "mlm,cp-l",
                   "--seeds", "1", "--steps", "2", "--intervals", "3:8,8:16",
                   "--n-per-interval", "5", "--bins", "5", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    for mode in ("mlm", "cp-l"):
        run_dir = out / f"{mode}_seed1"
        doc = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
        assert doc["command"] == "compare-member"
        config = doc["config"]
        assert config["regularizer"]["mode"] == mode
        assert config["regularizer"]["beta"] == 6.0
        assert config["train"]["regularizer"] == config["regularizer"]
        assert config["train"]["total_steps"] == 2 and config["train"]["seed"] == 1
        assert config["model"]["hidden_size"] == 16 and config["model"]["seed"] == 1
        assert config["eval"] == {"intervals": [[3, 8], [8, 16]], "per_interval_n": 5,
                                  "n_bins": 5, "seed": 1}
        assert set(doc["outputs"]) == {str(run_dir / "final.ckpt"),
                                       str(run_dir / "train_log.jsonl")}


def test_compare_single_mode_is_exit_1(workdir, tmp_path, capsys):
    rc = cli.main(["compare", "--config", str(workdir / "config.json"),
                   "--modes", "mlm", "--seeds", "1", "--out", str(tmp_path)])
    assert rc == 1
    assert "at least two modes" in capsys.readouterr().err


def test_compare_honours_data_min_length(workdir, tmp_path, monkeypatch, capsys):
    # Units of 1, 2 and 4 words encode to lengths 3, 4 and 6.
    units = [" ".join(f"w{(i + j) % 23}" for j in range(n))
             for i in range(12) for n in (1, 2, 4)]
    (tmp_path / "corpus.txt").write_text("\n\n".join(units) + "\n", encoding="utf-8")
    build_vocab(units, 64).save(tmp_path / "vocab.txt")
    cfg = json.loads((workdir / "config.json").read_text(encoding="utf-8"))
    cfg["data"] = {"corpus": str(tmp_path / "corpus.txt"),
                   "vocab": str(tmp_path / "vocab.txt"), "min_length": 6}
    path = tmp_path / "min6.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    seen = []
    real_train = trainer.train

    def spy(model_cfg, train_cfg, sequences, *args, **kwargs):
        seen.append(sorted({s.length for s in sequences}))
        return real_train(model_cfg, train_cfg, sequences, *args, **kwargs)

    monkeypatch.setattr(trainer, "train", spy)
    assert cli.main(["pretrain", "--config", str(path), "--steps", "2",
                     "--out", str(tmp_path / "pre")]) == 0
    assert cli.main(["compare", "--config", str(path), "--modes", "mlm,cp-l",
                     "--seeds", "1", "--steps", "2", "--intervals", "3:8,8:16",
                     "--n-per-interval", "5", "--bins", "5",
                     "--out", str(tmp_path / "cmp")]) == 0
    capsys.readouterr()
    assert seen == [[6], [6], [6]]  # pretrain, then both compare members


def test_compare_repeated_mode_trains_once(workdir, tmp_path, monkeypatch, capsys):
    cfg = json.loads((workdir / "config.json").read_text(encoding="utf-8"))
    cfg["train"]["log_every"] = 1
    path = tmp_path / "log1.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    calls = []
    real_train = trainer.train

    def spy(*args, **kwargs):
        calls.append(args[-1])
        return real_train(*args, **kwargs)

    monkeypatch.setattr(trainer, "train", spy)
    monkeypatch.setenv("LENREG_THREADS", "2")
    out = tmp_path / "dup"
    rc = cli.main(["compare", "--config", str(path), "--modes", "mlm,mlm",
                   "--seeds", "1", "--steps", "40", "--intervals", "3:8,8:16",
                   "--n-per-interval", "5", "--bins", "5", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    assert calls == [out / "mlm_seed1"]
    lines = (out / "mlm_seed1" / "train_log.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["step"] for line in lines] == list(range(40))


@pytest.mark.parametrize("doc, key", [
    ({"trian": {"total_steps": 2}}, "'trian'"),
    ({"data": {"corpus_path": "x.txt"}}, "'corpus_path'"),
    ({"model": {"foo": 1}}, "unknown model key 'foo'"),
    ({"train": {"lr": 1e-3}}, "unknown train key 'lr'"),
    ({"regularizer": {"gamma": 0.5}}, "unknown regularizer key 'gamma'"),
])
def test_unknown_config_key_is_exit_1(workdir, tmp_path, capsys, doc, key):
    cfg = json.loads((workdir / "config.json").read_text(encoding="utf-8"))
    for section, values in doc.items():
        cfg.setdefault(section, {}).update(values)
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    for command in (["pretrain", "--steps", "2"], ["compare", "--modes", "mlm,cp-l",
                                                   "--seeds", "1", "--steps", "2"]):
        rc = cli.main(command + ["--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _train_spy(monkeypatch):
    calls = []
    real_train = trainer.train

    def spy(*args, **kwargs):
        calls.append(args[-1])
        return real_train(*args, **kwargs)

    monkeypatch.setattr(trainer, "train", spy)
    return calls


def test_compare_missing_eval_corpus_exits_before_training(workdir, tmp_path, monkeypatch,
                                                           capsys):
    cfg = json.loads((workdir / "config.json").read_text(encoding="utf-8"))
    missing = tmp_path / "no_such_eval.txt"
    cfg["data"]["eval_corpus"] = str(missing)
    path = tmp_path / "noeval.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    calls = _train_spy(monkeypatch)
    out = tmp_path / "cmp"
    rc = cli.main(["compare", "--config", str(path), "--modes", "mlm,cp-l", "--seeds", "1",
                   "--steps", "2", "--out", str(out)])
    assert rc == 1
    assert str(missing) in capsys.readouterr().err
    assert calls == []
    assert not (out / "compare.csv").exists()
    assert not list(out.glob("*_seed*"))


def test_preset_flag_offers_presets_of_both_tables(workdir, tmp_path, capsys):
    for command in (["pretrain"], ["compare", "--modes", "mlm,cp-l", "--seeds", "1"]):
        rc = cli.main(command + ["--config", str(workdir / "config.json"), "--preset", "base",
                                 "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "invalid choice: 'base'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_file_presets_and_preset_flag(workdir, tmp_path, capsys):
    cfg = json.loads((workdir / "config.json").read_text(encoding="utf-8"))
    cfg["train"]["preset"] = "base"  # training-only; the workdir config names model.preset
    path = tmp_path / "presets.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    for flags, preset in (([], "base"), (["--preset", "nano"], "nano")):
        out = tmp_path / preset
        assert cli.main(["pretrain", "--config", str(path), "--steps", "2", "--out", str(out)]
                        + flags) == 0
        doc = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert doc["config"]["train"]["peak_lr"] == trainer.TRAIN_PRESETS[preset]["peak_lr"]
        assert doc["config"]["train"]["log_every"] == 4  # file keys beat either preset
        assert doc["config"]["model"]["hidden_size"] == 16
    capsys.readouterr()


@pytest.mark.parametrize("section, key, value", [
    ("model", "seed", 5),
    ("model", "vocab_size", 64),
    ("train", "regularizer", {"mode": "cp"}),
])
def test_derived_config_key_is_exit_1(workdir, tmp_path, monkeypatch, capsys,
                                      section, key, value):
    cfg = json.loads((workdir / "config.json").read_text(encoding="utf-8"))
    cfg[section][key] = value
    path = tmp_path / "derived.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    calls = _train_spy(monkeypatch)
    for command in (["pretrain"], ["compare", "--modes", "mlm,cp-l", "--seeds", "1"]):
        rc = cli.main(command + ["--config", str(path), "--steps", "2",
                                 "--out", str(tmp_path / "out")])
        assert rc == 1
        assert f"{section}.{key}" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_malformed_intervals_entry_is_exit_1(workdir, pretrain_run, tmp_path, monkeypatch,
                                             capsys):
    calls = _train_spy(monkeypatch)
    for command in (["eval-ece", "--checkpoint", str(pretrain_run / "final.ckpt"),
                     "--corpus", str(workdir / "corpus.txt"),
                     "--vocab", str(workdir / "vocab.txt")],
                    ["compare", "--config", str(workdir / "config.json"),
                     "--modes", "mlm,cp-l", "--seeds", "1", "--steps", "2"]):
        rc = cli.main(command + ["--intervals", "3:8,16", "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "'16'" in err and "lo:hi" in err
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_compare_without_default_intervals_exits_before_training(workdir, tmp_path,
                                                                 monkeypatch, capsys):
    # The toy config's maxlen 16 has no default intervals.
    calls = _train_spy(monkeypatch)
    out = tmp_path / "cmp"
    rc = cli.main(["compare", "--config", str(workdir / "config.json"), "--modes", "mlm,cp-l",
                   "--seeds", "1", "--steps", "2", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "maxlen 16" in err and "--intervals" in err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("seeds, threads, named", [
    ("1,x", "1", "argument --seeds: invalid seed_list value: '1,x'"),
    ("1", "x", "LENREG_THREADS must be an integer, got 'x'"),
], ids=["seeds", "threads"])
def test_compare_bad_seeds_or_threads_is_exit_1(compare_args, tmp_path, monkeypatch, capsys,
                                                seeds, threads, named):
    calls = _train_spy(monkeypatch)
    monkeypatch.setenv("LENREG_THREADS", threads)
    args = list(compare_args)
    args[args.index("--seeds") + 1] = seeds
    rc = cli.main(args + ["--out", str(tmp_path / "out")])
    assert rc == 1
    assert named in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "out").exists()
