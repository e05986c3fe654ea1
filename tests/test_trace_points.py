"""The traced benchmark patches lenreg functions by module attribute name
(``perfbench/layers.py``). A refactor that renames or drops one of those
names breaks the traced run, so this installs every trace point on a fresh
tracer and restores the originals.
"""

import importlib.util
from pathlib import Path

from lenreg import calibration, checkpoint, corpus, gradcheck, trainer

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_points_install_and_restore():
    layers, spans = _load("layers"), _load("spans")
    modules = (calibration, checkpoint, corpus, gradcheck, trainer)
    before = [dict(vars(m)) for m in modules]
    batch_loss = trainer.batch_loss
    tracer = spans.Tracer()
    try:
        layers.install(tracer, layers.BatchStats())
        assert trainer.batch_loss is not batch_loss
    finally:
        tracer.restore()
    assert [dict(vars(m)) for m in modules] == before
