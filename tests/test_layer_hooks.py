"""Every per-layer hook of the benchmark fires on a run over the miniature
city, so that a change which stops calling a hooked name fails here, and not
only in a traced benchmark run."""
import importlib.util
import sys
from pathlib import Path

from tripmatch import pipeline
from tripmatch.config import load_config

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _layers():
    """perfbench/layers.py, imported as it stands."""
    spec = importlib.util.spec_from_file_location("layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("layers", module)
    spec.loader.exec_module(module)
    return module


def test_every_layer_hook_fires_on_a_run_over_the_city(synth, tmp_path):
    layers = _layers()
    cfg = load_config(synth.config_path)
    cfg.output_dir = tmp_path
    tracer = layers.Tracer()
    patches = layers.install(tracer, layers.HOOKS)
    try:
        pipeline.run_all(cfg)
    finally:
        layers.uninstall(patches)
    layers.check_fired(tracer, layers.HOOKS)
