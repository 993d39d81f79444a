"""The traced benchmark wraps library functions by module attribute name.

If a refactor drops or renames one of those attributes, the traced run
fails; this test makes the same mistake fail in the unit suite instead.
"""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def test_every_traced_span_resolves():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _ in layers.SPANS
        if not callable(getattr(module, attr, None))
    ]
    assert not missing, f"bench/layers.py wraps attributes that no longer exist: {missing}"
