"""The benchmark's tracer patches library attributes by name; a renamed
attribute must fail here, not only in the benchmark's own self-test."""
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_and_restore_every_patched_name():
    tracer = load_spans().Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
        assert len(patched) > 20
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr}"
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"
