import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_traced_names_resolve():
    # The traced benchmark wraps each (module, attribute) of bench/spans.py's
    # WRAPPED and reports a metric for it; a name that no longer resolves
    # drops its metric without an error.
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.WRAPPED
    for module, attribute, _ in spans.WRAPPED:
        assert callable(getattr(importlib.import_module(f"anharm.{module}"), attribute, None)), (
            f"anharm.{module}.{attribute}"
        )
