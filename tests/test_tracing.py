import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves_in_wordmaps():
    # the benchmark's Tracer.install drops the metrics of a name it cannot
    # find, so a library name it traces must keep resolving
    traced = runpy.run_path(str(TRACING))["TRACED"]
    assert traced
    for metric, (module, path) in traced.items():
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        assert owner is not None, metric
