"""Every csalg function the benchmark's per-layer metrics read still exists.

``perfbench/tracer.py`` reads each per-layer metric off the span of a
function named ``module.qualname``.  A refactor that deletes or renames
such a function leaves its metric at zero, which only the benchmark's own
tests would notice.  This test loads the tracer module as it is, calls
every reader in ``LAYER_METRICS`` on a stub that records the names asked
for, and checks that each one resolves in csalg and is a function the
tracer wraps.  Only the standard library is needed.
"""

import collections
import importlib
import importlib.util
from pathlib import Path

import csalg.cli  # noqa: F401  (loads every csalg module the tracer wraps)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Recorder:
    """Stands in for a Tracer and keeps every name a reader asks for."""

    def __init__(self):
        self.spans = set()
        self.modules = set()
        self.counts = collections.defaultdict(int)

    def _span(self, name):
        self.spans.add(name)
        return 1

    calls = inclusive = self_time = _span

    def _module(self, module):
        self.modules.add(module)
        return 1

    module_self = busy = _module


def _resolve(name):
    module, _, qualname = name.partition(".")
    obj = importlib.import_module("csalg." + module)
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        assert obj is not None, "%s does not resolve in csalg" % name
    return obj


def test_traced_names_resolve_in_csalg():
    tracer = _load_tracer()
    rec = _Recorder()
    for _, _, read, _ in tracer.LAYER_METRICS:
        read(rec)
    assert {"linalg.solve", "linalg.det",
            "loops.LoopAlgebra.piece_contains"} <= rec.spans

    wrapped = {"%s.%s" % (short, qualname) for _, _, _, short, qualname
               in tracer._targets(tracer._csalg_modules())}
    for name in sorted(rec.spans):
        assert callable(_resolve(name)), name
        assert name in wrapped, "the tracer does not wrap %s" % name
    for module in rec.modules:
        importlib.import_module("csalg." + module)
