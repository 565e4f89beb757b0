"""The per-layer tracer of the benchmark (perfbench/tracer.py) finds every
trace point it names in the package, and counts constructions per class."""

import importlib.util
from pathlib import Path

import hopfpbw.cli  # noqa: F401  (loads every module the tracer instruments)
from hopfpbw import Alphabet, Polynomial, QQ, TensorElement

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_point_resolves():
    tracer = _tracer_module().Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
        # the shared core is wrapped once per class, not once for both
        x = Polynomial.generator(Alphabet([("x", 1)]), QQ, "x")
        x * x
        TensorElement.of(x, x) * TensorElement.of(x, x)
        assert tracer.stats["poly.Polynomial"][0] == 2
        assert tracer.stats["poly.TensorElement"][0] == 3
    finally:
        tracer.uninstall()
