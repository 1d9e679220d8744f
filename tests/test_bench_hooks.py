"""The traced benchmark run finds every library function it wraps.

``bench/tracing.py`` looks functions up by module and name.  A rename or
deletion in the library breaks only ``bench/run.py --trace 1``, so this
test installs the tracer on one small map and checks every hook.
"""

import importlib.util
import pathlib
import sys

from sdcat import classify as cl
from sdcat import core
from sdcat.limits import CategoryTag

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _binding(mod_name, attr):
    owner = sys.modules[f"sdcat.{mod_name}"]
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = vars(owner)[cls_name]
    return vars(owner)[attr]


def test_tracer_resolves_every_hook(full2):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for mod_name, attr, _ in tracing.TRACED:
            assert hasattr(_binding(mod_name, attr), "__wrapped__"), f"{mod_name}.{attr}"
        f = core.make_block_map(full2, full2, 0, {("0",): "1", ("1",): "0"})
        cl.classify(f, CategoryTag.parse("M2"))
    finally:
        tracer.uninstall()
    for mod_name, attr, _ in tracing.TRACED:
        assert not hasattr(_binding(mod_name, attr), "__wrapped__"), f"{mod_name}.{attr}"
    assert tracer.calls["core.presentation_from_nfa"] > 0
    assert tracer.calls["automata.minimize"] > 0
