"""The traced benchmark run finds every library function it wraps.

``bench/tracing.py`` looks functions up by module and name.  A rename or
deletion in the library breaks only ``bench/run.py --trace 1``, so this
test installs the tracer on one small map and checks every hook.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
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


# run in a fresh process, where ``import sdcat.cli`` leaves the engines
# registered but not yet run, as in a traced benchmark worker
FRESH_INSTALL = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
import sdcat.cli

def bound(mod_name, attr):
    owner = sys.modules["sdcat." + mod_name]
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = vars(owner)[cls_name]
    return vars(owner)[attr]

def wrappers_left():
    # a binding still made by the tracer, under any name in any module
    out = []
    for name, mod in sorted(sys.modules.items()):
        if name == "sdcat" or name.startswith("sdcat."):
            for key, val in vars(mod).items():
                owned = vars(val).items() if isinstance(val, type) and val.__module__ == name else ()
                for k, m in [(key, val)] + [(f"{key}.{k}", m) for k, m in owned]:
                    if getattr(getattr(m, "__code__", None), "co_filename", None) == tracing.__file__:
                        out.append(f"{name}.{k}")
    return out

tracer = tracing.Tracer()
tracer.install()
try:
    unwrapped = [f"{m}.{a}" for m, a, _ in tracing.TRACED if not hasattr(bound(m, a), "__wrapped__")]
finally:
    tracer.uninstall()
print(json.dumps({"unwrapped": unwrapped, "left": wrappers_left()}))
"""


def test_tracer_resolves_every_hook_after_a_fresh_cli_import():
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(core.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", FRESH_INSTALL, str(TRACING)],
                         capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {"unwrapped": [], "left": []}
