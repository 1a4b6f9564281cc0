"""The benchmark's tracer finds every name it wraps.

``perfbench/tracer.py`` looks up functions by name when it installs its
spans: module attributes for ``FUNCTIONS`` and ``ENV_BUILDERS``, entries
of ``BigNat.__dict__`` for the BigNat operations, and ``digits24`` as a
property there.  A rename or a move into a base class or helper would
break the benchmark without breaking any other test, so this reads the
tracer's lists and resolves each name the way ``Tracer.install`` does.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from selfref.bignat import BigNat

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    importlib.import_module("selfref.cli")  # as install does: every layer
    missing = []
    for mod_name, attr, *_ in tracer.FUNCTIONS + tracer.ENV_BUILDERS:
        module = sys.modules.get(f"selfref.{mod_name}")
        if not callable(getattr(module, attr, None)):
            missing.append(f"selfref.{mod_name}.{attr}")
    for attr in tracer.BIGNAT_STATIC:
        entry = BigNat.__dict__.get(attr)
        if not (isinstance(entry, staticmethod) and callable(entry.__func__)):
            missing.append(f"BigNat.{attr} (staticmethod)")
    for attr in tracer.BIGNAT_METHODS:
        if not inspect.isfunction(BigNat.__dict__.get(attr)):
            missing.append(f"BigNat.{attr} (function)")
    digits24 = BigNat.__dict__.get("digits24")
    if not (isinstance(digits24, property) and digits24.fget is not None):
        missing.append("BigNat.digits24 (property)")
    assert not missing, missing
