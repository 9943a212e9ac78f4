"""The benchmark tracer's span table still matches the package.

``perfbench/tracer.py`` wraps each function named in ``SPANS`` and binds its
count hook's argument names (``a["G"]`` and the like) to that function's
signature, so a rename in the package would otherwise surface only when
``perfbench/run.py --trace 1`` runs.  This test only reads ``perfbench/``.
"""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

_TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER_PATH)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

_HOOK_ARGUMENT = re.compile(r'\ba\["(\w+)"\]')


def resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def hook_arguments(hook):
    return set() if hook is None else set(_HOOK_ARGUMENT.findall(inspect.getsource(hook)))


@pytest.mark.parametrize("module_name,attr,name,hook", tracer.SPANS,
                         ids=[f"{m}.{a}" for m, a, _, _ in tracer.SPANS])
def test_span_resolves_and_its_hook_arguments_bind(module_name, attr, name, hook):
    fn = resolve(module_name, attr)
    assert callable(fn)
    assert hook_arguments(hook) <= set(inspect.signature(fn).parameters)


def test_hook_arguments_are_found():
    # the source scan above would pass vacuously if it found no names
    assert set().union(*(hook_arguments(h) for *_, h in tracer.SPANS)) == {"G", "n", "group", "W"}
