"""Every callable the end-to-end benchmark's tracer rebinds must exist.

``e2ebench/tracing.py::PATCHES`` names ~30 callables by module and dotted
attribute path; a traced benchmark run raises on the first one that a
refactor removed or renamed.  This resolves each of them the same way
(import the module, follow the path with ``getattr``) without installing
a single patch, so the break shows in the unit tests too.
"""

import importlib
import importlib.util
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "e2ebench")


def _load_tracing():
    # tracing.py imports its sibling ``common`` by name.
    if BENCH not in sys.path:
        sys.path.append(BENCH)
    spec = importlib.util.spec_from_file_location(
        "e2ebench_tracing", os.path.join(BENCH, "tracing.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PATCHES = _load_tracing().PATCHES


@pytest.mark.parametrize(
    "module_name, path", [(module_name, path) for module_name, path, *_ in PATCHES]
)
def test_traced_name_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_coalescing_window_hook_resolves():
    # Besides PATCHES, the tracer stamps each coalescing window as it opens.
    from repro.serve import coalesce

    assert callable(coalesce._Window.__init__)
