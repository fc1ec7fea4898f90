"""The benchmark's traced run wraps package functions by (owner, attribute)
name; a refactor that drops one of those names must fail here, not only in
the benchmark."""

import importlib.util
import os

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "bench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    bindings = _load_tracer().BINDINGS
    assert bindings
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in bindings if not callable(getattr(owner, attr, None))]
    assert not missing, f"bench/tracer.py binds names the package no longer has: {missing}"
