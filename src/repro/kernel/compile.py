"""No compiled dispatch: one name kept for the benchmark suite.

Every interposed trap and every agent downcall runs the layer tower;
nothing under ``src/`` calls :func:`build_compiled_dispatch`.
"""


# Kept for benchmarks/suite/tracer.py, which imports and wraps this name.
def build_compiled_dispatch(kernel, proc):
    """Return an empty table: there are no compiled chains."""
    return {}
