"""Exact-arithmetic toolkit for metrized graphs and the tau invariant.

The exports below are resolved on first access (PEP 562), so importing one
submodule, ``mgt.cli`` included, loads only what that submodule imports.
"""

import importlib

# export name -> submodule that defines it
_EXPORTS = {
    "EdgeProfile": "circuit",
    "resistance": "circuit",
    "voltage": "circuit",
    "MgtError": "errors",
    "Edge": "graph",
    "MetrizedGraph": "graph",
    "bridges": "graph",
    "build_graph": "graph",
    "genus": "graph",
    "insert_point": "graph",
    "normalize": "graph",
    "scale": "graph",
    "subdivide_uniform": "graph",
    "total_length": "graph",
    "apq_direct": "integration",
    "fit_edge_function": "integration",
    "integrate_product": "integration",
    "INF": "rational",
    "ExtScalar": "rational",
    "Scalar": "rational",
    "CanonicalMeasure": "tau",
    "GradientVector": "tau",
    "TauReport": "tau",
    "apq_identity": "tau",
    "canonical_measure": "tau",
    "genus_identity_check": "tau",
    "lower_bound_suite": "tau",
    "tau_bridgeless_identity": "tau",
    "tau_edge_sum": "tau",
    "tau_gradient": "tau",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
