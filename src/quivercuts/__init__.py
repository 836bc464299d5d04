"""Cuts, cut-mutation and canvas topology for quivers with distinguished cycles.

Exports load on first access (PEP 562): ``import quivercuts`` loads no layer
module, and ``quivercuts.count_cuts`` loads ``quivercuts.cuts`` and what it
imports, then binds the name here.
"""

import importlib

_LAYERS = {
    "canvas": (
        "AbelianGroup GroupPresentation SimplyConnectedVerdict euler_characteristic h1 is_simply_connected"
        " pi1_presentation"
    ),
    "cuts": (
        "Cut TruncatedPresentation UncoveredQuiverWarning are_compatible count_cuts enumerate_cuts has_enough_cuts"
        " is_covered is_cut is_fully_compatible truncated_presentation truncated_quiver"
    ),
    "docio": (
        "DocumentError DocumentInvariantError DocumentSchemaError DocumentSyntaxError mutation_graph_to_dot"
        " mutation_graph_to_json parse_quiver_document quiver_to_dot serialize_quiver_document write_cuts"
    ),
    "model": "Arrow ArrowId Cycle Quiver QuiverWithCycles VertexId validate",
    "mutation": "MutationGraph is_transitive mutate_minus mutate_plus mutation_graph strict_sinks strict_sources",
    "tensor": (
        "DivisionLabel LabeledDynkinSpec LabeledQuiver LabeledQuiverWithCycles dynkin_quiver dynkin_spec"
        " morita_split parse_dynkin_spec standard_cuts tensor_qwc"
    ),
}
_LAYER_OF = {name: layer for layer, names in _LAYERS.items() for name in names.split()}

__all__ = list(_LAYER_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _LAYERS:  # ``quivercuts.model`` and the like, as when this module imported every layer
        return importlib.import_module(f".{name}", __name__)
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{layer}", __name__), name)
    globals()[name] = value  # later lookups find it without calling this function
    return value


def __dir__() -> list[str]:
    return list(__all__)
