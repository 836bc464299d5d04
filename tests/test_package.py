"""The public surface of the package, pinned: adding or dropping an export edits this list.

The runtime imports nothing outside the standard library.
"""

import ast
import sys
import types
from pathlib import Path

import quivercuts

EXPORTS = {
    # canvas
    "AbelianGroup",
    "GroupPresentation",
    "SimplyConnectedVerdict",
    "euler_characteristic",
    "h1",
    "is_simply_connected",
    "pi1_presentation",
    # cuts
    "Cut",
    "TruncatedPresentation",
    "UncoveredQuiverWarning",
    "are_compatible",
    "count_cuts",
    "enumerate_cuts",
    "has_enough_cuts",
    "is_covered",
    "is_cut",
    "is_fully_compatible",
    "truncated_presentation",
    "truncated_quiver",
    # docio
    "DocumentError",
    "DocumentInvariantError",
    "DocumentSchemaError",
    "DocumentSyntaxError",
    "mutation_graph_to_dot",
    "mutation_graph_to_json",
    "parse_quiver_document",
    "quiver_to_dot",
    "serialize_quiver_document",
    # model
    "Arrow",
    "ArrowId",
    "Cycle",
    "Quiver",
    "QuiverWithCycles",
    "VertexId",
    "validate",
    # mutation
    "MutationEdge",
    "MutationGraph",
    "is_transitive",
    "mutate_minus",
    "mutate_plus",
    "mutation_graph",
    "strict_sinks",
    "strict_sources",
    # tensor
    "DivisionLabel",
    "LabeledDynkinSpec",
    "LabeledQuiver",
    "LabeledQuiverWithCycles",
    "dynkin_quiver",
    "dynkin_spec",
    "morita_split",
    "parse_dynkin_spec",
    "standard_cuts",
    "tensor_qwc",
}


def test_public_names_are_pinned():
    # submodules become attributes as they are imported, so they are not exports
    public = {
        name
        for name, value in vars(quivercuts).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == EXPORTS


def test_runtime_is_stdlib_only():
    sources = sorted(Path(quivercuts.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] in sys.stdlib_module_names, f"{path.name} imports {module}"
