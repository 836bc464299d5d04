"""Cuts, cut-mutation and canvas topology for quivers with distinguished cycles."""

from .canvas import (
    AbelianGroup,
    GroupPresentation,
    SimplyConnectedVerdict,
    euler_characteristic,
    h1,
    is_simply_connected,
    pi1_presentation,
)
from .cuts import (
    Cut,
    TruncatedPresentation,
    UncoveredQuiverWarning,
    are_compatible,
    count_cuts,
    enumerate_cuts,
    has_enough_cuts,
    is_covered,
    is_cut,
    is_fully_compatible,
    truncated_presentation,
    truncated_quiver,
)
from .docio import (
    DocumentError,
    DocumentInvariantError,
    DocumentSchemaError,
    DocumentSyntaxError,
    mutation_graph_to_dot,
    mutation_graph_to_json,
    parse_quiver_document,
    quiver_to_dot,
    serialize_quiver_document,
)
from .model import (
    Arrow,
    ArrowId,
    Cycle,
    Quiver,
    QuiverWithCycles,
    VertexId,
    validate,
)
from .mutation import (
    MutationEdge,
    MutationGraph,
    is_transitive,
    mutate_minus,
    mutate_plus,
    mutation_graph,
    strict_sinks,
    strict_sources,
)
from .tensor import (
    DivisionLabel,
    LabeledDynkinSpec,
    LabeledQuiver,
    LabeledQuiverWithCycles,
    dynkin_quiver,
    dynkin_spec,
    morita_split,
    parse_dynkin_spec,
    standard_cuts,
    tensor_qwc,
)

__version__ = "0.1.0"
