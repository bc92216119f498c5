"""Exact cotree decomposition, integer Laplacian spectra, and minimum leader
selection for cograph consensus networks."""

from .control import (
    ControlSet,
    SiblingPartition,
    count_min_control_sets,
    enumerate_min_control_sets,
    is_controllable,
    min_control_size,
    pbh_check,
    select_min_control_set,
    sibling_partition,
)
from .cotree import CoTree, P4Witness, canonicalize, cotree_to_graph, recognize
from .errors import NonIntegerRootError, NotConnectedError, ParseError, SizeCapError
from .generate import random_cotree, random_threshold_sequence
from .graphs import Graph, IntMatrix, laplacian
from .oracle import (
    char_poly,
    exhaustive_min_sets,
    find_p4,
    integer_roots,
    is_p4_free,
    kalman_rank,
)
from .parsing import (
    ThresholdSequence,
    parse_cotree,
    parse_expr,
    parse_threshold,
    read_edge_list,
    serialize_cotree,
    threshold_to_cotree,
    threshold_to_graph,
    write_edge_list,
)
from .spectral import (
    EigenBlock,
    Spectrum,
    eigen_blocks,
    local_eigenvalue,
    modal_block,
    modal_matrix,
    spectrum,
    updated_eigenvalue,
)
from .threshold import DegreePartition, degree_partition, threshold_min_control

__version__ = "0.1.0"

__all__ = [
    "ControlSet",
    "CoTree",
    "DegreePartition",
    "EigenBlock",
    "Graph",
    "IntMatrix",
    "NonIntegerRootError",
    "NotConnectedError",
    "P4Witness",
    "ParseError",
    "SiblingPartition",
    "SizeCapError",
    "Spectrum",
    "ThresholdSequence",
    "canonicalize",
    "char_poly",
    "cotree_to_graph",
    "count_min_control_sets",
    "degree_partition",
    "eigen_blocks",
    "enumerate_min_control_sets",
    "exhaustive_min_sets",
    "find_p4",
    "integer_roots",
    "is_controllable",
    "is_p4_free",
    "kalman_rank",
    "laplacian",
    "local_eigenvalue",
    "min_control_size",
    "modal_block",
    "modal_matrix",
    "parse_cotree",
    "parse_expr",
    "parse_threshold",
    "pbh_check",
    "random_cotree",
    "random_threshold_sequence",
    "read_edge_list",
    "recognize",
    "select_min_control_set",
    "serialize_cotree",
    "sibling_partition",
    "spectrum",
    "threshold_min_control",
    "threshold_to_cotree",
    "threshold_to_graph",
    "updated_eigenvalue",
    "write_edge_list",
]
