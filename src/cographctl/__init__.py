"""Exact cotree decomposition, integer Laplacian spectra, and minimum leader
selection for cograph consensus networks."""

from .control import (
    control_rank,
    count_min_control_sets,
    enumerate_min_control_sets,
    is_controllable,
    min_control_size,
    select_min_control_set,
    sibling_partition,
)
from .cotree import CoTree, cotree_to_graph, recognize
from .errors import NonIntegerRootError, NotConnectedError, ParseError, SizeCapError
from .generate import random_cotree, random_threshold_sequence
from .graphs import Graph, laplacian
from .oracle import (
    char_poly,
    exhaustive_min_sets,
    find_p4,
    integer_roots,
    kalman_rank,
)
from .parsing import (
    parse_cotree,
    parse_expr,
    parse_threshold,
    read_edge_list,
    serialize_cotree,
    write_edge_list,
)
from .spectral import degree_partition, modal_columns, modal_matrix, spectrum

__version__ = "0.1.0"

__all__ = [
    "CoTree",
    "Graph",
    "NonIntegerRootError",
    "NotConnectedError",
    "ParseError",
    "SizeCapError",
    "char_poly",
    "control_rank",
    "cotree_to_graph",
    "count_min_control_sets",
    "degree_partition",
    "enumerate_min_control_sets",
    "exhaustive_min_sets",
    "find_p4",
    "integer_roots",
    "is_controllable",
    "kalman_rank",
    "laplacian",
    "min_control_size",
    "modal_columns",
    "modal_matrix",
    "parse_cotree",
    "parse_expr",
    "parse_threshold",
    "random_cotree",
    "random_threshold_sequence",
    "read_edge_list",
    "recognize",
    "select_min_control_set",
    "serialize_cotree",
    "sibling_partition",
    "spectrum",
    "write_edge_list",
]
