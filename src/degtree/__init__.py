"""Uniformly random ordered trees with a prescribed outdegree multiset.

``degtree`` samples ordered rooted trees whose multiset of node outdegrees
equals a user-supplied bag, in linear time and exactly uniformly over all
such trees: shuffle the degree list, then rotate it at the unique point
that yields a well-formed preorder code.  Around the sampler sit exact
counting, exhaustive enumeration (the testing oracle), well-formedness
checks, codecs and renderers for expression fuzzing, and a CLI
(``degtree --help``).
"""

from .codec import (
    OperatorAlphabet,
    TreeNode,
    decode_prefix,
    encode_prefix,
    render_expression,
    to_dot,
    to_json,
    to_sexpr,
)
from .degrees import (
    DegreeMultiset,
    SegmentDecomposition,
    charge,
    decompose,
    is_constructible,
    is_well_formed,
    prefix_charges,
)
from .errors import (
    ChargeNotOneError,
    DegtreeError,
    EnumerationTooLargeError,
    MalformedCodeError,
    MissingArityError,
    NotConstructibleError,
    TrailingSymbolsError,
    TruncatedCodeError,
)
from .oracle import (
    DEFAULT_ENUMERATION_BOUND,
    binary_leaf_count,
    catalan,
    count_trees,
    enumerate_trees,
)
from .rng import RandomSource
from .sampling import (
    find_rotation_point,
    fisher_yates_shuffle,
    rotate,
    sample_tree,
    sample_trees,
)
from .stats import FrequencyReport, uniformity_report

__version__ = "0.1.0"

__all__ = [
    "ChargeNotOneError",
    "DEFAULT_ENUMERATION_BOUND",
    "DegreeMultiset",
    "DegtreeError",
    "EnumerationTooLargeError",
    "FrequencyReport",
    "MalformedCodeError",
    "MissingArityError",
    "NotConstructibleError",
    "OperatorAlphabet",
    "RandomSource",
    "SegmentDecomposition",
    "TrailingSymbolsError",
    "TreeNode",
    "TruncatedCodeError",
    "binary_leaf_count",
    "catalan",
    "charge",
    "count_trees",
    "decode_prefix",
    "decompose",
    "encode_prefix",
    "enumerate_trees",
    "find_rotation_point",
    "fisher_yates_shuffle",
    "is_constructible",
    "is_well_formed",
    "prefix_charges",
    "render_expression",
    "rotate",
    "sample_tree",
    "sample_trees",
    "to_dot",
    "to_json",
    "to_sexpr",
    "uniformity_report",
]
