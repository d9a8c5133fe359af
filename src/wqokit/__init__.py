"""Embedding orders, upward closed sets, and backward coverability.

The componentwise order on vectors of naturals and the (plain and
support-sensitive) embedding orders on words admit no infinite
antichains and no infinite strictly descending chains; this package
turns the finite consequences of that fact into executable pieces:
canonical antichain bases for upward closed sets, order-reflecting maps
with upset transport, and a terminating backward coverability check for
vector addition systems.
"""

from types import ModuleType as _ModuleType

from .dickson import (
    DimensionMismatch,
    NatVec,
    format_vec,
    join,
    leq,
    monus,
    parse_vec,
)
from .orders import (
    Homogeneous,
    PairClass,
    SubseqClass,
    classify,
    find_good_pair,
    homogeneous_subsequence,
    is_bad,
)
from .words import (
    Alphabet,
    AlphabetMismatch,
    LabeledWord,
    Word,
    labeled_leq,
    leq_E,
    leq_e,
    parse_word,
    phi,
    support,
)
from .upset import (
    INF,
    ExtendedNat,
    UpSet,
    dickson_upset,
    format_upset_block,
    intersect_dickson,
    labeled_upset,
    parse_upset_block,
    phi_slice,
    quotient,
    som,
    word_upset,
)
from .transport import (
    QuasiEmbedding,
    check_quasi_embedding,
    dickson_to_word,
    dickson_word_embedding,
    labeling_embedding,
    transport_upset,
    word_to_labeled,
)
from .coverability import (
    CoverQuery,
    CoverResult,
    NetParseError,
    SaturationLimit,
    Transition,
    Vas,
    backward_cover,
    forward_cover_oracle,
    parse_net,
    pre_step,
)

__version__ = "0.1.0"

# the public names are exactly the ones imported above
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
