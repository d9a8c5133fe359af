import wqokit

# the package's public API; `__all__` is derived from the imports
PUBLIC = {
    "Alphabet", "AlphabetMismatch", "CoverQuery", "CoverResult",
    "DimensionMismatch", "ExtendedNat", "Homogeneous", "INF", "LabeledWord",
    "NatVec", "NetParseError", "PairClass", "QuasiEmbedding",
    "SaturationLimit", "SubseqClass", "Transition", "UpSet", "Vas", "Word",
    "__version__", "backward_cover", "check_quasi_embedding", "classify",
    "dickson_to_word", "dickson_upset", "dickson_word_embedding",
    "find_good_pair", "format_upset_block", "format_vec",
    "forward_cover_oracle", "homogeneous_subsequence", "intersect_dickson",
    "is_bad", "join", "labeled_leq", "labeled_upset", "labeling_embedding",
    "leq", "leq_E", "leq_e", "monus", "parse_net", "parse_upset_block",
    "parse_vec", "parse_word", "phi", "phi_slice", "pre_step", "quotient",
    "som", "support", "transport_upset", "word_to_labeled", "word_upset",
}


def test_all_is_the_public_names():
    assert set(wqokit.__all__) == PUBLIC
    assert len(wqokit.__all__) == len(PUBLIC)
    assert all(hasattr(wqokit, name) for name in PUBLIC)
