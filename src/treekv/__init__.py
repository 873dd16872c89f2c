"""Tree-cycle KV-cache eviction for transformer decoding and prefilling.

A deterministic attention micro-engine that steps the evictable KV caches
of all (layer, head) streams at once; tree-cycle eviction with averaged
attention scores plus sliding window, cumulative-score and last-row
baselines; block-level prompt compression; multi-level Haar wavelet
analysis of attention-weighted value signals; and a CLI harness for
reproducible experiments.
"""

from .engine import (
    ModelDims,
    ModelWeights,
    StreamBatch,
    embed_tokens,
    generate_weights,
    load_weights,
    rotate_vector,
    save_weights,
    synthesize_embeddings,
    synthesize_token_ids,
    window_rows,
)
from .errors import (
    ConfigError,
    DimensionError,
    InputError,
    InvariantViolation,
    LevelError,
    SelectorError,
    StateError,
    TreeKVError,
)
from .policies import (
    POLICY_SPECS,
    EvictionPolicy,
    FullAttention,
    H2O,
    ProtectedZones,
    StreamingLLM,
    TOVA,
    TreeKV,
    TreeKVState,
    advance_idx,
    decode_with_policy,
    make_policy,
)
from .prefill import (
    BlockPartition,
    observation_scores,
    partition_blocks,
    treekv_prefill_compress,
)
from .trace import (
    DecodeTrace,
    EvictionEvent,
    StepRecord,
    distribution_map,
    read_trace,
    retained_at,
    signals_at_step,
    validate_trace,
    write_trace,
)
from .wavelet import (
    MagnitudeProfile,
    WaveletCoeffs,
    dwt_multi,
    dwt_single,
    magnitude_profile,
    max_level,
    reconstruct,
    reconstruct_component,
    reconstruct_single,
)

__version__ = "0.1.0"

__all__ = [
    "BlockPartition",
    "ConfigError",
    "DecodeTrace",
    "DimensionError",
    "EvictionEvent",
    "EvictionPolicy",
    "FullAttention",
    "H2O",
    "InputError",
    "InvariantViolation",
    "LevelError",
    "MagnitudeProfile",
    "ModelDims",
    "ModelWeights",
    "POLICY_SPECS",
    "ProtectedZones",
    "SelectorError",
    "StateError",
    "StepRecord",
    "StreamBatch",
    "StreamingLLM",
    "TOVA",
    "TreeKV",
    "TreeKVError",
    "TreeKVState",
    "WaveletCoeffs",
    "advance_idx",
    "decode_with_policy",
    "distribution_map",
    "dwt_multi",
    "dwt_single",
    "embed_tokens",
    "generate_weights",
    "load_weights",
    "magnitude_profile",
    "make_policy",
    "max_level",
    "observation_scores",
    "partition_blocks",
    "read_trace",
    "reconstruct",
    "reconstruct_component",
    "reconstruct_single",
    "retained_at",
    "rotate_vector",
    "save_weights",
    "signals_at_step",
    "synthesize_embeddings",
    "synthesize_token_ids",
    "treekv_prefill_compress",
    "validate_trace",
    "window_rows",
    "write_trace",
]
