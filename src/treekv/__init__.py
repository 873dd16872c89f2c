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
    generate_weights,
    load_weights,
    rotate_vector,
    save_weights,
    synthesize_embeddings,
)
from .errors import (
    ConfigError,
    InputError,
    InvariantViolation,
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
    decode_with_policy,
    make_policy,
)
from .prefill import (
    BlockPartition,
    observation_scores,
    partition_blocks,
    treekv_prefill_compress,
    window_mass,
)
from .trace import (
    DecodeTrace,
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
