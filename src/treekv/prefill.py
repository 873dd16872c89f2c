"""Block-level tree compression of a long prompt's KV cache in one pass.

The prompt is tiled into fixed-size blocks; the final block serves as the
observation window whose queries score every earlier token, on the same
``StreamBatch`` that decoding steps.  Block scores are the mean attention
received per token, averaged over the block.  The decode-time tree cycle is
then replayed over the content blocks with those precomputed scores held
fixed (``EvictionPolicy.replay``), which makes the whole pass a
deterministic function of (partition, scores, budget).  The observation
window is always retained and never counts against the block budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import ModelWeights, StreamBatch
from .errors import ConfigError, InputError, InvariantViolation
from .policies import TreeKV


@dataclass(frozen=True)
class BlockPartition:
    """Exact tiling of a prompt into ordered, non-overlapping blocks."""

    blocks: tuple[tuple[int, int], ...]  # half-open (start, end) token ranges

    @property
    def prompt_len(self) -> int:
        return self.blocks[-1][1]

    @property
    def observation_window(self) -> tuple[int, int]:
        return self.blocks[-1]

    @property
    def content_blocks(self) -> tuple[tuple[int, int], ...]:
        return self.blocks[:-1]


def partition_blocks(prompt_len: int, block_size: int) -> BlockPartition:
    """Tile the prompt into ceil(prompt_len / block_size) blocks; the final
    (possibly short) block is the observation window."""
    if block_size < 1:
        raise ConfigError(f"block size must be >= 1, got {block_size}")
    if prompt_len < block_size:
        raise InputError(
            f"prompt of length {prompt_len} is shorter than one block ({block_size})"
        )
    starts = range(0, prompt_len, block_size)
    blocks = tuple((s, min(s + block_size, prompt_len)) for s in starts)
    return BlockPartition(blocks)


def window_mass(weights: ModelWeights, inputs, partition: BlockPartition) -> np.ndarray:
    """Attention mass (S, prompt_len) the observation window's queries give
    each prompt token, per stream, from the prompt's inputs (prompt_len,
    d_model); another row count is an InvariantViolation.  One
    ``StreamBatch`` stores the content tokens' keys in bulk and steps each
    window token, so its scores S sum the window rows in order; it keeps no
    residency counts.  Only the window's queries are projected, and no value is.
    Nothing is evicted: each key sits at its position."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.shape[:1] != (partition.prompt_len,):
        raise InvariantViolation(
            f"inputs {inputs.shape} are not ({partition.prompt_len}, d_model)")
    start = partition.observation_window[0]
    batch = StreamBatch(weights, partition.prompt_len, reads=("scores",))
    batch.append(inputs[:start, None])
    for _ in batch.steps(inputs[start:]):
        pass
    return batch.scores


def observation_scores(mass, partition: BlockPartition) -> np.ndarray:
    """Per-block importance (..., blocks) from the attention mass
    (..., prompt_len) the W observation-window queries gave each token, one
    leading index per stream.  A token's importance is its mass over W; a
    block's score is the mean over its own tokens, the window block included,
    though callers never evict it."""
    mass = np.asarray(mass, dtype=np.float64)
    if mass.ndim < 1 or mass.shape[-1] != partition.prompt_len:
        raise InvariantViolation(f"mass {mass.shape} is not (..., {partition.prompt_len})")
    per_token = mass / (partition.prompt_len - partition.observation_window[0])
    return np.stack(
        [per_token[..., start:end].mean(axis=-1) for start, end in partition.blocks],
        axis=-1,
    )


def treekv_prefill_compress(
    partition: BlockPartition,
    scores,
    cache_blocks: int,
) -> list:
    """Replay the tree cycle over the content blocks with fixed scores
    (..., blocks), one leading index per stream.

    Content blocks arrive one at a time: the block cache fills to
    ``cache_blocks``, then the i-th further block (0-based) triggers
    decision i of the decode-time tree selector (lower score of the adjacent
    pair under cursor i mod cache_blocks + 1 goes, ties to the left), one
    cursor for all streams (``TreeKV.replay`` of the content blocks).
    Scores are never refreshed, so every count is 1: the averaged score is
    the block's.
    Returns the retained block indices in prompt order, ending with the
    observation window, as nested lists (..., kept); 1-D scores give one
    list of ints.  A budget below 2 raises ConfigError (``TreeKV``'s).
    """
    scores = np.asarray(scores, dtype=np.float64)
    blocks = len(partition.blocks)
    if scores.shape[-1:] != (blocks,):
        raise InvariantViolation(f"expected one score per block ({blocks}), got {scores.shape}")
    window_index = blocks - 1
    flat = scores.reshape(-1, blocks)
    kept = TreeKV(cache_blocks).replay(window_index, flat)[1]
    kept = np.insert(kept, kept.shape[1], window_index, axis=1)
    return kept.reshape(scores.shape[:-1] + kept.shape[1:]).tolist()
