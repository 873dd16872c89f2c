"""Block-level tree compression of a long prompt's KV cache in one pass.

The prompt is tiled into fixed-size blocks; the final block serves as the
observation window whose queries score every earlier token.  Block scores
are the mean attention received per token, averaged over the block.  The
decode-time tree cycle is then replayed over the content blocks with those
precomputed scores held fixed, which makes the whole pass a deterministic
function of (partition, scores, budget).  The observation window is always
retained and never counts against the block budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, InputError
from .policies import TreeKV


@dataclass(frozen=True)
class BlockPartition:
    """Exact tiling of a prompt into ordered, non-overlapping blocks."""

    prompt_len: int
    block_size: int
    blocks: tuple[tuple[int, int], ...]  # half-open (start, end) token ranges

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
    return BlockPartition(prompt_len, block_size, blocks)


def observation_scores(window_rows, partition: BlockPartition) -> np.ndarray:
    """Per-block importance from the observation window's attention rows.

    ``window_rows`` holds one causal softmax row per observation-window
    query; rows shorter than the prompt are treated as zero beyond their
    causal horizon.  A token's importance is its mean received attention
    over the window queries, and a block's score is the mean over its own
    tokens.  The window block's score is computed the same way but callers
    never use it for eviction.
    """
    rows = list(window_rows)
    if not rows:
        raise DimensionError("observation window produced no attention rows")
    received = np.zeros(partition.prompt_len, dtype=np.float64)
    for row in rows:
        row = np.asarray(row, dtype=np.float64)
        if row.ndim != 1 or len(row) > partition.prompt_len:
            raise DimensionError(
                f"observation row of length {row.shape} does not fit a prompt of "
                f"{partition.prompt_len} tokens"
            )
        received[: len(row)] += row
    per_token = received / len(rows)
    return np.array(
        [per_token[start:end].mean() for start, end in partition.blocks],
        dtype=np.float64,
    )


def treekv_prefill_compress(
    partition: BlockPartition,
    scores,
    cache_blocks: int,
) -> list[int]:
    """Replay the tree cycle over the content blocks with fixed scores.

    Content blocks are treated as if they arrived one at a time: the block
    cache fills to ``cache_blocks``, then each additional block triggers one
    decision of the decode-time tree selector (lower score of the adjacent
    pair under the cursor goes, ties to the left) and a cyclic cursor
    advance.  Scores are precomputed and never refreshed, so every count is
    1 and the averaged score is the block score itself.  Returns the
    retained block indices in prompt order, always ending with the
    observation window.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (len(partition.blocks),):
        raise DimensionError(
            f"expected one score per block ({len(partition.blocks)}), got {scores.shape}"
        )
    if cache_blocks < 2:
        raise ConfigError(f"block budget must be >= 2, got {cache_blocks}")
    window_index = len(partition.blocks) - 1
    content = list(range(window_index))
    if cache_blocks >= len(content):
        return content + [window_index]
    policy = TreeKV(cache_blocks)
    counts = np.ones((1, cache_blocks + 1), dtype=np.int64)
    held = content[:cache_blocks]
    for block in content[cache_blocks:]:
        held.append(block)
        del held[int(policy.select(scores[held][None], counts, None)[0])]
        policy.advance()
    return held + [window_index]
