from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treekv import (
    BlockPartition,
    ConfigError,
    InputError,
    InvariantViolation,
    TreeKV,
    observation_scores,
    partition_blocks,
    treekv_prefill_compress,
)

from helpers import drive_policy
from oracles import oracle_prefill_blocks


# --- partitioning -------------------------------------------------------------


def test_partition_exact_tiling():
    partition = partition_blocks(16, 4)
    assert partition.blocks == ((0, 4), (4, 8), (8, 12), (12, 16))
    assert partition.observation_window == (12, 16)


def test_partition_remainder_block():
    partition = partition_blocks(17, 4)
    assert len(partition.blocks) == 5
    assert partition.blocks[-1] == (16, 17)


def test_partition_degenerate_single_block():
    partition = partition_blocks(4, 4)
    assert partition.blocks == ((0, 4),)
    assert partition.observation_window == (0, 4)
    assert partition.content_blocks == ()


@pytest.mark.parametrize("prompt_len, block_size", [(16, 4), (17, 4), (4, 4), (23, 8)])
def test_partition_prompt_len_is_the_last_blocks_end(prompt_len, block_size):
    # (17, 4) and (23, 8) end in a short observation window
    partition = partition_blocks(prompt_len, block_size)
    assert partition.prompt_len == partition.blocks[-1][1] == prompt_len
    assert [field.name for field in fields(partition)] == ["blocks"]
    assert BlockPartition(partition.blocks) == partition


def test_partition_rejects_short_prompts():
    with pytest.raises(InputError):
        partition_blocks(3, 4)
    with pytest.raises(ConfigError):
        partition_blocks(8, 0)


# --- observation scoring ---------------------------------------------------------


def test_observation_scores_uniform_rows():
    partition = partition_blocks(8, 2)
    rows = [np.full(8, 1 / 8), np.full(8, 1 / 8)]
    scores = observation_scores(np.sum(rows, axis=-2), partition)
    assert np.allclose(scores, scores[0])


def test_observation_scores_concentrated_mass():
    partition = partition_blocks(8, 2)
    row = np.zeros(8)
    row[2:4] = 0.5  # all mass on block 1's tokens
    scores = observation_scores(np.sum([row, row], axis=-2), partition)
    assert np.allclose(scores, [0.0, 0.5, 0.0, 0.0])


def test_observation_scores_hand_average():
    partition = partition_blocks(4, 2)
    row = np.array([0.1, 0.3, 0.4, 0.2])
    scores = observation_scores(np.sum([row, row], axis=-2), partition)
    assert np.allclose(scores, [0.2, 0.3], atol=1e-12)


def test_observation_scores_causal_rows_are_zero_padded():
    partition = partition_blocks(4, 2)
    rows = [[0.5, 0.5, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25]]
    scores = observation_scores(np.sum(rows, axis=-2), partition)
    assert np.allclose(scores, [(0.75 + 0.75) / 4, (0.25 + 0.25) / 4])


def test_observation_scores_of_all_streams_are_each_stream_s_own():
    rng = np.random.default_rng(5)
    partition = partition_blocks(23, 4)
    rows = rng.random((2, 3, 3, 23))  # as many rows as the window is wide
    scores = observation_scores(np.sum(rows, axis=-2), partition)
    assert scores.shape == (2, 3, 6)
    for index in np.ndindex(2, 3):
        mass = np.sum(rows[index], axis=-2)
        assert np.array_equal(scores[index], observation_scores(mass, partition))


def test_observation_scores_rejects_oversized_rows():
    partition = partition_blocks(4, 2)
    with pytest.raises(InvariantViolation, match=r"mass \(5,\) is not \(\.\.\., 4\)"):
        observation_scores(np.sum([np.zeros(5)], axis=-2), partition)
    with pytest.raises(InvariantViolation, match=r"mass \(0,\) is not \(\.\.\., 4\)"):
        observation_scores([], partition)


# --- block-level eviction ---------------------------------------------------------


def test_prefill_single_comparison():
    partition = partition_blocks(20, 4)  # 4 content blocks + window
    kept = treekv_prefill_compress(partition, [0.1, 0.4, 0.2, 0.3, 0.9], 3)
    assert kept == [1, 2, 3, 4]


def test_prefill_equal_scores_behave_like_select_left():
    partition = partition_blocks(36, 4)  # 8 content blocks + window
    scores = np.full(9, 0.25)
    kept = treekv_prefill_compress(partition, scores, 3)

    # independent left-only replay
    held = [0, 1, 2]
    idx = 1
    for block in range(3, 8):
        held.append(block)
        del held[idx - 1]
        idx = (idx % 3) + 1
    assert kept == held + [8]


def test_prefill_no_op_when_budget_covers_blocks():
    partition = partition_blocks(20, 4)
    scores = np.linspace(0.1, 0.5, 5)
    assert treekv_prefill_compress(partition, scores, 5) == [0, 1, 2, 3, 4]
    assert treekv_prefill_compress(partition, scores, 99) == [0, 1, 2, 3, 4]


def test_prefill_requires_budget_of_two():
    partition = partition_blocks(20, 4)
    for scores, budget in [(np.zeros(5), 1), (np.zeros(5), 0), (np.zeros((3, 5)), 1)]:
        with pytest.raises(ConfigError):
            treekv_prefill_compress(partition, scores, budget)


def test_prefill_score_length_must_match_blocks():
    partition = partition_blocks(20, 4)
    with pytest.raises(InvariantViolation, match=r"one score per block \(5\), got \(4,\)"):
        treekv_prefill_compress(partition, np.zeros(4), 3)


# (block_size, prompt_len, cache_blocks): a single block, budgets at and
# above the content blocks, a short last block, blocks of one token.
_PREFILL_CASES = [(4, 4, 2), (4, 3 * 4 + 4, 3), (4, 5 * 4 + 1, 9), (3, 26, 2), (1, 30, 4)]


def test_lockstep_prefill_matches_the_oracle_and_one_stream_calls():
    rng = np.random.default_rng(1101)
    cases = list(_PREFILL_CASES)
    for _ in range(60):
        block_size = int(rng.integers(1, 6))
        blocks = int(rng.integers(1, 16))
        tail = int(rng.integers(1, block_size + 1))  # a lone block is never short
        prompt_len = (blocks - 1) * block_size + (tail if blocks > 1 else block_size)
        cases.append((block_size, prompt_len, int(rng.integers(2, blocks + 3))))
    for number, (block_size, prompt_len, cache_blocks) in enumerate(cases):
        partition = partition_blocks(prompt_len, block_size)
        shape = (int(rng.integers(1, 8)), len(partition.blocks))
        # Quarter steps make ties common in every other case.
        scores = rng.integers(0, 4, shape) / 4 if number % 2 else rng.random(shape)
        kept = treekv_prefill_compress(partition, scores, cache_blocks)
        assert kept == oracle_prefill_blocks(scores.tolist(), cache_blocks)
        assert kept == [treekv_prefill_compress(partition, row, cache_blocks) for row in scores]


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(1, 40), st.integers(0, 2**31 - 1))
def test_prefill_budget_order_and_determinism(cache_blocks, extra, seed):
    rng = np.random.default_rng(seed)
    blocks = cache_blocks + extra
    prompt_len = blocks * 3
    partition = partition_blocks(prompt_len, 3)
    scores = rng.random(blocks)
    kept = treekv_prefill_compress(partition, scores, cache_blocks)
    assert kept == treekv_prefill_compress(partition, scores, cache_blocks)
    assert kept == sorted(kept)  # a subsequence of the block order
    assert kept[-1] == blocks - 1  # observation window always retained
    assert len(kept) == min(blocks, cache_blocks + 1)
    retained_tokens = sum(
        partition.blocks[i][1] - partition.blocks[i][0] for i in kept
    )
    window = partition.observation_window
    assert retained_tokens <= cache_blocks * 3 + (window[1] - window[0])


def _token_level_tree_with_frozen_scores(scores, budget):
    """Reference: the decode-time eviction op driven by frozen scores."""
    n = len(scores)  # content tokens evict; the window token stays out
    batch, _ = list(drive_policy(TreeKV(budget), budget, fixed_scores=scores[: n - 1]))[-1]
    return batch.positions[0, : batch.n].tolist() + [n - 1]


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(1, 30), st.integers(0, 2**31 - 1))
def test_blocks_of_one_reduce_to_token_level_eviction(budget, extra, seed):
    rng = np.random.default_rng(seed)
    n = budget + 1 + extra
    scores = rng.random(n)
    partition = partition_blocks(n, 1)
    assert len(partition.blocks) == n
    kept = treekv_prefill_compress(partition, scores, budget)
    assert kept == _token_level_tree_with_frozen_scores(scores, budget)
