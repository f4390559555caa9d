"""The hash partitioner and shard block extraction."""

import numpy as np
import pytest

from repro.graph.partition import (
    UserPartition,
    extract_shard_blocks,
    hash_partition,
)
from repro.utils.matrices import frobenius_sq


def partition_of(graph, n_shards):
    return hash_partition(graph.corpus.user_ids, n_shards)


class TestUserPartition:
    def test_sizes_and_rows(self):
        partition = UserPartition(
            n_shards=3, assignments=np.array([0, 2, 0, 1, 2, 2])
        )
        assert partition.sizes.tolist() == [2, 1, 3]
        assert partition.rows_of(2).tolist() == [1, 4, 5]
        assert partition.num_users == 6

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            UserPartition(n_shards=2, assignments=np.array([0, 2]))
        with pytest.raises(ValueError, match="n_shards"):
            UserPartition(n_shards=0, assignments=np.empty(0))


class TestHashPartition:
    def test_deterministic_and_sticky_per_user(self):
        ids = list(range(100, 400, 7))
        a = hash_partition(ids, n_shards=4)
        b = hash_partition(ids, n_shards=4)
        np.testing.assert_array_equal(a.assignments, b.assignments)
        # A user's shard depends only on their id: reordering or
        # dropping other users never moves them (streaming stickiness).
        subset = ids[::3]
        c = hash_partition(subset, n_shards=4)
        by_id = dict(zip(ids, a.assignments))
        assert [by_id[uid] for uid in subset] == c.assignments.tolist()

    def test_roughly_balanced(self):
        partition = hash_partition(list(range(2000)), n_shards=4)
        sizes = partition.sizes
        assert sizes.sum() == 2000
        assert sizes.min() > 350  # splitmix64 mixes consecutive ids well

    def test_single_shard_and_empty(self):
        assert hash_partition([5, 6], n_shards=1).assignments.tolist() == [0, 0]
        assert hash_partition([], n_shards=3).num_users == 0


class TestExtractShardBlocks:
    def test_single_shard_blocks_equal_original(self, graph):
        sharded = extract_shard_blocks(graph, partition_of(graph, 1))
        [block] = sharded.blocks
        assert (block.xp != graph.xp).nnz == 0
        assert (block.xu != graph.xu).nnz == 0
        assert (block.xr != graph.xr).nnz == 0
        assert (block.gu != graph.user_graph.adjacency).nnz == 0
        assert sharded.gu_cut_weight == 0.0
        assert sharded.xr_cut_nnz == 0

    def test_blocks_cover_rows_exactly_once(self, graph):
        sharded = extract_shard_blocks(graph, partition_of(graph, 3))
        user_rows = np.concatenate([b.user_rows for b in sharded.blocks])
        tweet_rows = np.concatenate([b.tweet_rows for b in sharded.blocks])
        assert sorted(user_rows.tolist()) == list(range(graph.num_users))
        assert sorted(tweet_rows.tolist()) == list(range(graph.num_tweets))
        # Tweets follow their author's shard.
        assignments = sharded.partition.assignments
        for block in sharded.blocks:
            for row in block.tweet_rows:
                author = graph.corpus.user_position(
                    graph.corpus.tweets[int(row)].user_id
                )
                assert assignments[author] == block.index

    def test_cut_accounting_is_conserved(self, graph):
        sharded = extract_shard_blocks(graph, partition_of(graph, 4))
        kept_xr = sum(b.xr.nnz for b in sharded.blocks)
        assert kept_xr + sharded.xr_cut_nnz == graph.xr.nnz
        kept_gu = sum(float(b.gu.sum()) for b in sharded.blocks) / 2.0
        assert kept_gu + sharded.gu_cut_weight == pytest.approx(
            sharded.gu_total_weight
        )
        assert 0.0 <= sharded.gu_cut_fraction <= 1.0
        assert 0.0 <= sharded.xr_cut_fraction <= 1.0

    def test_xu_rows_sliced_whole(self, graph):
        sharded = extract_shard_blocks(graph, partition_of(graph, 3))
        for block in sharded.blocks:
            if block.num_users:
                expected = graph.xu[block.user_rows]
                assert (block.xu != expected).nnz == 0

    def test_block_laplacian_is_psd_block(self, graph):
        sharded = extract_shard_blocks(graph, partition_of(graph, 3))
        for block in sharded.blocks:
            if block.num_users == 0:
                continue
            # Full-graph degrees over the block's own edges: each row of
            # Lu sums to that user's cut-edge degree, so Lu stays
            # diagonally dominant (PSD).
            row_sums = np.asarray(block.laplacian.sum(axis=1)).ravel()
            cut_degrees = np.asarray(block.gu_halo.sum(axis=1)).ravel()
            np.testing.assert_allclose(row_sums, cut_degrees, atol=1e-12)
            assert np.all(row_sums >= -1e-12)

    def test_empty_shards_allowed(self, graph):
        many = extract_shard_blocks(
            graph, partition_of(graph, graph.num_users + 5)
        )
        empty = [b for b in many.blocks if b.is_empty]
        assert empty, "expected at least one empty shard"
        for block in empty:
            assert block.xp.shape[0] == 0 and block.xu.shape[0] == 0

    def test_partition_size_mismatch_rejected(self, graph):
        with pytest.raises(ValueError, match="partition covers"):
            extract_shard_blocks(
                graph,
                UserPartition(
                    n_shards=2,
                    assignments=np.zeros(graph.num_users + 1, dtype=np.int64),
                ),
            )


class TestShardBlockPayload:
    """Compact serialization for the socket backend's one-time shipping."""

    def test_round_trip_is_bit_identical(self, graph):
        sharded = extract_shard_blocks(graph, partition_of(graph, 3))
        for block in sharded.blocks:
            rebuilt = type(block).from_payload(block.to_payload())
            assert rebuilt.index == block.index
            np.testing.assert_array_equal(rebuilt.user_rows, block.user_rows)
            np.testing.assert_array_equal(rebuilt.tweet_rows, block.tweet_rows)
            for name in ("xp", "xu", "xr", "gu", "du", "laplacian"):
                original = getattr(block, name)
                copy = getattr(rebuilt, name)
                assert copy.shape == original.shape
                assert (copy != original).nnz == 0
            # A worker's sweep cache derives the objective's norms from
            # the shipped matrices, so they match bitwise.
            for name in ("xp", "xu", "xr"):
                assert frobenius_sq(getattr(rebuilt, name)) == frobenius_sq(
                    getattr(block, name)
                )

    def test_payload_drops_derived_members(self, graph):
        sharded = extract_shard_blocks(graph, partition_of(graph, 2))
        payload = sharded.blocks[0].to_payload()
        assert set(payload) == {
            "index", "user_rows", "tweet_rows", "xp", "xu", "xr", "gu",
            "boundary_local", "gu_halo", "halo_owner", "halo_source",
        }

    def test_payload_survives_pickle(self, graph):
        import pickle

        sharded = extract_shard_blocks(graph, partition_of(graph, 2))
        block = sharded.blocks[0]
        rebuilt = type(block).from_payload(
            pickle.loads(pickle.dumps(block.to_payload()))
        )
        assert (rebuilt.xp != block.xp).nnz == 0
        assert frobenius_sq(rebuilt.xp) == frobenius_sq(block.xp)
