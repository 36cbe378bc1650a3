"""Transcript equivalence: N-shard cluster ≡ one SDC, byte for byte.

The sharded plane must be an *implementation detail*: for the same seed
and the same scenario, every protocol message an SU or the STP sees —
and every decision — must be identical whether the SDC runs as one
server or as a 4-shard cluster.  The cluster draws all randomness
centrally in single-SDC cell order and shards do only deterministic
homomorphic arithmetic, so equality holds at the byte level, not merely
in distribution.
"""

import pytest

from tests.cluster.conftest import build_cluster, build_single, run_round

NUM_ROUNDS = 3


@pytest.fixture(scope="module")
def paired_transcripts():
    """The same fixed-seed session run through both deployments.

    Each session interleaves license rounds with a PU channel switch, so
    the routed-update path is part of the compared transcript too.
    """
    records = {}
    coordinators = {}
    for name, (scenario, coordinator) in (
        ("single", build_single()),
        ("cluster", build_cluster(num_shards=4)),
    ):
        rounds = []
        for i in range(NUM_ROUNDS):
            su_id = scenario.sus[i % 2].su_id
            rounds.append(run_round(coordinator, su_id))
            if i == 0:
                pu_id = scenario.pus[0].receiver_id
                coordinator.pu_switch_channel(pu_id, 1, signal_strength_mw=2.0)
        records[name] = rounds
        coordinators[name] = coordinator
    yield records, coordinators
    coordinators["cluster"].close()


class TestTranscriptEquality:
    def test_requests_identical(self, paired_transcripts):
        records, _ = paired_transcripts
        for single, cluster in zip(records["single"], records["cluster"]):
            assert single["request"] == cluster["request"]

    def test_blinded_v_matrices_identical(self, paired_transcripts):
        """The scatter-gathered Ṽ equals the single SDC's, cell for cell."""
        records, _ = paired_transcripts
        for single, cluster in zip(records["single"], records["cluster"]):
            assert single["sign_request"] == cluster["sign_request"]

    def test_stp_conversions_identical(self, paired_transcripts):
        records, _ = paired_transcripts
        for single, cluster in zip(records["single"], records["cluster"]):
            assert single["sign_response"] == cluster["sign_response"]

    def test_license_responses_identical(self, paired_transcripts):
        records, _ = paired_transcripts
        for single, cluster in zip(records["single"], records["cluster"]):
            assert single["response"] == cluster["response"]

    def test_decisions_identical(self, paired_transcripts):
        records, _ = paired_transcripts
        decisions = {
            name: [r["granted"] for r in rounds]
            for name, rounds in records.items()
        }
        assert decisions["single"] == decisions["cluster"]

    def test_merged_q_sum_ciphertext_identical(self, paired_transcripts):
        """hom-merging per-shard ΣQ̃ partials reproduces the exact ciphertext."""
        records, _ = paired_transcripts
        for single, cluster in zip(records["single"], records["cluster"]):
            assert single["q_sum"].ciphertext == cluster["q_sum"].ciphertext

    def test_merged_q_sum_plaintext_identical(self, paired_transcripts):
        # ΣQ̃ lives under the requesting SU's personal key (the converted
        # X̃ cells do), so each SU decrypts its own round's merge.
        records, coordinators = paired_transcripts
        for single, cluster in zip(records["single"], records["cluster"]):
            key_single = coordinators["single"].su_client(
                single["su_id"]
            ).keypair.private_key
            key_cluster = coordinators["cluster"].su_client(
                cluster["su_id"]
            ).keypair.private_key
            assert key_single.decrypt(single["q_sum"]) == key_cluster.decrypt(
                cluster["q_sum"]
            )


class TestClusterShape:
    def test_every_shard_served_subqueries(self, paired_transcripts):
        _, coordinators = paired_transcripts
        cluster = coordinators["cluster"]
        assert len(cluster.router.shard_ids) == 4
        # 3 rounds × up-to-4 shards, phase 1 only; at minimum each shard
        # that owns disclosed blocks was hit every round.
        assert cluster.router.stats.subqueries >= 2 * NUM_ROUNDS

    def test_blocks_partition_across_shards(self, paired_transcripts):
        _, coordinators = paired_transcripts
        cluster = coordinators["cluster"]
        owned = []
        for shard_id in cluster.router.shard_ids:
            owned.extend(cluster.replica_sets[shard_id].blocks)
        assert sorted(owned) == list(range(cluster.environment.num_blocks))
