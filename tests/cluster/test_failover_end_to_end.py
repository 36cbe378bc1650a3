"""End-to-end failover and membership churn under protocol traffic.

The strongest property the replica layer can offer: killing a primary
mid-epoch, or handing blocks off to a joining/leaving shard, does not
perturb the protocol transcript *at all* — every message stays
byte-identical to the single-SDC run, because recovery only ever swaps
in state mirrors and never touches randomness.
"""

import pytest

from tests.cluster.conftest import build_cluster, build_single, run_round


@pytest.fixture()
def pair():
    _, single = build_single()
    scenario, cluster = build_cluster(num_shards=2)
    yield scenario, single, cluster
    cluster.close()


class TestMidEpochFailover:
    def test_kill_mid_round_completes_with_identical_transcript(self, pair):
        scenario, single, cluster = pair
        su_id = scenario.sus[0].su_id

        # Round 0 establishes a committed epoch + snapshot to recover to.
        baseline = run_round(single, su_id)
        clustered = run_round(cluster, su_id)
        assert baseline["response"] == clustered["response"]
        cluster.sdc.commit_epoch(0)

        # Round 1 on the single SDC, straight through.
        expected = run_round(single, su_id)

        # Round 1 on the cluster: the primary dies *between* phase 1 and
        # phase 2.  Phase 2 runs on the front, so the in-flight round
        # completes without asking any shard — no failover yet.
        client = cluster.su_client(su_id)
        request = client.prepare_request()
        sign_request = cluster.sdc.start_request(request)
        victim = cluster.router.shard_ids[0]
        cluster.kill_shard(victim)
        sign_response = cluster.stp.handle_sign_extraction(sign_request)
        response = cluster.sdc.finish_request(sign_response)
        outcome = client.process_response(response, cluster.stp.directory)

        assert request.to_bytes() == expected["request"]
        assert sign_request.to_bytes() == expected["sign_request"]
        assert response.to_bytes() == expected["response"]
        assert outcome.granted == expected["granted"]
        assert cluster.router.stats.failovers == 0

        # Round 2 scatters phase 1 to the dead primary: it fails over and
        # still matches the single SDC.
        expected = run_round(single, su_id)
        assert run_round(cluster, su_id)["response"] == expected["response"]
        assert cluster.router.stats.failovers == 1

    def test_failover_event_recovers_committed_epoch(self, pair):
        scenario, _, cluster = pair
        su_id = scenario.sus[0].su_id
        run_round(cluster, su_id)
        cluster.sdc.commit_epoch(0)
        victim = cluster.router.shard_ids[0]
        cluster.kill_shard(victim)
        run_round(cluster, su_id)  # triggers promotion via retry
        events = cluster.replica_sets[victim].failovers
        assert len(events) == 1
        assert events[0].resumed_epoch == 0
        # The successor booted from the set's blob, which the commit stored.
        assert cluster.store.latest_snapshot(victim)[0] == 0


class TestMembershipChurn:
    def test_join_and_leave_preserve_transcript_equality(self, pair):
        scenario, single, cluster = pair
        su_ids = [su.su_id for su in scenario.sus[:2]]

        assert (
            run_round(single, su_ids[0])["response"]
            == run_round(cluster, su_ids[0])["response"]
        )

        plan = cluster.join_shard("shard-new")
        assert plan.blocks_moved > 0
        assert cluster.membership.is_active("shard-new")
        assert (
            run_round(single, su_ids[1])["response"]
            == run_round(cluster, su_ids[1])["response"]
        )

        plan = cluster.leave_shard("shard-new")
        assert plan.blocks_moved > 0
        assert not cluster.membership.is_active("shard-new")
        assert "shard-new" not in cluster.router.shard_ids
        assert (
            run_round(single, su_ids[0])["response"]
            == run_round(cluster, su_ids[0])["response"]
        )

    def test_handoff_moves_pu_state_with_the_blocks(self, pair):
        scenario, _, cluster = pair
        tracked_before = sum(
            cluster.replica_sets[sid].primary.num_tracked_pus
            for sid in cluster.router.shard_ids
        )
        assert tracked_before == len(scenario.pus)
        cluster.join_shard("shard-new")
        tracked_after = sum(
            cluster.replica_sets[sid].primary.num_tracked_pus
            for sid in cluster.router.shard_ids
        )
        assert tracked_after == tracked_before
