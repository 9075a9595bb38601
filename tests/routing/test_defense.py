"""Unit tests for the defense layer (:mod:`repro.routing.defense`).

Pure protocol logic: every method takes ``now`` explicitly, so the
screens, the quarantine state machine and the purge pass are exercised
here without a simulator, exactly like the flooding tests.
"""

import pytest

from repro.metrics import HopNormalizedMetric
from repro.psn.node import DOWN_COST
from repro.routing import (
    REJECT_REASONS,
    DefenseConfig,
    DefensePolicy,
    FloodingState,
    NodeDefense,
    RoutingUpdate,
)
from repro.topology import build_ring_network

#: In the 4-ring, node 1 owns link 2 (1 -> 2) and node 0 owns link 0.
NET = build_ring_network(4)
METRIC = HopNormalizedMetric()


def _defense(config=None, node_id=0):
    policy = DefensePolicy(NET, METRIC, config or DefenseConfig())
    flooding = FloodingState(NET, node_id)
    return NodeDefense(policy, node_id, flooding)


def _own_link(node_id):
    return NET.out_links(node_id)[0].link_id


def _legal_cost(link_id):
    return METRIC.min_cost_for(NET.link(link_id))


def _update(origin, sequence, overrides=None):
    """A node update from ``origin``: every line at a legal cost, except
    the lines named in ``overrides`` (link id -> cost)."""
    overrides = overrides or {}
    return RoutingUpdate(origin, tuple(
        (link.link_id, overrides.get(link.link_id, _legal_cost(link.link_id)))
        for link in NET.out_links(origin)
    ), sequence)


def test_config_validation():
    with pytest.raises(ValueError):
        DefenseConfig(seq_window=0)
    with pytest.raises(ValueError):
        DefenseConfig(rate_limit_per_s=0.0)
    with pytest.raises(ValueError):
        DefenseConfig(rate_burst=0.5)
    with pytest.raises(ValueError):
        DefenseConfig(quarantine_s=60.0, max_quarantine_s=30.0)
    with pytest.raises(ValueError):
        DefenseConfig(purge_age_s=10.0, purge_interval_s=30.0)
    # Disabled purging lifts the age/interval coupling.
    DefenseConfig(purge_age_s=10.0, purge_interval_s=0.0)


def test_policy_snapshots_cost_bounds_per_link():
    policy = DefensePolicy(NET, METRIC, DefenseConfig())
    assert set(policy.bounds) == {link.link_id for link in NET.links}
    for link in NET.links:
        lo, hi = policy.bounds[link.link_id]
        assert lo == METRIC.min_cost_for(link)
        assert hi == METRIC.params_for(link).max_cost
        assert lo <= hi


def test_unknown_metric_skips_range_screen():
    class Weird:
        pass

    policy = DefensePolicy(NET, Weird(), DefenseConfig())
    assert policy.bounds == {}
    defense = NodeDefense(policy, 0, FloodingState(NET, 0))
    link = _own_link(1)
    wild = _update(1, 1, {link: 999_999})
    assert defense.screen(wild, 1, 0.0) is None


def test_in_band_update_passes_every_screen():
    defense = _defense()
    update = _update(1, 1)
    assert defense.screen(update, 1, 0.0) is None
    assert defense.stats.rejected == 0


def test_out_of_range_cost_rejected_but_down_cost_is_legal():
    defense = _defense()
    link = _own_link(1)
    # Every line of the update is screened, not just the first.
    last = NET.out_links(1)[-1].link_id
    assert last != link
    _, hi = defense.policy.bounds[last]
    bad = _update(1, 1, {last: hi + 1})
    assert defense.screen(bad, 1, 0.0) == "cost-range"
    assert defense.stats.rejected_cost == 1
    # DOWN_COST ("line dead") always passes: every node may report it.
    dead = _update(1, 2, {link: DOWN_COST})
    assert defense.screen(dead, 1, 0.0) is None


def test_sequence_jump_beyond_window_rejected():
    defense = _defense()
    first = _update(1, 1)
    assert defense.screen(first, 1, 0.0) is None
    assert defense.flooding.accept(first)
    window = defense.policy.config.seq_window
    plausible = _update(1, 1 + window)
    assert defense.screen(plausible, 1, 1.0) is None
    forged = _update(1, 1 + window + 1)
    assert defense.screen(forged, 1, 1.0) == "seq-implausible"
    assert defense.stats.rejected_seq == 1


def test_absent_key_accepts_any_sequence():
    # The re-learn door: a purged (or never-seen) key must accept any
    # sequence, else purge-and-reflood could never heal a poisoning.
    defense = _defense()
    huge = _update(1, 1 << 20)
    assert defense.screen(huge, 1, 0.0) is None


def test_rejections_accumulate_into_quarantine_and_rehabilitation():
    config = DefenseConfig(quarantine_score=3.0, quarantine_s=30.0)
    defense = _defense(config)
    link = _own_link(1)
    _, hi = defense.policy.bounds[link]
    for seq in range(1, 4):  # three strikes in one burst
        bad = _update(1, seq, {link: hi + 1})
        assert defense.screen(bad, 1, 3.0) == "cost-range"
    assert defense.stats.quarantines == 1
    assert defense.quarantined(1, 4.0)
    # Everything from the quarantined neighbour bounces, even honest.
    honest = _update(1, 4)
    assert defense.screen(honest, 1, 4.0) == "quarantined"
    # ... but only until the sentence is served.
    after = 3.0 + 30.0 + 1.0
    assert defense.screen(honest, 1, after) is None
    assert defense.stats.rehabilitations == 1
    assert not defense.quarantined(1, after)


def test_quarantine_doubles_on_relapse_up_to_the_cap():
    config = DefenseConfig(
        quarantine_score=1.0, quarantine_s=10.0, max_quarantine_s=15.0
    )
    defense = _defense(config)
    link = _own_link(1)
    _, hi = defense.policy.bounds[link]
    sentences = []
    defense.on_quarantine = lambda node, until: sentences.append(until)
    now = 0.0
    for relapse in range(3):
        assert defense.screen(
            _update(1, relapse + 1, {link: hi + 1}), 1, now
        ) == "cost-range"
        now = sentences[-1] + 1.0  # serve it out, then re-offend
        defense.screen(_update(1, relapse + 2), 1, now)
    lengths = [
        until - start for until, start in
        zip(sentences, [0.0] + [s + 1.0 for s in sentences])
    ]
    assert lengths == [10.0, 15.0, 15.0]  # 10, then 20 capped to 15


def test_score_decay_forgives_isolated_rejections():
    config = DefenseConfig(quarantine_score=2.0, score_decay_per_s=1.0)
    defense = _defense(config)
    link = _own_link(1)
    _, hi = defense.policy.bounds[link]
    defense.screen(_update(1, 1, {link: hi + 1}), 1, 0.0)
    # 5 s later the first point has fully decayed; this second strike
    # leaves the score at 1 < 2, so no quarantine.
    defense.screen(_update(1, 2, {link: hi + 1}), 1, 5.0)
    assert defense.stats.quarantines == 0


def test_token_bucket_charges_originations_only():
    config = DefenseConfig(rate_limit_per_s=1.0, rate_burst=2.0)
    defense = _defense(config)
    # Two originations drain the burst; the third bounces.
    for seq in (1, 2):
        assert defense.screen(_update(1, seq), 1, 0.0) is None
    third = _update(1, 3)
    assert defense.screen(third, 1, 0.0) == "rate-limit"
    assert defense.stats.rejected_rate == 1
    # A *forwarded* third-party update is free: fan-in is the
    # protocol's doing, not the neighbour's.
    forwarded = _update(2, 1)
    assert defense.screen(forwarded, 1, 0.0) is None
    # Tokens refill with time.
    assert defense.screen(_update(1, 3), 1, 2.0) is None


def test_purge_evicts_stale_foreign_keys_only():
    config = DefenseConfig(purge_age_s=100.0, purge_interval_s=25.0)
    defense = _defense(config, node_id=0)
    flooding = defense.flooding
    stale = _update(1, 1)
    assert flooding.accept(stale)
    defense.note_accepted(stale, 10.0)
    own = flooding.originate(_update(0, 1).entries)
    defense.note_accepted(own, 10.0)
    fresh = _update(2, 1)
    assert flooding.accept(fresh)
    defense.note_accepted(fresh, 150.0)
    purged = defense.purge(200.0)
    assert purged == 1  # only the stale foreign entry
    assert stale.key() not in flooding._highest_seen
    assert own.key() in flooding._highest_seen  # own entry never purges
    assert fresh.key() in flooding._highest_seen  # refreshed in time
    assert defense.stats.purge_passes == 1
    assert defense.stats.purged_entries == 1
    # The purged key now accepts any sequence: the re-learn door.
    relearn = _update(1, 1)
    assert defense.screen(relearn, 1, 201.0) is None


def test_reject_reasons_constant_matches_screen_outputs():
    assert set(REJECT_REASONS) == {
        "quarantined", "rate-limit", "cost-range", "seq-implausible"
    }
