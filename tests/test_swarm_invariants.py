"""The swarm's redundant state agrees with itself between resumes.

A :class:`~repro.bittorrent.swarm.BroadcastSession` keeps the same facts in
several shapes for speed: the ``have`` bitfield matrix, one Python-int
bitset per host and one per availability bound (``below[c]``, the
fragments held by at most ``c`` hosts), the fragment counts ``held``, the
finish times ``completion``, the ``wanted`` interest counts, and the pipe
state by host pair with its gather in pipe order; the ``unchoked`` matrix
must stay inside the symmetric ``neighbor_mask``.  The seed goldens only
hash the end result;
these tests wrap ``start``/``resume`` the way perfbench does and check,
after every call on an unfinished session, that the shapes agree and that
no link is allocated past its capacity.

A pipe whose transfer runs its whole byte budget is detached from the flow
set but stays open, parked with its frozen bytes; the relay broadcast below
is built so that such a pipe stays open across later changes of the open
set, which no golden input does.
With a bulk transfer from another tenant it also pins why the event mode
visits the point after such a budget runs out.
"""

import functools
import hashlib

import numpy as np
import pytest

from repro.bittorrent.selection import bitset
from repro.bittorrent.swarm import (
    STEPPING_MODES,
    BitTorrentBroadcast,
    BroadcastSession,
    SwarmConfig,
)
from repro.bittorrent.torrent import TorrentMeta
from repro.network.fluid import FluidNetwork
from repro.network.grid5000 import (
    build_bordeaux_site,
    build_multi_site,
    default_cluster_of,
)
from repro.network.topology import GBPS, MBPS, Host, Switch, Topology
from repro.workloads import BroadcastActor, BulkTransferActor, WorkloadEngine
from test_seed_replay import (
    FAULT_GOLDENS,
    GOLDENS,
    INTERFERENCE_GOLDENS,
    broadcast_fingerprint,
    campaign_fingerprint,
    fault_plan,
    interference_workload,
)


def check_invariants(session, seen):
    have = session.have
    num_fragments = session.num_fragments
    held_by = have.sum(axis=0)
    assert session.host_bits == [bitset(row) for row in have]
    assert session.below == [bitset(held_by <= c) for c in range(len(have) + 1)]
    assert session.held == have.sum(axis=1).tolist()
    assert [finish is not None for finish in session.completion] == [
        count == num_fragments for count in session.held
    ]
    assert have.sum() - num_fragments == session.fragments.counts.sum()
    # The wire-protocol interest rule: d wants u exactly when u holds a
    # fragment d lacks (so a seed wants nothing and an empty peer offers
    # nothing).
    wanted = session.recompute_wanted()
    assert np.array_equal(wanted > 0, (have[:, None] & ~have[None]).any(axis=2))
    if not session.have_changed:
        assert np.array_equal(session.wanted, wanted)

    # An uploader unchokes only neighbours, so sync_pipes never has to
    # drop a stranger: the rechoke and the fill pick from neighbor_mask
    # rows, and a leave clears the peer's row and column.
    upload_slots = session.broadcast.choking.upload_slots
    mask, unchoked = session.neighbor_mask, session.unchoked
    assert np.array_equal(mask, mask.T)
    assert not (unchoked & ~mask).any()
    assert unchoked.sum(axis=1).max() <= upload_slots

    # The open mask is the set of pairs holding a transfer.  A live pipe
    # reads its transfer's slot; a pipe out of budget is parked (slot -1)
    # with its transfer's frozen bytes.
    hosts, n = session.hosts, len(session.hosts)
    assert sorted(session.transfers) == np.flatnonzero(session.open).tolist()
    parked = 0
    for pair, transfer in session.transfers.items():
        assert (transfer.src, transfer.dst) == (hosts[pair // n], hosts[pair % n])
        if transfer._slot >= 0:
            assert session.slot[pair] == transfer._slot, pair
        else:
            assert session.slot[pair] == -1, pair
            assert session.frozen[pair] == transfer.transferred, pair
            parked += 1
    seen["dead"] = max(seen["dead"], parked)
    # The gather in pipe order (uploader name, then downloader name) reads
    # each open pipe's bytes, and no pipe consumed or credited more bytes
    # than its transfer moved.
    pairs = session.pipe_pairs
    assert pairs.tolist() == sorted(
        session.transfers, key=lambda pair: (hosts[pair // n], hosts[pair % n])
    )
    moved = session.moved_at(session.fluid.now)
    assert moved.tolist() == [session.transfers[pair].transferred for pair in pairs.tolist()]
    assert (session.consumed[pairs] <= moved).all()
    assert (session.credit_base[pairs] <= moved).all()
    # A peer that left lost its in-flight progress with every neighbour.
    for name in session.departed:
        i = session.index[name]
        assert not session.progress.reshape(n, n)[i].any(), name
        assert not session.progress.reshape(n, n)[:, i].any(), name

    fluid = session.fluid
    if not fluid._dirty:
        load = {}
        for transfer in fluid._active.values():
            rate = float(fluid._rate[transfer._slot])
            for link in transfer.links:
                load[link] = load.get(link, 0.0) + rate
        for link, total in load.items():
            assert total <= fluid.link_capacity(link) * (1 + 1e-9), link
    seen["checks"] += 1


@pytest.fixture
def checked(monkeypatch):
    """Check every session's invariants after each ``start``/``resume``."""
    seen = {"checks": 0, "dead": 0, "sessions": []}

    def wrap(method):
        @functools.wraps(method)
        def checked_call(self, *args, **kwargs):
            request = method(self, *args, **kwargs)
            if method.__name__ == "start":
                seen["sessions"].append(self)
            if not self.finished:
                check_invariants(self, seen)
            return request

        return checked_call

    for name in ("start", "resume"):
        monkeypatch.setattr(BroadcastSession, name, wrap(getattr(BroadcastSession, name)))
    return seen


@pytest.mark.parametrize("stepping", STEPPING_MODES)
def test_golden_broadcasts_keep_their_state_consistent(checked, stepping):
    multi_site = build_multi_site(
        {site: {default_cluster_of(site): 4} for site in ("bordeaux", "grenoble")}
    )
    bordeaux = build_bordeaux_site(bordeplage=5, bordereau=4, borderline=2)
    fingerprint, _ = broadcast_fingerprint(multi_site, 80, seed=73, stepping=stepping)
    assert fingerprint == GOLDENS[stepping]["multi-site"]
    fingerprint, _ = broadcast_fingerprint(bordeaux, 120, seed=2012, stepping=stepping)
    assert fingerprint == GOLDENS[stepping]["bordeaux"]
    fingerprint, _ = broadcast_fingerprint(
        bordeaux, 2000, seed=99, rechoke_interval=0.3, optimistic_every=2,
        stepping=stepping,
    )
    assert fingerprint == GOLDENS[stepping]["rechoke-heavy"]
    assert checked["checks"] > 0


@pytest.mark.parametrize("stepping", STEPPING_MODES)
def test_budget_exhausting_broadcast_keeps_its_state_consistent(
    checked, monkeypatch, stepping
):
    """The 60-fragment Bordeaux broadcast's pipes run out of byte budget in
    its last advance."""
    finished = []
    advance_to = FluidNetwork.advance_to

    def recording_advance_to(self, target):
        done = advance_to(self, target)
        finished.extend(done)
        return done

    monkeypatch.setattr(FluidNetwork, "advance_to", recording_advance_to)
    topology = build_bordeaux_site(bordeplage=3, bordereau=3, borderline=2)
    broadcast_fingerprint(topology, 60, seed=5, stepping=stepping)
    assert len(checked["sessions"]) == 1
    assert finished


def relay_topology(root_capacity=10 * MBPS):
    """A root behind a slow link (10 Mb/s by default) and three hosts on
    10 Gb/s links.

    A pipe from the relay to a leaf moves its whole budget within one
    control step, while the relay keeps receiving fragments the leaf lacks
    from the slow root, so the detached pipe stays open.
    """
    topology = Topology(name="relay")
    topology.add_switch(Switch(name="sw", site="s"))
    for name, capacity in (
        ("a-relay", 10 * GBPS), ("b-leaf-0", 10 * GBPS), ("b-leaf-1", 10 * GBPS),
        ("z-root", root_capacity),
    ):
        topology.add_host(Host(name=name, site="s", cluster="c"))
        topology.add_link(name, "sw", capacity=capacity, latency=5e-5)
    return topology


def test_detached_pipes_keep_their_vectors_consistent(checked):
    """A parked pipe stays open while other pipes open and close."""
    meta = TorrentMeta(name="relay", fragment_size=16384, num_fragments=60)
    matrices = []
    for stepping in STEPPING_MODES:
        config = SwarmConfig(torrent=meta, tcp_window=None, stepping=stepping)
        result = BitTorrentBroadcast(relay_topology(), config).run(
            root="z-root", rng=np.random.default_rng(1)
        )
        assert result.fragments.total_fragments() == 180.0
        matrices.append(result.fragments.counts)
    assert checked["dead"] >= 1
    np.testing.assert_array_equal(*matrices)


def relay_with_bulk(stepping, bulk_start):
    """The relay broadcast (5 Mb/s root, ``control_dt=0.05``, seed 2) next
    to a 100 MB leaf-to-leaf bulk transfer starting at ``bulk_start``."""
    meta = TorrentMeta(name="relay", fragment_size=16384, num_fragments=60)
    config = SwarmConfig(torrent=meta, tcp_window=None, control_dt=0.05, stepping=stepping)
    engine = WorkloadEngine(relay_topology(root_capacity=5 * MBPS))
    primary = engine.add(BroadcastActor(
        "primary", config, root="z-root", rng=np.random.default_rng(2)
    ))
    engine.add(BulkTransferActor(
        "bulk", np.random.default_rng(0), "b-leaf-1", "b-leaf-0", 1e8,
        repeat=False, start_time=bulk_start,
    ))
    engine.run()
    return primary.result


def test_a_tenant_recycling_an_exhausted_pipes_slot_changes_nothing(checked):
    """In the advance after step 4 a relay-to-leaf pipe runs out of budget
    while every interest holds and no rechoke is due, so only that pipe
    makes the event mode visit step 5.  The pipe is parked right after that
    advance: were it left on its freed fluid slot, the bulk transfer
    starting during a jump would take the slot, and the landing's
    conversion check would read its bytes as the dead pipe's."""
    outcomes = {}
    for stepping in STEPPING_MODES:
        result = relay_with_bulk(stepping, 0.27)
        outcomes[stepping] = (
            result.fragments.counts.tolist(), result.duration, result.completion_times,
        )
    assert checked["dead"] >= 1
    assert outcomes["fixed"] == outcomes["event"]


@pytest.mark.parametrize("stepping", STEPPING_MODES)
def test_no_conversion_check_reads_a_recycled_slot(stepping):
    """A relay-to-leaf pipe runs out of budget in the advance to 0.25 s, and
    a bulk transfer starting at 0.2475 s is handed its freed fluid slot.
    The conversion check right after that advance must read the dead pipe's
    frozen bytes, not the bulk's: the broadcast then measures what it
    measures with the bulk starting at 0.245 s, before the slot is free."""
    digests = {
        bulk_start: hashlib.sha256(
            relay_with_bulk(stepping, bulk_start).fragments.counts.tobytes()
        ).hexdigest()
        for bulk_start in (0.245, 0.2475)
    }
    assert digests[0.245].startswith("164d340c")
    assert digests[0.2475] == digests[0.245]


@pytest.mark.parametrize("stepping", STEPPING_MODES)
def test_no_rebuild_repeats_the_previous_pipe_layout(monkeypatch, stepping):
    """The open pipes are gathered in pipe order only when the open set
    changes or a pipe runs out of budget, and a pipe out of budget is
    parked once, right after the advance or landing that detached it, not
    again at the next visit."""
    layouts = []
    order_pipes = BroadcastSession.order_pipes

    def recorded(self):
        order_pipes(self)
        layouts.append((
            self.pipe_pairs.tolist(),
            self.pipe_slots.tolist(),
            self.pipe_dead_positions.tolist(),
        ))

    monkeypatch.setattr(BroadcastSession, "order_pipes", recorded)
    relay_with_bulk(stepping, 0.27)
    assert any(dead for _, _, dead in layouts)
    repeats = sum(a == b for a, b in zip(layouts, layouts[1:]))
    assert repeats == 0


@pytest.mark.parametrize("stepping", STEPPING_MODES)
def test_churn_campaign_keeps_its_state_consistent(checked, stepping):
    fingerprint = campaign_fingerprint(stepping, workload=interference_workload("churn"))
    assert fingerprint == INTERFERENCE_GOLDENS["churn"]
    assert checked["checks"] > 0


@pytest.mark.parametrize("stepping", STEPPING_MODES)
def test_link_failure_campaign_keeps_its_state_consistent(checked, stepping):
    fingerprint = campaign_fingerprint(stepping, faults=fault_plan("link-failure-4"))
    assert fingerprint == FAULT_GOLDENS["link-failure-4"]
    assert checked["checks"] > 0
