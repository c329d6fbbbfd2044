"""Synchronized BitTorrent broadcast over the fluid network model.

A broadcast starts with one *root* (seed) holding the complete file and every
other host holding nothing; all clients start simultaneously and the
broadcast is complete when the last client finishes downloading (the paper's
reference completion time).

The simulation advances on a grid of control points spaced ``control_dt``
apart.  Between points, data moves as max-min-fair fluid flows along the
unchoke relation; at each visited point the accumulated bytes on every
active (uploader → downloader) pipe are converted into fragments using
rarest-first selection, the fragment counters are incremented, and
choking/interest state is refreshed.  Full tit-for-tat rechokes happen every
``rechoke_interval`` seconds, and peers with idle upload slots grab newly
interested neighbours immediately, as the reference client's choker
effectively does.

Two stepping policies decide *which* control points are executed
(``SwarmConfig.stepping``, see docs/simulation.md):

* ``"fixed"`` — the classic loop: every grid point is visited in turn.  This
  is the oracle: the reference semantics all other modes must reproduce.
* ``"event"`` — after a quiescent control point the loop predicts the
  next rechoke, the next fluid-flow transition and the next fragment-
  boundary conversion, and simulated time jumps straight to the earliest of
  the three (the next state-changing control point).  Because all
  inter-point state is *anchored* (byte counts are analytic functions of the
  last transition, never per-tick accumulations), skipping the inert points
  is exact: the event mode replays the fixed-step loop bit for bit — same
  random-stream consumption, same fragment-completion ordering, same
  matrices — while executing only the control points where a choking,
  interest or fragment transition can actually occur.

This "fluid BitTorrent" keeps the protocol features the paper identifies as
the sources of measurement randomness — random initial peer choice, four
upload slots, 35-peer sets, asymmetric broadcast data flow — while staying
fast enough to run dozens of measurement iterations on a laptop.

The loop itself is externally clockable: it is written as a generator of
clock *requests* wrapped in a :class:`BroadcastSession`, so a broadcast can
either own its clock (:meth:`BitTorrentBroadcast.run`, the degenerate
driver) or run as one tenant of a shared multi-tenant simulation
(:mod:`repro.workloads`), contending with rival broadcasts, generative
cross traffic, capacity drift and peer churn on one fluid network —
see docs/workloads.md.
"""

from __future__ import annotations

import bisect
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.bittorrent.choking import DEFAULT_UPLOAD_SLOTS, ChokingPolicy
from repro.bittorrent.instrumentation import FragmentMatrix
from repro.bittorrent.peer import PeerState
from repro.bittorrent.selection import PieceSelector
from repro.bittorrent.torrent import TorrentMeta
from repro.bittorrent.tracker import DEFAULT_MAX_PEERS, Tracker
from repro.network.fluid import FluidNetwork, FluidTransfer
from repro.network.grid5000 import DEFAULT_TCP_WINDOW, flow_rate_cap
from repro.network.routing import RoutingTable
from repro.network.topology import Topology
from repro.observability.metrics import METRICS
from repro.observability.tracer import TRACER

#: Recognised control-loop stepping policies (see module docstring).
STEPPING_MODES = ("fixed", "event")

#: Environment variable naming the default stepping policy for campaign
#: configurations built by :func:`repro.tomography.pipeline
#: .default_swarm_config` — this is how ``benchmarks/run_benchmarks.py
#: --stepping fixed`` flips the whole suite without touching each benchmark.
STEPPING_ENV = "REPRO_STEPPING"


def default_stepping() -> str:
    """Stepping policy selected by the environment (``"event"`` if unset)."""
    value = os.environ.get(STEPPING_ENV, "").strip().lower()
    if not value:
        return "event"
    if value not in STEPPING_MODES:
        raise ValueError(
            f"{STEPPING_ENV} must be one of {STEPPING_MODES}, got {value!r}"
        )
    return value


#: Below this ``hosts² × fragments`` product the interest matrix is simply
#: recomputed every control step with one BLAS matmul; above it (paper scale)
#: it is maintained incrementally per receipt batch.  Both paths produce
#: identical integer counts — this is purely a performance crossover.
MATMUL_INTEREST_LIMIT = 4_000_000


@dataclass(frozen=True)
class SwarmConfig:
    """Tunable parameters of a broadcast simulation.

    The defaults mirror the reference client (4 upload slots, 35-peer sets,
    16 KiB fragments); ``control_dt`` and ``rechoke_interval`` are simulation
    knobs whose paper counterparts are continuous TCP dynamics and the 10 s
    rechoke timer respectively.
    """

    torrent: TorrentMeta
    upload_slots: int = DEFAULT_UPLOAD_SLOTS
    max_peers: int = DEFAULT_MAX_PEERS
    rechoke_interval: float = 5.0
    optimistic_every: int = 3
    control_dt: float = 0.1
    tcp_window: Optional[float] = DEFAULT_TCP_WINDOW
    random_first_threshold: int = 4
    max_sim_time: float = 3600.0
    #: Control-loop stepping policy: ``"event"`` jumps between state-changing
    #: control points on the event queue, ``"fixed"`` visits every grid point
    #: (the oracle).  Both produce identical results; see docs/simulation.md.
    stepping: str = "event"

    def __post_init__(self) -> None:
        if self.control_dt <= 0:
            raise ValueError("control_dt must be positive")
        if self.rechoke_interval < self.control_dt:
            raise ValueError("rechoke_interval must be at least control_dt")
        if self.max_sim_time <= 0:
            raise ValueError("max_sim_time must be positive")
        if self.stepping not in STEPPING_MODES:
            raise ValueError(
                f"stepping must be one of {STEPPING_MODES}, got {self.stepping!r}"
            )


@dataclass
class BroadcastResult:
    """Outcome of one synchronized broadcast.

    Attributes
    ----------
    fragments:
        Directed fragment counts (the measurement of this iteration).
    root:
        The seeding host.
    duration:
        Maximum download completion time over all clients (seconds).
    completion_times:
        Per-host download completion time.
    distinct_edges:
        Number of unordered host pairs that exchanged at least one fragment.
    control_steps:
        Number of control points the loop actually executed (the event mode's
        figure of merit: fixed stepping executes every grid point).
    stepping:
        Stepping policy that produced this result (``"fixed"``/``"event"``).
    """

    fragments: FragmentMatrix
    root: str
    duration: float
    completion_times: Dict[str, float]
    distinct_edges: int
    control_steps: int = 0
    stepping: str = "event"

    @property
    def hosts(self) -> List[str]:
        return list(self.fragments.labels)


class BroadcastSession:
    """One externally-clockable broadcast run.

    The broadcast loop lives in :meth:`BitTorrentBroadcast._drive`, a
    generator that *requests* clock movement instead of owning it.  A driver
    fulfils each request and resumes the generator:

    * ``("advance", step, time)`` — the loop committed to its next control
      point; the driver must bring the shared fluid network to absolute
      ``time`` (processing in-flight completions) and resume with ``None``.
    * ``("sleep", from_step, target_step, time)`` — the event-stepped loop
      proved the grid points up to ``target_step`` inert *under the current
      rates* and wants to jump.  The driver resumes with the granted step:
      ``target_step`` when nothing intervened, or any earlier grid step when
      the environment changed (cross traffic, churn, capacity drift) —
      landing early is always exact, since the fixed-dt oracle visits every
      grid point.

    :meth:`run_to_completion` is the degenerate driver: one session, a fresh
    private fluid network, start time zero — byte-identical to the classic
    ``BitTorrentBroadcast.run`` loop, which is now implemented on top of it.
    The multi-tenant driver is :class:`repro.workloads.WorkloadEngine`,
    which multiplexes many sessions (and generative traffic actors) over one
    simulator agenda and one shared fluid network.

    Churn (peer leave/rejoin mid-broadcast) is queued through
    :meth:`request_leave`/:meth:`request_rejoin` and applied by the loop at
    its next visited control point, identically in both stepping modes.
    """

    def __init__(
        self,
        broadcast: "BitTorrentBroadcast",
        root: Optional[str] = None,
        rng: Optional[np.random.Generator] = None,
        trace: Optional[List[Tuple[float, str, str, int]]] = None,
        fluid: Optional[FluidNetwork] = None,
        start_time: float = 0.0,
    ) -> None:
        self.broadcast = broadcast
        self.fluid = (
            fluid
            if fluid is not None
            else FluidNetwork(broadcast.topology, broadcast.routing)
        )
        self.start_time = float(start_time)
        #: Resolved seeding host; published by the loop at setup.
        self.root: Optional[str] = root
        #: Peers currently churned out of the swarm (shared with the loop).
        self.departed: Set[str] = set()
        self.churn_events = 0
        #: Applied (not merely requested) churn operations, by kind — a
        #: queued request can still no-op at apply time (duplicate victim,
        #: broadcast already finished), so injectors report these counts.
        self.churn_applied = {"leave": 0, "rejoin": 0}
        self.result: Optional[BroadcastResult] = None
        self.finished = False
        self._request: Optional[Tuple] = None
        self._pipe_completed = False
        self._pending_churn: List[Tuple[str, str, Optional[np.random.Generator]]] = []
        self._started = False
        self._gen = broadcast._drive(self, root, rng, trace)

    # ------------------------------------------------------------------ #
    # churn hooks (called by workload churn actors between resumes)
    # ------------------------------------------------------------------ #
    def request_leave(self, name: str) -> None:
        """Queue a peer departure; applied at the next visited control point."""
        self._pending_churn.append(("leave", name, None))

    def request_rejoin(self, name: str, rng: np.random.Generator) -> None:
        """Queue a peer rejoin; ``rng`` drives its fresh tracker announce."""
        self._pending_churn.append(("rejoin", name, rng))

    def _drain_churn(self) -> List[Tuple[str, str, Optional[np.random.Generator]]]:
        ops, self._pending_churn = self._pending_churn, []
        return ops

    def _on_pipe_complete(self, transfer: FluidTransfer) -> None:
        # A pipe ran its whole byte budget during a fluid advance: the loop
        # must rebuild its slot-aligned vectors before the next read.
        self._pipe_completed = True

    # ------------------------------------------------------------------ #
    # driving
    # ------------------------------------------------------------------ #
    @property
    def request(self) -> Optional[Tuple]:
        """The pending clock request, or ``None`` before start / after finish."""
        return self._request

    def start(self) -> Optional[Tuple]:
        """Prime the loop (runs the first control phase) and return its request.

        Must be called with the shared clock at :attr:`start_time`: the
        first control phase opens pipes anchored at that instant.
        """
        if self._started:
            raise RuntimeError("broadcast session already started")
        self._started = True
        return self._resume(None)

    def resume(self, value=None) -> Optional[Tuple]:
        """Fulfil the pending request and run the loop to its next one.

        ``value`` is the granted step for ``"sleep"`` requests and ``None``
        for ``"advance"``.
        """
        return self._resume(value)

    def _resume(self, value) -> Optional[Tuple]:
        try:
            self._request = self._gen.send(value)
        except StopIteration as stop:
            self._request = None
            self.result = stop.value
            self.finished = True
        return self._request

    def run_to_completion(self) -> BroadcastResult:
        """Standalone driver: fulfil every request against the own fluid clock."""
        request = self.start() if not self._started else self._request
        while not self.finished:
            if request[0] == "advance":
                self.fluid.advance_to(request[2])
                request = self.resume(None)
            else:  # "sleep": nothing can intervene, grant the full jump
                request = self.resume(request[2])
        return self.result


class BitTorrentBroadcast:
    """Runs synchronized instrumented broadcasts on a topology.

    Parameters
    ----------
    topology:
        The network substrate.
    hosts:
        Hosts participating in the swarm; defaults to every host in the
        topology.
    config:
        Swarm parameters; ``SwarmConfig(torrent=...)`` at minimum.
    routing:
        Optional pre-built routing table (shared across iterations for speed).
    """

    def __init__(
        self,
        topology: Topology,
        config: SwarmConfig,
        hosts: Optional[Sequence[str]] = None,
        routing: Optional[RoutingTable] = None,
    ) -> None:
        self.topology = topology
        self.config = config
        self.routing = routing or RoutingTable(topology)
        if hosts is None:
            hosts = topology.host_names
        hosts = list(hosts)
        if len(hosts) < 2:
            raise ValueError("a broadcast needs at least two hosts")
        unknown = [h for h in hosts if not topology.is_host(h)]
        if unknown:
            raise ValueError(f"unknown hosts: {unknown}")
        if len(set(hosts)) != len(hosts):
            raise ValueError("duplicate hosts in swarm")
        self.hosts = hosts
        self.tracker = Tracker(max_peers=config.max_peers)
        self.choking = ChokingPolicy(
            upload_slots=config.upload_slots, optimistic_every=config.optimistic_every
        )
        # Per-pair TCP rate caps are pure topology functions: cache them.
        self._rate_cap_cache: Dict[Tuple[str, str], Optional[float]] = {}

    # ------------------------------------------------------------------ #
    def _rate_cap(self, src: str, dst: str) -> Optional[float]:
        if self.config.tcp_window is None:
            return None
        key = (src, dst)
        if key not in self._rate_cap_cache:
            cap = flow_rate_cap(self.routing, src, dst, self.config.tcp_window)
            self._rate_cap_cache[key] = cap if np.isfinite(cap) else None
        return self._rate_cap_cache[key]

    # ------------------------------------------------------------------ #
    def run(
        self,
        root: Optional[str] = None,
        rng: Optional[np.random.Generator] = None,
        trace: Optional[List[Tuple[float, str, str, int]]] = None,
    ) -> BroadcastResult:
        """Simulate one synchronized broadcast and return its measurement.

        Parameters
        ----------
        root:
            Seeding host; defaults to the first host in the swarm.
        rng:
            Random generator driving peer selection, choking and piece
            selection for this iteration.
        trace:
            Optional list collecting every fragment receipt as
            ``(time, downloader, uploader, fragment)`` in completion order —
            the sequence the stepping-equivalence tests compare across modes.
        """
        return BroadcastSession(
            self, root=root, rng=rng, trace=trace
        ).run_to_completion()

    def _drive(
        self,
        session: BroadcastSession,
        root: Optional[str],
        rng: Optional[np.random.Generator],
        trace: Optional[List[Tuple[float, str, str, int]]],
    ):
        """The broadcast loop as a generator of clock requests.

        See :class:`BroadcastSession` for the request protocol.  All times
        are absolute: the loop's control grid starts at the session's
        ``start_time`` (zero in the standalone path, so every expression
        reduces bit-for-bit to the classic single-broadcast arithmetic).
        """
        if rng is None:
            rng = np.random.default_rng()
        if root is None:
            root = self.hosts[0]
        if root not in self.hosts:
            raise ValueError(f"root {root!r} is not part of the swarm")
        session.root = root
        start = session.start_time
        departed = session.departed

        cfg = self.config
        num_fragments = cfg.torrent.num_fragments
        fragment_size = cfg.torrent.fragment_size
        n = len(self.hosts)
        index: Dict[str, int] = {name: i for i, name in enumerate(self.hosts)}
        root_index = index[root]
        # Host indices in lexicographic name order: candidate lists must come
        # out sorted by name (exactly as the scalar implementation's
        # ``sorted()`` produced them) for bit-for-bit seed replay.
        lex_order = np.array(sorted(range(n), key=self.hosts.__getitem__))

        # Shared bitfield matrix: row i is peer i's ``have`` array, so peer
        # mutations and the vectorized interest state see the same memory.
        have = np.zeros((n, num_fragments), dtype=bool)
        peers: Dict[str, PeerState] = {
            name: PeerState(
                name=name, index=i, num_fragments=num_fragments, have=have[i]
            )
            for i, name in enumerate(self.hosts)
        }
        peers[root].make_seed()
        peers[root].completion_time = start

        selector = PieceSelector(
            num_fragments, random_first_threshold=cfg.random_first_threshold
        )
        for peer in peers.values():
            selector.register_bitfield(peer.have)

        connections = self.tracker.build_connections(self.hosts, rng)
        neighbor_mask = np.zeros((n, n), dtype=bool)
        for name, neighbor_set in connections.items():
            peers[name].neighbors = set(neighbor_set)
            i = index[name]
            for other in neighbor_set:
                neighbor_mask[i, index[other]] = True

        # lack = ~have, maintained incrementally; wanted[u, d] counts the
        # fragments u holds that d lacks, so "d is interested in u" is the
        # O(1) test wanted[u, d] > 0 (equivalent to the wire-protocol rule:
        # seeds want nothing, empty peers offer nothing, and a seeding
        # uploader always has something an incomplete downloader needs).
        #
        # Two equivalent maintenance strategies (both produce exact integer
        # counts, so behaviour is identical): small swarms recompute the
        # matrix each control step with one BLAS matmul; large ones (paper
        # scale: 128 hosts x 15k fragments) update it incrementally per
        # receipt batch, which is O(hosts) per received fragment.
        lack = ~have
        interest_by_matmul = n * n * num_fragments <= MATMUL_INTEREST_LIMIT
        wanted = np.zeros((n, n), dtype=np.int64)
        wanted[root_index, :] = num_fragments
        wanted[root_index, root_index] = 0

        def recompute_wanted() -> np.ndarray:
            # counts[u] - |u ∩ d| via one float32 matmul; exact because the
            # counts are far below 2**24.
            have_f = have.astype(np.float32)
            common = have_f @ have_f.T
            return common.diagonal()[:, None] - common

        fluid = session.fluid
        fragments = FragmentMatrix(self.hosts)
        availability = selector.availability
        random_first_threshold = selector.random_first_threshold
        wanted_buf = np.empty(num_fragments, dtype=bool)
        alive_buf = np.empty(num_fragments, dtype=bool)

        # Active fluid pipes keyed by (uploader, downloader); ``pipe_order``
        # mirrors the keys in sorted order (maintained by bisect on
        # open/close) so the per-step scans never re-sort.  Aligned with
        # ``pipe_order`` are contiguous per-pipe vectors (fluid slot, host
        # indices, consumed-byte base, tit-for-tat credit base, fragment
        # progress base) rebuilt lazily after membership changes.  The bases
        # are *anchored*: ``pipe_consumed``/``pipe_progress`` are only
        # written at a pipe's conversion events (and ``pipe_credit_base`` at
        # credit flushes), so the byte state observed at any control point is
        # an analytic function of the last event — identical whether or not
        # the inert points in between were visited.  That anchoring is what
        # makes the event-stepped mode replay the fixed loop bit for bit.
        pipes: Dict[Tuple[str, str], FluidTransfer] = {}
        pipe_order: List[Tuple[str, str]] = []
        pipe_pos: Dict[Tuple[str, str], int] = {}
        pipe_slots = np.empty(0, dtype=np.int64)
        pipe_up = np.empty(0, dtype=np.int64)
        pipe_down = np.empty(0, dtype=np.int64)
        pipe_consumed = np.empty(0, dtype=np.float64)
        pipe_credit_base = np.empty(0, dtype=np.float64)
        pipe_progress = np.empty(0, dtype=np.float64)
        # A pipe whose fluid transfer ran its whole byte budget is detached
        # from the FlowSet (its slot is recycled) but, exactly as in the
        # scalar implementation, stays open and simply starves: its frozen
        # transferred value is patched over the slot read each step.
        pipe_dead_positions = np.empty(0, dtype=np.int64)
        pipe_dead_values = np.empty(0, dtype=np.float64)
        pipes_dirty = False
        # Fragment progress of currently-closed pipes (progress survives a
        # close/reopen cycle, as in the scalar implementation).
        progress_carry: Dict[Tuple[str, str], float] = {}
        # Sorted view of every peer's unchoke set, same replay rationale.
        unchoked_order: Dict[str, List[str]] = {name: [] for name in self.hosts}

        incomplete: Set[str] = {name for name in self.hosts if name != root}
        incomplete_mask = np.ones(n, dtype=bool)
        incomplete_mask[root_index] = False
        time = start
        round_index = 0
        next_rechoke = start

        def interested_in(uploader_index: int) -> List[str]:
            """Neighbours of the uploader that want something it has, by name."""
            mask = neighbor_mask[uploader_index] & incomplete_mask
            mask &= wanted[uploader_index] > 0
            if not mask.any():
                return []
            hosts = self.hosts
            return [hosts[i] for i in lex_order[mask[lex_order]]]

        def open_pipe(uploader: str, downloader: str) -> None:
            nonlocal pipes_dirty
            key = (uploader, downloader)
            if key in pipes:
                return
            transfer = fluid.start_transfer(
                uploader,
                downloader,
                size=float(cfg.torrent.size) * 4.0 + 1.0,
                rate_cap=self._rate_cap(uploader, downloader),
                on_complete=session._on_pipe_complete,
            )
            pipes[key] = transfer
            bisect.insort(pipe_order, key)
            pipes_dirty = True

        def close_pipe(uploader: str, downloader: str, keep_progress: bool = True) -> None:
            nonlocal pipes_dirty
            key = (uploader, downloader)
            transfer = pipes.pop(key, None)
            if transfer is None:
                if not keep_progress:
                    progress_carry.pop(key, None)
                return
            fluid.cancel_transfer(transfer)
            del pipe_order[bisect.bisect_left(pipe_order, key)]
            pipes_dirty = True
            position = pipe_pos.pop(key, None)
            if position is None:
                # Opened and closed before the vectors were ever rebuilt: no
                # bytes moved, nothing to flush.
                if not keep_progress:
                    progress_carry.pop(key, None)
                return
            # Settle the anchored bases at the close time: the cancelled
            # transfer's frozen byte count is exact as of the current clock.
            moved = transfer.transferred
            # Flush the round's tit-for-tat credit before the pipe vanishes.
            delta = moved - pipe_credit_base[position]
            if delta > 0:
                peers[downloader].credit_download(uploader, float(delta))
            if keep_progress:
                progress_carry[key] = float(
                    pipe_progress[position] + (moved - pipe_consumed[position])
                )
            else:
                progress_carry.pop(key, None)

        def rebuild_pipe_vectors() -> None:
            nonlocal pipes_dirty, pipe_pos, pipe_slots, pipe_up, pipe_down
            nonlocal pipe_consumed, pipe_credit_base, pipe_progress
            nonlocal pipe_dead_positions, pipe_dead_values
            count = len(pipe_order)
            new_pos: Dict[Tuple[str, str], int] = {}
            slots = np.empty(count, dtype=np.int64)
            up_idx = np.empty(count, dtype=np.int64)
            down_idx = np.empty(count, dtype=np.int64)
            new_consumed = np.zeros(count, dtype=np.float64)
            new_base = np.zeros(count, dtype=np.float64)
            new_progress = np.zeros(count, dtype=np.float64)
            dead_positions: List[int] = []
            dead_values: List[float] = []
            old_pos = pipe_pos
            for position, key in enumerate(pipe_order):
                new_pos[key] = position
                transfer = pipes[key]
                slot = transfer._slot
                if slot < 0:
                    # Completed transfer: park the position on slot 0 and
                    # patch its frozen byte count over the vector read.
                    slot = 0
                    dead_positions.append(position)
                    dead_values.append(transfer.transferred)
                slots[position] = slot
                uploader, downloader = key
                up_idx[position] = index[uploader]
                down_idx[position] = index[downloader]
                previous = old_pos.get(key)
                if previous is None:
                    new_progress[position] = progress_carry.pop(key, 0.0)
                else:
                    new_consumed[position] = pipe_consumed[previous]
                    new_base[position] = pipe_credit_base[previous]
                    new_progress[position] = pipe_progress[previous]
            pipe_pos = new_pos
            pipe_slots = slots
            pipe_up = up_idx
            pipe_down = down_idx
            pipe_consumed = new_consumed
            pipe_credit_base = new_base
            pipe_progress = new_progress
            pipe_dead_positions = np.array(dead_positions, dtype=np.int64)
            pipe_dead_values = np.array(dead_values, dtype=np.float64)
            pipes_dirty = False

        def moved_at(t: float) -> np.ndarray:
            """Exact per-pipe transferred bytes at absolute time ``t``.

            Detached (budget-exhausted) pipes read their frozen totals; live
            pipes read the fluid network's anchored-analytic state.  Pure —
            valid at any time up to the next fluid transition, which is what
            the event mode's jump predicates extrapolate with.
            """
            moved = fluid.transferred_at(pipe_slots, t)
            if pipe_dead_positions.size:
                moved[pipe_dead_positions] = pipe_dead_values
            return moved

        def flush_credits() -> None:
            """Credit each open pipe's bytes since the last rechoke.

            The scalar implementation credited every step; the totals per
            choking round are identical, so crediting lazily (at rechoke and
            on pipe close) preserves the reciprocation ranking.
            """
            moved = moved_at(time)
            owed = moved - pipe_credit_base
            for position in np.flatnonzero(owed > 0):
                uploader, downloader = pipe_order[position]
                peers[downloader].credit_download(
                    uploader, float(owed[position])
                )
            np.copyto(pipe_credit_base, moved)

        def sync_pipes() -> None:
            """Make the fluid flow set match the current unchoke/interest state.

            Iteration follows the maintained sorted unchoke/pipe orders so
            that the order in which pipes are opened — and therefore the
            consumption of the random stream — is identical across processes
            regardless of string-hash randomisation; campaigns replay
            bit-for-bit from their seed.
            """
            for uploader_index, uploader in enumerate(self.hosts):
                up = peers[uploader]
                if up.fragment_count == 0:
                    continue
                order = unchoked_order[uploader]
                for downloader in list(order):
                    if downloader not in up.neighbors:
                        up.unchoked.discard(downloader)
                        order.remove(downloader)
                        close_pipe(uploader, downloader)
                        continue
                    if (
                        downloader not in incomplete
                        or wanted[uploader_index, index[downloader]] <= 0
                    ):
                        close_pipe(uploader, downloader)
                    else:
                        open_pipe(uploader, downloader)
            # Drop pipes whose uploader revoked the unchoke.
            for uploader, downloader in list(pipe_order):
                if downloader not in peers[uploader].unchoked:
                    close_pipe(uploader, downloader)

        # ---- churn (peer leave/rejoin mid-broadcast) --------------------- #
        # Applied at visited control points only, so both stepping modes see
        # a churn event at the same grid point (the workload engine wakes a
        # jumped-ahead session at the first grid point after the event).
        def apply_leave(name: str) -> bool:
            """Tear a peer out of the swarm; in-flight pipe progress is lost,
            its fragment bitfield is kept (BitTorrent resume semantics)."""
            if name == root or name in departed or name not in index:
                return False
            departed.add(name)
            i = index[name]
            for key in [k for k in pipe_order if name in k]:
                close_pipe(key[0], key[1], keep_progress=False)
            for key in [k for k in progress_carry if name in k]:
                progress_carry.pop(key)
            peer = peers[name]
            for other in list(peer.neighbors):
                other_peer = peers[other]
                other_peer.neighbors.discard(name)
                if name in other_peer.unchoked:
                    other_peer.unchoked.discard(name)
                    order = unchoked_order[other]
                    pos = bisect.bisect_left(order, name)
                    if pos < len(order) and order[pos] == name:
                        del order[pos]
                if other_peer.optimistic == name:
                    other_peer.optimistic = None
            neighbor_mask[i, :] = False
            neighbor_mask[:, i] = False
            peer.neighbors = set()
            peer.unchoked = set()
            peer.optimistic = None
            peer.downloaded_this_round.clear()
            unchoked_order[name] = []
            # A departed peer must not gate broadcast completion while away.
            incomplete.discard(name)
            incomplete_mask[i] = False
            return True

        def apply_rejoin(name: str, churn_rng: np.random.Generator) -> bool:
            """Re-admit a departed peer with a fresh tracker announce."""
            if name not in departed:
                return False
            departed.discard(name)
            i = index[name]
            peer = peers[name]
            present = [h for h in self.hosts if h != name and h not in departed]
            picks = self.tracker.announce(name, present, churn_rng) if present else set()
            peer.neighbors = set(picks)
            for other in picks:
                peers[other].neighbors.add(name)
                j = index[other]
                neighbor_mask[i, j] = True
                neighbor_mask[j, i] = True
            if peer._fragment_count < num_fragments:
                incomplete.add(name)
                incomplete_mask[i] = True
            return True

        dt = cfg.control_dt
        max_steps = int(np.ceil(cfg.max_sim_time / dt)) + 1
        upload_slots = self.choking.upload_slots
        event_mode = cfg.stepping == "event"
        step = 0
        control_steps = 0
        # Telemetry flags are hoisted once per broadcast: with tracing off the
        # whole loop pays two local-bool reads, nothing else.  Records only
        # *read* state — no random draws, no clock movement — so seed goldens
        # replay bit-for-bit with tracing on (tests/test_seed_replay.py).
        trace_full = TRACER.full
        broadcast_started = TRACER.now() if TRACER.enabled else 0.0

        # ---- event-mode jump predicates (exact, grid-aligned) ------------ #
        # The predicates below answer "at which future control step does the
        # loop body first do something?" with the *same float expressions*
        # the body itself evaluates, so a jump lands exactly on the step the
        # fixed loop would have acted at.  Analytic estimates seed the search
        # and a short walk settles ulp-level rounding.
        def conversion_due(t: float) -> bool:
            """Would the conversion check fire if evaluated at time ``t``?"""
            moved = moved_at(t)
            deltas = moved - pipe_consumed
            progress = pipe_progress + deltas
            return bool(((deltas > 0) & (progress >= fragment_size)).any())

        def next_rechoke_step(current: int) -> int:
            """First step at or after ``current + 1`` whose clock hits the timer."""
            target = next_rechoke - 1e-12
            candidate = max(current + 1, int(np.ceil((target - start) / dt)))
            while start + candidate * dt < target:
                candidate += 1
            while candidate - 1 > current and start + (candidate - 1) * dt >= target:
                candidate -= 1
            return candidate

        def next_fluid_step(current: int) -> int:
            """First step whose advance covers the next fluid-flow transition."""
            transition = fluid.next_transition()
            if transition is None:
                return max_steps
            candidate = max(current + 1, int(np.ceil((transition - start) / dt)) - 1)
            while start + (candidate + 1) * dt < transition:
                candidate += 1
            while candidate - 1 > current and start + candidate * dt >= transition:
                candidate -= 1
            return candidate

        def next_conversion_step(current: int, cap: int) -> int:
            """First step in ``(current, cap]`` whose conversion check fires.

            Rates are constant up to ``cap`` (which the caller bounds by the
            next fluid transition), so per-pipe fragment boundaries are the
            analytic ``need / (rate · dt)``; the walk pins the estimate to
            the exact grid comparison the step body performs.
            """
            if not pipe_order or current + 1 >= cap:
                return cap
            rates = fluid._rate[pipe_slots].copy()
            if pipe_dead_positions.size:
                rates[pipe_dead_positions] = 0.0
            moving = rates > 1e-12
            if not moving.any():
                return cap
            progress = pipe_progress + (moved_at(time) - pipe_consumed)
            need = fragment_size - progress[moving]
            steps_needed = np.ceil(need / (rates[moving] * dt))
            # The estimate can be off by a grid step when a boundary lands
            # within float noise of a control point; the walk below settles
            # it against the exact step-body predicate (monotone in time),
            # so the jump lands on precisely the step the fixed loop acts at.
            candidate = min(current + max(int(steps_needed.min()), 1), cap)
            while candidate - 1 > current and conversion_due(start + candidate * dt):
                candidate -= 1
            while candidate < cap and not conversion_due(start + (candidate + 1) * dt):
                candidate += 1
            return candidate

        while incomplete:
            if step >= max_steps:
                raise RuntimeError(
                    f"broadcast did not complete within max_sim_time="
                    f"{cfg.max_sim_time}s ({len(incomplete)} hosts incomplete)"
                )
            time = start + step * dt
            control_steps += 1
            step_active = False
            if session._pending_churn:
                for op, name, churn_rng in session._drain_churn():
                    changed = (
                        apply_leave(name) if op == "leave"
                        else apply_rejoin(name, churn_rng)
                    )
                    if changed:
                        step_active = True
                        session.churn_events += 1
                        session.churn_applied[op] += 1
                if not incomplete:
                    break
                if pipes_dirty:
                    # Departures closed pipes: realign the slot vectors now,
                    # before flush_credits/moved_at read the old layout.
                    rebuild_pipe_vectors()
            if session._pipe_completed:
                # A pipe budget completed outside this loop's own advance
                # (during a jump landing, or while another tenant held the
                # clock): treat it exactly like an advance-time completion.
                session._pipe_completed = False
                pipes_dirty = True
                step_active = True
            if interest_by_matmul:
                wanted = recompute_wanted()

            # --- choking -------------------------------------------------- #
            if time >= next_rechoke - 1e-12:
                step_active = True
                if pipe_order:
                    flush_credits()
                for name in rng.permutation(self.hosts):
                    peer = peers[name]
                    candidates = interested_in(index[name])
                    peer.unchoked = self.choking.rechoke(
                        peer, candidates, round_index, rng
                    )
                    unchoked_order[name] = sorted(peer.unchoked)
                    peer.reset_round()
                round_index += 1
                next_rechoke += cfg.rechoke_interval
            else:
                # Fill idle upload slots as soon as someone becomes interested.
                # One matrix pass replaces the per-host interest masks.
                fillable = neighbor_mask & incomplete_mask[None, :]
                np.logical_and(fillable, wanted > 0, out=fillable)
                host_has_candidates = fillable.any(axis=1).tolist()
                hosts = self.hosts
                for uploader_index, name in enumerate(hosts):
                    peer = peers[name]
                    if peer.fragment_count == 0:
                        continue
                    unchoked = peer.unchoked
                    if unchoked:
                        stale = [
                            d for d in unchoked
                            if d not in incomplete and d != root
                        ]
                        if stale:
                            step_active = True
                            order = unchoked_order[name]
                            for d in stale:
                                unchoked.discard(d)
                                order.remove(d)
                    free = upload_slots - len(unchoked)
                    if free <= 0 or not host_has_candidates[uploader_index]:
                        continue
                    row = fillable[uploader_index]
                    waiting = [
                        hosts[i] for i in lex_order[row[lex_order]]
                        if hosts[i] not in unchoked
                    ]
                    if not waiting:
                        continue
                    step_active = True
                    picks = rng.choice(len(waiting), size=min(free, len(waiting)),
                                       replace=False)
                    order = unchoked_order[name]
                    for i in picks:
                        pick = waiting[i]
                        if pick not in unchoked:
                            unchoked.add(pick)
                            bisect.insort(order, pick)

            if pipes_dirty:
                # Carried over from a fluid-flow transition during the last
                # advance: the allocation changed, so this point is a state
                # change even if the choker left everything in place.
                step_active = True
            sync_pipes()
            if pipes_dirty:
                step_active = True
                rebuild_pipe_vectors()

            # --- data movement -------------------------------------------- #
            time = start + (step + 1) * dt
            yield ("advance", step + 1, time)
            if session._pipe_completed:
                # A pipe transfer exhausted its byte budget and was detached;
                # its recycled slot must not be read after the next rebuild.
                session._pipe_completed = False
                pipes_dirty = True
                step_active = True

            ready_list: List[int] = []
            if pipe_order:
                moved = moved_at(time)
                deltas = moved - pipe_consumed
                progress_now = pipe_progress + deltas
                # Only pipes that accumulated a whole fragment need Python
                # work; their anchored bases are settled below, everything
                # else stays a pure function of its last conversion event.
                ready = np.flatnonzero(
                    (deltas > 0) & (progress_now >= fragment_size)
                )
                if ready.size:
                    step_active = True
                    # Unbox the per-event scalars in bulk; the loop below then
                    # runs on plain Python ints/floats.
                    ready_list = ready.tolist()
                    ready_up = pipe_up[ready].tolist()
                    ready_down = pipe_down[ready].tolist()
                    ready_progress = progress_now[ready].tolist()
                    ready_moved = moved[ready].tolist()

            if trace_full and ready_list:
                conversion_started = TRACER.now()
                pass_receipts = 0
            for event, position in enumerate(ready_list):
                uploader, downloader = pipe_order[position]
                uploader_index = ready_up[event]
                downloader_index = ready_down[event]
                down = peers[downloader]
                surplus = ready_progress[event]
                downloader_have = have[downloader_index]
                downloader_lack = lack[downloader_index]
                held = down._fragment_count
                received: List[int] = []
                # Inlined rarest-first selection (PieceSelector.select_from
                # semantics, identical random-stream consumption).  Within one
                # pipe's conversion loop only the downloader's bitfield
                # changes, and only at just-received fragments — so the
                # candidate set is computed once, consumed via an alive mask,
                # and the rarest tie group drains through cheap list pops; the
                # next tier is recomputed exactly when the scalar code's min
                # would move on.
                np.logical_and(have[uploader_index], downloader_lack, out=wanted_buf)
                candidates = wanted_buf.nonzero()[0]
                if candidates.size == 0:
                    # Nothing useful left on this pipe; drop the surplus.
                    pipe_consumed[position] = ready_moved[event]
                    pipe_progress[position] = 0.0
                    continue
                alive = alive_buf[: candidates.size]
                alive.fill(True)
                counts_vals: Optional[np.ndarray] = None
                tie_positions: Optional[List[int]] = None
                while surplus >= fragment_size:
                    if held < random_first_threshold:
                        live = candidates[alive]
                        if live.size == 0:
                            surplus = 0.0
                            break
                        fragment = int(live[int(rng.integers(0, live.size))])
                        alive[int(np.searchsorted(candidates, fragment))] = False
                        tie_positions = None
                    else:
                        if not tie_positions:
                            if counts_vals is None:
                                counts_vals = availability[candidates]
                            live_counts = counts_vals[alive]
                            if live_counts.size == 0:
                                surplus = 0.0
                                break
                            rarest = live_counts.min()
                            tie_positions = (
                                ((counts_vals == rarest) & alive).nonzero()[0].tolist()
                            )
                        r = int(rng.integers(0, len(tie_positions)))
                        pos = tie_positions.pop(r)
                        fragment = int(candidates[pos])
                        alive[pos] = False
                    surplus -= fragment_size
                    received.append(fragment)
                    downloader_lack[fragment] = False
                    downloader_have[fragment] = True
                    availability[fragment] += 1
                    held += 1
                    if held == num_fragments:
                        down._fragment_count = held
                        down.completion_time = time
                        incomplete.discard(downloader)
                        incomplete_mask[downloader_index] = False
                        break
                down._fragment_count = held
                pipe_consumed[position] = ready_moved[event]
                pipe_progress[position] = surplus
                if received:
                    if trace_full:
                        pass_receipts += len(received)
                    if trace is not None:
                        for fragment in received:
                            trace.append((time, downloader, uploader, fragment))
                    fragments.counts[downloader_index, uploader_index] += len(received)
                    if not interest_by_matmul:
                        # Batched interest update: within this loop only the
                        # downloader's row/column changed, so the per-receipt
                        # column sums collapse into one fancy-indexed sum (the
                        # diagonal is forced back to zero afterwards; the row
                        # update uses lack = ~have elementwise).
                        shared = have[:, received].sum(axis=1)
                        wanted[:, downloader_index] -= shared
                        wanted[downloader_index, :] += len(received) - shared
                        wanted[downloader_index, downloader_index] = 0

            if trace_full and ready_list:
                # Per-receipt conversion cost: wall seconds of the pass over
                # the number of fragments it converted (sim-time stamped).
                TRACER.event(
                    "swarm.conversion",
                    sim_time=time,
                    pipes=len(ready_list),
                    receipts=pass_receipts,
                    wall_s=TRACER.now() - conversion_started,
                )

            # --- next control point ---------------------------------------- #
            if not event_mode or step_active:
                # Fixed stepping visits every grid point; after a state
                # change the event mode must look at the very next point too
                # (new interest can fill idle slots or reopen pipes there).
                step += 1
                continue
            # Quiescent point: nothing changed, so no random draws or pipe
            # transitions can occur before the next predicted control event.
            # Fast path: if the very next point converts anyway (the common
            # case in conversion-dense configs), one predicate evaluation
            # replaces the whole jump prediction.  A conservative answer only
            # ever visits a point the fixed loop visits too.
            if pipe_order and conversion_due(start + (step + 2) * dt):
                step += 1
                continue
            # Jump straight to the earliest of the three event sources — the
            # grid points in between are provably inert under the current
            # rates.  The conversion search is capped by the other two, so
            # its answer is that minimum.  The driver may grant an earlier
            # landing (another tenant changed the rates, or churn arrived);
            # extra visits are exact, since the fixed loop visits them all.
            target = next_conversion_step(
                step,
                min(next_rechoke_step(step), next_fluid_step(step), max_steps),
            )
            granted = yield ("sleep", step, target, start + target * dt)
            if granted is not None:
                target = max(min(granted, target), step + 1)
            if trace_full and target > step + 1:
                # Control steps jumped rather than visited: the span
                # (step, target) is provably inert under the current rates.
                TRACER.event(
                    "swarm.jump",
                    sim_time=start + target * dt,
                    from_step=step,
                    to_step=target,
                )
            step = target
            # Bring the fluid clock to the landing point before its control
            # logic runs: the skipped span is transition-free (the jump is
            # capped by the next fluid transition), so this only moves the
            # clock — but pipe opens/closes at the landing step must anchor
            # their rate change at the landing time, exactly as the fixed
            # loop (whose clock always sits at the current grid point) does.
            fluid.advance_to(start + step * dt)

        receipts = int(fragments.counts.sum())
        METRICS.count("swarm.broadcasts")
        METRICS.count("swarm.control_steps", control_steps)
        METRICS.count(f"swarm.broadcasts.{cfg.stepping}")
        METRICS.count("swarm.receipts", receipts)
        if TRACER.enabled:
            TRACER.span_record(
                "swarm.broadcast",
                broadcast_started,
                root=root,
                stepping=cfg.stepping,
                control_steps=control_steps,
                steps_jumped=max(0, step - control_steps),
                receipts=receipts,
                sim_start=start,
                sim_end=start + step * dt,
            )
        completion_times = {
            name: (peer.completion_time if peer.completion_time is not None else time)
            for name, peer in peers.items()
        }
        # Peers still churned out at the end never finished downloading; they
        # must not stretch the broadcast duration to the last control point.
        finishers = [
            t for name, t in completion_times.items()
            if name != root and name not in departed
        ]
        # Duration is the broadcast's span on its own clock (absolute end
        # minus start); identical to the absolute end for zero-start runs.
        duration = (max(finishers) if finishers else time) - start
        symmetric = fragments.symmetric_weights()
        distinct_edges = int(np.count_nonzero(np.triu(symmetric, k=1)))
        return BroadcastResult(
            fragments=fragments,
            root=root,
            duration=duration,
            completion_times=completion_times,
            distinct_edges=distinct_edges,
            control_steps=control_steps,
            stepping=cfg.stepping,
        )
