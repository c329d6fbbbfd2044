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
* ``"event"`` — when the next point's control phase cannot act the loop
  predicts the next rechoke, the next fluid-flow transition and the next
  fragment-boundary conversion, and simulated time jumps straight to the
  earliest of the three (the next state-changing control point).  Because all
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

One run is a :class:`BroadcastSession`: it holds the run's state, its
methods are the swarm's layers (conversion, pipe sync, rechoke, slot fill,
churn, jump prediction), and its step loop is a generator of clock
*requests*, so a broadcast can either own its clock
(:meth:`BitTorrentBroadcast.run`, the degenerate driver) or run as one
tenant of a shared multi-tenant simulation (:mod:`repro.workloads`),
contending with rival broadcasts, generative cross traffic, capacity drift
and peer churn on one fluid network — see docs/workloads.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bittorrent.choking import DEFAULT_UPLOAD_SLOTS, ChokingPolicy
from repro.bittorrent.instrumentation import FragmentMatrix
from repro.bittorrent.selection import bitset, convert_pass
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
    control_steps: int
    stepping: str

    @property
    def hosts(self) -> List[str]:
        return list(self.fragments.labels)


class BroadcastSession:
    """One externally-clockable broadcast run: its state and its layers.

    The session owns one broadcast's state between control points, each
    fact once and by host index or host pair (inside a broadcast a peer is
    its host index), and its methods are the swarm's layers
    (:meth:`convert`, :meth:`sync_pipes`, :meth:`rechoke`,
    :meth:`fill_slots`, pipe bookkeeping, churn and the event mode's jump
    predicates).  :meth:`start` sets the run up and runs the first control
    phase; from then on the step loop *requests* clock movement instead of
    owning it.  Each request is ``(from_step, target_step, time)``: after
    the control phase of ``from_step`` the loop wants the clock at
    ``target_step``, whose absolute time is ``time``.  An advance asks for
    ``from_step + 1``; a jump asks for a later step, because the event-
    stepped loop proved the grid points before ``target_step`` inert *under
    the current rates*.  A driver brings the fluid network to the time of
    the step it grants (processing in-flight completions) and resumes with
    that step: ``target_step`` when nothing intervened, or any earlier grid
    step after ``from_step`` when the environment changed (cross traffic,
    churn, capacity drift) — landing early is always exact, since the
    fixed-dt oracle visits every grid point.

    All times are absolute; the control grid starts at ``start_time``.
    :meth:`run_to_completion` is the degenerate driver behind
    :meth:`BitTorrentBroadcast.run` (a private fluid network, start time
    zero); :class:`repro.workloads.WorkloadEngine` multiplexes many sessions
    over one simulator agenda and one shared fluid network.  Churn queued
    through :meth:`request_leave`/:meth:`request_rejoin` is applied at the
    next visited control point, identically in both stepping modes.
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
        self.hosts = broadcast.hosts
        self.fluid = (
            fluid
            if fluid is not None
            else FluidNetwork(broadcast.topology, broadcast.routing)
        )
        self.start_time = float(start_time)
        self.dt = broadcast.config.control_dt
        #: Seeding host (the swarm's first host unless given).
        self.root: str = root if root is not None else broadcast.hosts[0]
        self.rng = rng if rng is not None else np.random.default_rng()
        self.trace = trace
        self.churn_events = 0
        #: Applied (not merely requested) churn operations, by kind — a
        #: queued request can still no-op at apply time (duplicate victim,
        #: broadcast already finished), so injectors report these counts.
        self.churn_applied = {"leave": 0, "rejoin": 0}
        self.result: Optional[BroadcastResult] = None
        self.finished = False
        self._request: Optional[Tuple[int, int, float]] = None
        #: Pipe transfers that ran their whole byte budget during a fluid
        #: advance, appended by the fluid network: the loop parks them before
        #: the next read of a fluid slot.  A list's ``append`` as the
        #: callback keeps the network from referencing the session, so a
        #: finished session is freed as soon as its driver drops it.
        self._completed_pipes: List[FluidTransfer] = []
        self._pending_churn: List[Tuple[str, str, Optional[np.random.Generator]]] = []
        self._started = False

    # ------------------------------------------------------------------ #
    # churn hooks (called by workload churn actors between resumes)
    # ------------------------------------------------------------------ #
    def request_leave(self, name: str) -> None:
        """Queue a peer departure; applied at the next visited control point."""
        self._pending_churn.append(("leave", name, None))

    def request_rejoin(self, name: str, rng: np.random.Generator) -> None:
        """Queue a peer rejoin; ``rng`` drives its fresh tracker announce."""
        self._pending_churn.append(("rejoin", name, rng))

    def leave_candidates(self) -> List[str]:
        """Hosts a departure request would remove, in host order: not the
        root, not departed, and not already queued to leave (a second leave
        would no-op at apply time)."""
        queued = {name for op, name, _ in self._pending_churn if op == "leave"}
        return [
            h for h, away in zip(self.hosts, self.away.tolist())
            if h != self.root and not away and h not in queued
        ]

    # ------------------------------------------------------------------ #
    # driving
    # ------------------------------------------------------------------ #
    def start(self) -> Optional[Tuple[int, int, float]]:
        """Set the run up, run the first control phase and return its request.

        Must be called with the shared clock at :attr:`start_time`: the
        first control phase opens pipes anchored at that instant.
        """
        if self._started:
            raise RuntimeError("broadcast session already started")
        self._started = True
        self._setup()
        self._steps = self._step_loop()
        return self._resume(None)

    def resume(self, step: int) -> Optional[Tuple[int, int, float]]:
        """Fulfil the pending request and run the loop to its next one.

        ``step`` is the granted step: after the request's ``from_step`` and
        at most its ``target_step``.
        """
        return self._resume(step)

    def _resume(self, step: Optional[int]) -> Optional[Tuple[int, int, float]]:
        try:
            self._request = self._steps.send(step)
        except StopIteration as stop:
            self._request = None
            self.result = stop.value
            self.finished = True
        return self._request

    def run_to_completion(self) -> BroadcastResult:
        """Standalone driver: fulfil every request against the own fluid clock."""
        request = self.start() if not self._started else self._request
        while not self.finished:
            # Nothing can intervene: grant the whole move.
            _, target_step, time = request
            self.fluid.advance_to(time)
            request = self.resume(target_step)
        return self.result

    def _setup(self) -> None:
        broadcast, hosts, root = self.broadcast, self.hosts, self.root
        if root not in hosts:
            raise ValueError(f"root {root!r} is not part of the swarm")
        cfg = broadcast.config
        num_fragments = self.num_fragments = cfg.torrent.num_fragments
        self.fragment_size = cfg.torrent.fragment_size
        self.pipe_budget = float(cfg.torrent.size) * 4.0 + 1.0
        self.random_first_threshold = cfg.random_first_threshold
        self.max_steps = int(np.ceil(cfg.max_sim_time / self.dt)) + 1
        n = len(hosts)
        index = self.index = {name: i for i, name in enumerate(hosts)}
        root_index = index[root]
        # Host indices in lexicographic name order: candidate lists must come
        # out sorted by name (exactly as the scalar implementation's
        # ``sorted()`` produced them) for bit-for-bit seed replay.
        self.lex_order = np.array(sorted(range(n), key=hosts.__getitem__))

        # Each swarm fact is kept once, by host index: ``have`` is the
        # bitfield matrix, ``held`` the fragment counts (the list
        # ``convert_pass`` updates in place), ``completion`` the finish
        # times, ``neighbor_mask`` the symmetric tracker relation and
        # ``away`` the peers churned out.  The choker's memory: credits[d, u]
        # counts the bytes u uploaded to d this choking round, and
        # optimistic[i] is peer i's optimistic-unchoke target (-1 for none).
        have = self.have = np.zeros((n, num_fragments), dtype=bool)
        have[root_index] = True
        self.held = [0] * n
        self.held[root_index] = num_fragments
        self.completion: List[Optional[float]] = [None] * n
        self.completion[root_index] = self.start_time
        self.away = np.zeros(n, dtype=bool)
        self.credits = np.zeros((n, n))
        self.optimistic = [-1] * n

        # The conversion step's state as Python-int bitsets (see
        # selection.convert_pass): host_bits[i] mirrors have[i], and
        # below[c] holds the fragments held by at most c hosts.  Churn keeps
        # bitfields, so availability never falls and the least non-empty
        # level only rises.
        self.host_bits = [bitset(row) for row in have]
        held_by = have.sum(axis=0)
        self.below = [bitset(held_by <= c) for c in range(n + 1)]
        self.lowest = 0

        self.neighbor_mask = broadcast.tracker.build_connections(n, self.rng)
        self.fragments = FragmentMatrix(hosts)

        # The unchoke relation: unchoked[u, d] when u uploads to d.
        self.unchoked = np.zeros((n, n), dtype=bool)
        # Pipes by host pair: pair u * n + d is the pipe from uploader u to
        # downloader d, open[u, d] when it holds a transfer.  By pair, too:
        # its fluid slot (-1 once parked), the byte bases ``consumed`` and
        # ``credit_base``, the fragment ``progress`` (kept across a close, so
        # a reopened pair resumes from it) and the ``frozen`` bytes of a
        # parked pipe.  The bases are *anchored*: an open pipe's
        # ``consumed``/``progress`` are only written at its conversion events
        # (and ``credit_base`` at credit flushes), so the byte state observed
        # at any control point is an analytic function of the last event —
        # identical whether or not the inert points in between were visited.
        # That anchoring is what makes the event-stepped mode replay the
        # fixed loop bit for bit.
        self.open = np.zeros((n, n), dtype=bool)
        self.transfers: Dict[int, FluidTransfer] = {}
        self.slot = np.full(n * n, -1, dtype=np.int64)
        self.consumed = np.zeros(n * n)
        self.progress = np.zeros(n * n)
        self.credit_base = np.zeros(n * n)
        self.frozen = np.zeros(n * n)
        # Every pair in pipe order (uploader name, then downloader name):
        # the order in which a conversion pass runs the ready pipes.
        lex_order = self.lex_order
        self.pair_order = (lex_order[:, None] * n + lex_order[None, :]).ravel()
        self.order_pipes()

        self.incomplete_mask = np.arange(n) != root_index
        # The interest matrix, the one derived fact the session caches: a
        # pure function of neighbor_mask, incomplete_mask and have, dropped
        # wherever one of them changes (see interest_matrix).
        self._interest: Optional[np.ndarray] = None
        self.time = self.start_time
        self.round_index = 0
        self.next_rechoke = self.start_time
        # Telemetry flags are hoisted once per broadcast: with tracing off the
        # whole loop pays two local-bool reads, nothing else.  Records only
        # *read* state — no random draws, no clock movement — so seed goldens
        # replay bit-for-bit with tracing on (tests/test_seed_replay.py).
        self.trace_full = TRACER.full

    def _step_loop(self):
        """The broadcast loop as a generator of clock requests."""
        start, dt, max_steps = self.start_time, self.dt, self.max_steps
        event_mode = self.broadcast.config.stepping == "event"
        incomplete = self.incomplete_mask
        broadcast_started = TRACER.now() if TRACER.enabled else 0.0
        step = 0
        control_steps = 0
        while incomplete.any():
            if step >= max_steps:
                raise RuntimeError(
                    f"broadcast did not complete within max_sim_time="
                    f"{self.broadcast.config.max_sim_time}s "
                    f"({int(incomplete.sum())} hosts incomplete)"
                )
            self.time = time = start + step * dt
            control_steps += 1
            if self._completed_pipes:
                # Pipe transfers that ran their byte budget were detached in
                # the advance or landing that led here, and their pipes were
                # parked right after it; the list only made the visit rule
                # stop here.
                self._completed_pipes.clear()
            if self._pending_churn:
                ops, self._pending_churn = self._pending_churn, []
                for op, name, churn_rng in ops:
                    if (
                        self.apply_leave(name) if op == "leave"
                        else self.apply_rejoin(name, churn_rng)
                    ):
                        self.churn_events += 1
                        self.churn_applied[op] += 1
                if not incomplete.any():
                    break

            # --- choking -------------------------------------------------- #
            # Neither the rechoke nor the fill changes the interest matrix.
            interest = self.interest_matrix()
            if time >= self.next_rechoke - 1e-12:
                self.rechoke(interest)
            else:
                self.fill_slots(interest)
            self.sync_pipes(interest)

            # --- data movement -------------------------------------------- #
            # An advance: no driver lands it before step + 1.
            self.time = time = start + (step + 1) * dt
            yield (step, step + 1, time)
            self.land(time)

            # --- next control point ---------------------------------------- #
            # The event mode visits the next point only when its control
            # phase can act: queued churn lands there, as in the fixed loop; a
            # pipe out of budget is parked before a landing reads a slot
            # another tenant may recycle; a due rechoke only saves a jump's
            # round trip (the jump's cap lands there too); and on the same
            # interest matrix the fill and the sync change nothing.
            if (
                not event_mode
                or self._pending_churn
                or self._completed_pipes
                or time >= self.next_rechoke - 1e-12
                or (self.interest_matrix() is not interest
                    and not np.array_equal(self._interest, interest))
            ):
                step += 1
                continue
            # Quiescent point: no random draws or pipe transitions can occur
            # before the next predicted control event.
            # Fast path: if the very next point converts anyway (the common
            # case in conversion-dense configs), one predicate evaluation
            # replaces the whole jump prediction.  A conservative answer only
            # ever visits a point the fixed loop visits too.
            if self.pipe_pairs.size and self.conversion_due(start + (step + 2) * dt):
                step += 1
                continue
            # Jump straight to the earliest of the three event sources — the
            # grid points in between are provably inert under the current
            # rates.  The conversion search is capped by the other two, so
            # its answer is that minimum.  The driver may grant an earlier
            # landing (another tenant changed the rates, or churn arrived);
            # extra visits are exact, since the fixed loop visits them all.
            cap = min(self.next_rechoke_step(step), self.next_fluid_step(step))
            target = self.next_conversion_step(step, min(cap, max_steps))
            granted = yield (step, target, start + target * dt)
            target = max(min(granted, target), step + 1)
            if self.trace_full and target > step + 1:
                # Control steps jumped rather than visited: the span
                # (step, target) is provably inert under the current rates.
                TRACER.event("swarm.jump", sim_time=start + target * dt,
                             from_step=step, to_step=target)
            step = target
            # The driver brought the fluid clock to the landing point, so
            # pipe opens/closes at the landing step anchor their rate change
            # at the landing time, exactly as the fixed loop (whose clock
            # always sits at the current grid point) does.  The landing runs
            # the conversion check the fixed loop evaluates at this point
            # (at the end of the previous step).  Under the predicted rates
            # nothing is ready, but another tenant may have raised them
            # during the jump (a repaired link, a settled flap, a cancelled
            # foreign flow), and those receipts land here.
            self.time = time = start + step * dt
            self.land(time)
        # The broadcast is over: stop its pipes loading the network.  No
        # credit or progress is read again, so nothing is settled.
        for transfer in self.transfers.values():
            self.fluid.cancel_transfer(transfer)
        return self._report(step, control_steps, broadcast_started)

    def land(self, time: float) -> None:
        """Run the conversion check at ``time``, where the clock landed.

        A pipe that ran its budget on the way freed its fluid slot, which
        another tenant's transfer may already hold: it is parked first.
        """
        if self._completed_pipes:
            self.park_exhausted_pipes()
        self.convert(time)

    def _report(self, step: int, control_steps: int, started: float) -> BroadcastResult:
        """Count the finished broadcast and build its result."""
        cfg = self.broadcast.config
        start, time, root = self.start_time, self.time, self.root
        fragments = self.fragments
        receipts = int(fragments.counts.sum())
        METRICS.count("swarm.broadcasts")
        METRICS.count("swarm.control_steps", control_steps)
        METRICS.count(f"swarm.broadcasts.{cfg.stepping}")
        METRICS.count("swarm.receipts", receipts)
        if TRACER.enabled:
            TRACER.span_record(
                "swarm.broadcast",
                started,
                root=root,
                stepping=cfg.stepping,
                control_steps=control_steps,
                steps_jumped=max(0, step - control_steps),
                receipts=receipts,
                sim_start=start,
                sim_end=start + step * self.dt,
            )
        completion_times = {
            name: (finish if finish is not None else time)
            for name, finish in zip(self.hosts, self.completion)
        }
        # Peers still churned out at the end never finished downloading; they
        # must not stretch the broadcast duration to the last control point.
        finishers = [
            t for (name, t), away in zip(completion_times.items(), self.away.tolist())
            if name != root and not away
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

    # ------------------------------------------------------------------ #
    # choking and interest
    # ------------------------------------------------------------------ #
    def recompute_wanted(self) -> np.ndarray:
        """wanted[u, d] counts the fragments u holds that d lacks:
        counts[u] - |u ∩ d| via one float32 matmul, exact because the
        counts are far below 2**24."""
        have_f = self.have.astype(np.float32)
        common = have_f @ have_f.T
        return common.diagonal()[:, None] - common

    def interest_matrix(self) -> np.ndarray:
        """"d is interested in u" for every pair: neighbours, d incomplete,
        and u holding a fragment d lacks (the wire-protocol rule: seeds want
        nothing, empty peers offer nothing).  Built on demand and kept until
        a receiving pass, a leave or a rejoin drops it."""
        if self._interest is None:
            interest = self.neighbor_mask & self.incomplete_mask[None, :]
            np.logical_and(interest, self.recompute_wanted() > 0, out=interest)
            self._interest = interest
        return self._interest

    def rechoke(self, interest: np.ndarray) -> None:
        """Full tit-for-tat rechoke of every peer, in a random host order.

        Each peer's candidates are its interested neighbours (its row of
        ``interest``) in name order; the choker's answers are the new rows
        of ``unchoked``.  A peer's rechoke reads only its own credit row, so
        the round's credits are cleared after the loop.
        """
        if self.pipe_pairs.size:
            self.flush_credits()
        rng, held, optimistic, credits = self.rng, self.held, self.optimistic, self.credits
        policy, n, lex_order = self.broadcast.choking, len(self.hosts), self.lex_order
        round_index, num_fragments = self.round_index, self.num_fragments
        unchoked = np.zeros((n, n), dtype=bool)
        for i in rng.permutation(n).tolist():
            chosen, optimistic[i] = policy.rechoke(
                lex_order[interest[i, lex_order]].tolist(), credits[i].tolist(),
                optimistic[i], held[i] == num_fragments, round_index, rng,
            )
            unchoked[i, chosen] = True
        credits.fill(0.0)
        self.unchoked = unchoked
        self.round_index = round_index + 1
        self.next_rechoke += self.broadcast.config.rechoke_interval

    def fill_slots(self, interest: np.ndarray) -> None:
        """Between rechokes: drop finished peers from the unchoke relation and
        fill idle upload slots with newly interested neighbours, uploaders
        in index order and each one's candidates in name order."""
        unchoked, lex_order, rng = self.unchoked, self.lex_order, self.rng
        # The root is never incomplete, so it is never unchoked: the mask
        # drops exactly the peers that finished.
        unchoked &= self.incomplete_mask
        waiting = interest & ~unchoked
        free = self.broadcast.choking.upload_slots - unchoked.sum(axis=1)
        for uploader in ((free > 0) & waiting.any(axis=1)).nonzero()[0].tolist():
            candidates = lex_order[waiting[uploader, lex_order]]
            picks = rng.choice(
                len(candidates), size=min(int(free[uploader]), len(candidates)),
                replace=False,
            )
            unchoked[uploader, candidates[picks]] = True

    # ------------------------------------------------------------------ #
    # pipes
    # ------------------------------------------------------------------ #
    def open_pipe(self, pair: int) -> None:
        """Start the pair's transfer; its byte bases start from zero and its
        fragment progress from what the pair carried."""
        uploader, downloader = divmod(pair, len(self.hosts))
        uploader, downloader = self.hosts[uploader], self.hosts[downloader]
        transfer = self.fluid.start_transfer(
            uploader, downloader, size=self.pipe_budget,
            rate_cap=self.broadcast._rate_cap(uploader, downloader),
            on_complete=self._completed_pipes.append,
        )
        self.transfers[pair] = transfer
        self.slot[pair] = transfer._slot
        self.consumed[pair] = self.credit_base[pair] = 0.0

    def close_pipe(self, pair: int) -> None:
        """Cancel the pair's transfer, credit the round's bytes and carry its
        fragment progress."""
        transfer = self.transfers.pop(pair)
        self.fluid.cancel_transfer(transfer)
        # The cancelled (or parked) transfer's byte count is frozen at the
        # current clock.
        moved = transfer.transferred
        delta = moved - self.credit_base[pair]
        if delta > 0:
            uploader, downloader = divmod(pair, len(self.hosts))
            self.credits[downloader, uploader] += delta
        self.progress[pair] += moved - self.consumed[pair]

    def sync_pipes(self, interest: np.ndarray) -> None:
        """Make the fluid flow set match the step's unchoke and interest: a
        pipe is open exactly when its uploader unchokes its downloader and
        the downloader is interested.

        One diff against the open mask finds the pairs that change, and
        only those call the fluid network.  The opens and closes of one
        sync happen at one instant, so their order reaches no result: the
        max-min rates depend on the set of flows and not on their slots, a
        close reads bytes frozen at the current clock, and each close
        credits its own (downloader, uploader) key.
        """
        target = self.unchoked & interest
        changed = (target != self.open).ravel().nonzero()[0]
        if not changed.size:
            return
        opening = target.ravel()
        for pair in changed.tolist():
            if opening[pair]:
                self.open_pipe(pair)
            else:
                self.close_pipe(pair)
        self.open = target
        self.order_pipes()

    def order_pipes(self) -> None:
        """Gather the open pipes in pipe order with their fluid slots.

        A pipe whose transfer ran its whole byte budget is detached from the
        FlowSet (its slot is recycled) but, exactly as in the scalar
        implementation, stays open and simply starves: it reads slot 0 and
        :meth:`moved_at` patches its frozen bytes over that read.
        """
        order = self.pair_order
        pairs = self.pipe_pairs = order[self.open.ravel()[order]]
        slots = self.slot[pairs]
        dead = self.pipe_dead_positions = (slots < 0).nonzero()[0]
        slots[dead] = 0
        self.pipe_slots = slots

    def park_exhausted_pipes(self) -> None:
        """Park the pipes whose transfers ran their byte budget in the last
        advance: each keeps its frozen bytes and gives up its slot."""
        n, index = len(self.hosts), self.index
        for transfer in self._completed_pipes:
            pair = index[transfer.src] * n + index[transfer.dst]
            self.slot[pair] = -1
            self.frozen[pair] = transfer.transferred
        self.order_pipes()

    def moved_at(self, t: float) -> np.ndarray:
        """Exact per-pipe transferred bytes at absolute time ``t``.

        Parked (budget-exhausted) pipes read their frozen totals; live
        pipes read the fluid network's anchored-analytic state.  Pure —
        valid at any time up to the next fluid transition, which is what
        the event mode's jump predicates extrapolate with.
        """
        moved = self.fluid.transferred_at(self.pipe_slots, t)
        dead = self.pipe_dead_positions
        if dead.size:
            moved[dead] = self.frozen[self.pipe_pairs[dead]]
        return moved

    def flush_credits(self) -> None:
        """Credit each open pipe's bytes since the last rechoke.

        The scalar implementation credited every step; the totals per
        choking round are identical, so crediting lazily (at rechoke and
        on pipe close) preserves the reciprocation ranking.
        """
        moved = self.moved_at(self.time)
        pairs = self.pipe_pairs
        # Each open pair credits its own (downloader, uploader) entry, with
        # a positive amount or with nothing.
        uploaders, downloaders = np.divmod(pairs, len(self.hosts))
        self.credits[downloaders, uploaders] += np.maximum(moved - self.credit_base[pairs], 0.0)
        self.credit_base[pairs] = moved

    # ------------------------------------------------------------------ #
    # churn (peer leave/rejoin mid-broadcast)
    # ------------------------------------------------------------------ #
    # Applied at visited control points only, so both stepping modes see a
    # churn event at the same grid point (the workload engine wakes a
    # jumped-ahead session at the first grid point after the event).
    def apply_leave(self, name: str) -> bool:
        """Tear a peer out of the swarm; in-flight pipe progress is lost,
        its fragment bitfield is kept (BitTorrent resume semantics)."""
        i = self.index.get(name)
        if i is None or name == self.root or self.away[i]:
            return False
        self.away[i] = True
        leaving = np.zeros_like(self.open)
        leaving[i] = leaving[:, i] = True
        closing = np.flatnonzero(self.open & leaving)
        for pair in closing.tolist():
            self.close_pipe(pair)
        self.open &= ~leaving
        self.progress[leaving.ravel()] = 0.0
        if closing.size:
            self.order_pipes()
        # No peer keeps the leaver as its optimistic target, and the leaver
        # keeps neither a target nor the round's credits.
        self.optimistic = [-1 if target == i else target for target in self.optimistic]
        self.optimistic[i] = -1
        self.credits[i] = 0.0
        self.neighbor_mask &= ~leaving
        self.unchoked &= ~leaving
        # A departed peer must not gate broadcast completion while away.
        self.incomplete_mask[i] = False
        self._interest = None
        return True

    def apply_rejoin(self, name: str, churn_rng: np.random.Generator) -> bool:
        """Re-admit a departed peer with a fresh tracker announce."""
        i = self.index.get(name)
        if i is None or not self.away[i]:
            return False
        present = np.flatnonzero(~self.away)
        self.away[i] = False
        picks = self.broadcast.tracker.announce(present, churn_rng)
        self.neighbor_mask[i, picks] = self.neighbor_mask[picks, i] = True
        if self.held[i] < self.num_fragments:
            self.incomplete_mask[i] = True
        self._interest = None
        return True

    # ------------------------------------------------------------------ #
    # event-mode jump predicates (exact, grid-aligned) and conversion
    # ------------------------------------------------------------------ #
    # The predicates answer "at which future control step does the loop body
    # first do something?" with the *same float expressions* the body itself
    # evaluates, so a jump lands exactly on the step the fixed loop would
    # have acted at.  Analytic estimates seed the search and a short walk
    # settles ulp-level rounding.
    def grid_step(self, t: float, floor: int) -> int:
        """The least control step ``k >= floor`` whose clock
        ``start_time + k * dt`` reaches ``t``.

        The clock is monotone in ``k``, so a ceil estimate settled by a walk
        in both directions lands on the one least step.
        """
        start, dt = self.start_time, self.dt
        k = max(floor, math.ceil((t - start) / dt))
        while start + k * dt < t:
            k += 1
        while k > floor and start + (k - 1) * dt >= t:
            k -= 1
        return k

    def next_rechoke_step(self, current: int) -> int:
        """First step after ``current`` whose clock hits the rechoke timer."""
        return self.grid_step(self.next_rechoke - 1e-12, current + 1)

    def next_fluid_step(self, current: int) -> int:
        """First step whose advance covers the next fluid-flow transition."""
        transition = self.fluid.next_transition()
        if transition is None:
            return self.max_steps
        return self.grid_step(transition, current + 2) - 1

    def conversion_due(self, t: float) -> bool:
        """Would the conversion check fire if evaluated at time ``t``?"""
        pairs = self.pipe_pairs
        deltas = self.moved_at(t) - self.consumed[pairs]
        progress = self.progress[pairs] + deltas
        return bool(((deltas > 0) & (progress >= self.fragment_size)).any())

    def next_conversion_step(self, current: int, cap: int) -> int:
        """First step in ``(current, cap]`` whose conversion check fires.

        Rates are constant up to ``cap`` (which the caller bounds by the
        next fluid transition), so per-pipe fragment boundaries are the
        analytic ``need / (rate · dt)``; the walk pins the estimate to
        the exact grid comparison the step body performs.
        """
        pairs = self.pipe_pairs
        if not pairs.size or current + 1 >= cap:
            return cap
        rates = self.fluid._rate[self.pipe_slots]
        if self.pipe_dead_positions.size:
            rates[self.pipe_dead_positions] = 0.0
        moving = rates > 1e-12
        if not moving.any():
            return cap
        start, dt = self.start_time, self.dt
        progress = self.progress[pairs] + (self.moved_at(self.time) - self.consumed[pairs])
        need = self.fragment_size - progress[moving]
        steps_needed = np.ceil(need / (rates[moving] * dt))
        # The estimate can be off by a grid step when a boundary lands
        # within float noise of a control point; the walk below settles
        # it against the exact step-body predicate (monotone in time),
        # so the jump lands on precisely the step the fixed loop acts at.
        candidate = min(current + max(int(steps_needed.min()), 1), cap)
        due = self.conversion_due
        while candidate - 1 > current and due(start + candidate * dt):
            candidate -= 1
        while candidate < cap and not due(start + (candidate + 1) * dt):
            candidate += 1
        return candidate

    def convert(self, time: float) -> None:
        """Turn each pipe's whole accumulated fragments into receipts.

        The conversion check of the grid point at ``time``: only pipes
        that accumulated a whole fragment need Python work; their
        anchored bases are settled here, everything else stays a pure
        function of its last conversion event.  When no pipe is ready,
        nothing changes and no random number is drawn.
        """
        pairs = self.pipe_pairs
        if not pairs.size:
            return
        moved = self.moved_at(time)
        deltas = moved - self.consumed[pairs]
        progress_now = self.progress[pairs] + deltas
        fragment_size = self.fragment_size
        ready = ((deltas > 0) & (progress_now >= fragment_size)).nonzero()[0]
        if not ready.size:
            return
        trace_full = self.trace_full
        if trace_full:
            conversion_started = TRACER.now()
        below, lowest = self.below, self.lowest
        while not below[lowest]:
            lowest += 1
        self.lowest = lowest
        num_fragments, held, completion = self.num_fragments, self.held, self.completion
        hosts, trace, incomplete = self.hosts, self.trace, self.incomplete_mask
        ready_pairs = pairs[ready]
        ready_up, ready_down = np.divmod(ready_pairs, len(hosts))
        uploaders, downloaders = ready_up.tolist(), ready_down.tolist()
        surpluses = progress_now[ready].tolist()
        # One kernel call per pass; it updates the bitsets and ``held`` in
        # place, and nothing in it reads the pipe state or ``have``, so
        # those are written after it.
        received = convert_pass(
            self.host_bits, below, lowest, uploaders, downloaders, held,
            surpluses, fragment_size, self.random_first_threshold,
            num_fragments, self.rng,
        )
        counts = [len(fragments) for fragments in received]
        receipts: List[int] = []
        for uploader_index, downloader_index, fragments in zip(
            uploaders, downloaders, received
        ):
            if not fragments:
                continue
            if held[downloader_index] == num_fragments:
                completion[downloader_index] = time
                incomplete[downloader_index] = False
            if trace is not None:
                uploader, downloader = hosts[uploader_index], hosts[downloader_index]
                for fragment in fragments:
                    trace.append((time, downloader, uploader, fragment))
            receipts.extend(fragments)
        self.consumed[ready_pairs] = moved[ready]
        self.progress[ready_pairs] = surpluses
        self.fragments.counts[ready_down, ready_up] += counts
        if receipts:
            self.have[ready_down.repeat(counts), receipts] = True
            self._interest = None
        if trace_full:
            # Per-receipt conversion cost: wall seconds of the pass over
            # the number of fragments it converted (sim-time stamped).
            TRACER.event(
                "swarm.conversion",
                sim_time=time,
                pipes=len(counts),
                receipts=len(receipts),
                wall_s=TRACER.now() - conversion_started,
            )


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
