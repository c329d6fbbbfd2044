"""Unit and certificate tests for the max-min solver.

:meth:`~repro.network.solver.FlowSet.certify` checks an allocation against
the definition of max-min fairness (feasible, and every flow at its cap or
crossing a saturated link on which no flow gets more), which admits one
allocation, so certifying a solve is a complete oracle.  The unit cases pin
exact rates; the hypothesis sequences certify after every add, remove and
``set_link_capacity`` at capacities and caps of 1e6–1e10 B/s, where rounding
residues outgrow an absolute tolerance, and a twin flow set fed the same
sequence must give the same bits; the campaign tests certify every solve
of a B-G-T-L and a LINK-BLACKOUT campaign.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.network.solver import FlowSet
from repro.scenarios import get_scenario


def solve_certified(flow_set):
    rates = flow_set.solve()
    flow_set.certify(rates)
    return rates


# --------------------------------------------------------------------- #
# FlowSet unit behaviour
# --------------------------------------------------------------------- #
class TestFlowSet:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            FlowSet([100.0, 0.0])

    def test_rejects_bad_rate_cap(self):
        flow_set = FlowSet([10.0])
        with pytest.raises(ValueError):
            flow_set.add([0], rate_cap=0.0)

    def test_rejects_out_of_range_link(self):
        flow_set = FlowSet([10.0])
        with pytest.raises(IndexError):
            flow_set.add([1])

    def test_single_flow_takes_bottleneck(self):
        flow_set = FlowSet([100.0, 40.0])
        slot = flow_set.add([0, 1])
        assert solve_certified(flow_set)[slot] == 40.0

    def test_loopback_flow_unbounded(self):
        flow_set = FlowSet([10.0])
        slot = flow_set.add([])
        assert np.isinf(solve_certified(flow_set)[slot])

    def test_loopback_flow_with_cap(self):
        flow_set = FlowSet([10.0])
        slot = flow_set.add([], rate_cap=3.0)
        assert solve_certified(flow_set)[slot] == 3.0

    def test_duplicate_links_count_once(self):
        flow_set = FlowSet([10.0])
        a = flow_set.add([0, 0, 0])
        b = flow_set.add([0])
        rates = solve_certified(flow_set)
        assert (rates[a], rates[b]) == (5.0, 5.0)

    def test_incremental_add_remove_matches_fresh_solve(self):
        """The maintained incidence equals a from-scratch build at every step."""
        rng = np.random.default_rng(7)
        capacities = rng.uniform(10.0, 200.0, size=12)
        flow_set = FlowSet(capacities)
        live = {}
        for step in range(120):
            if live and rng.random() < 0.4:
                slot = list(live)[int(rng.integers(0, len(live)))]
                flow_set.remove(slot)
                del live[slot]
            else:
                k = int(rng.integers(1, 5))
                route = rng.choice(12, size=k, replace=False)
                cap = None if rng.random() < 0.5 else float(rng.uniform(1.0, 80.0))
                live[flow_set.add(route, cap)] = (tuple(route), cap)
            assert len(flow_set) == len(live)
            rates = solve_certified(flow_set)
            fresh = FlowSet(capacities)
            fresh_slots = {
                slot: fresh.add(route, cap) for slot, (route, cap) in live.items()
            }
            fresh_rates = fresh.solve()
            for slot, fresh_slot in fresh_slots.items():
                assert rates[slot] == fresh_rates[fresh_slot]

    def test_remove_unknown_slot_raises(self):
        flow_set = FlowSet([10.0])
        with pytest.raises(KeyError):
            flow_set.remove(0)

    def test_slot_recycling_after_remove(self):
        flow_set = FlowSet([10.0])
        slot = flow_set.add([0])
        flow_set.remove(slot)
        again = flow_set.add([0])
        assert solve_certified(flow_set)[again] == 10.0

    def test_pool_growth_beyond_initial_capacity(self):
        flow_set = FlowSet([1000.0])
        slots = [flow_set.add([0]) for _ in range(100)]
        assert solve_certified(flow_set)[slots].tolist() == [10.0] * 100

    def test_flows_sharing_one_link(self):
        flow_set = FlowSet([90.0])
        slots = [flow_set.add([0]) for _ in range(9)]
        assert solve_certified(flow_set)[slots].tolist() == [10.0] * 9

    def test_shared_bottleneck_with_caps_and_loopbacks(self):
        core, access0, access1, access2 = range(4)
        flow_set = FlowSet([12.0, 8.0, 6.0, 9.0])
        flows = {
            "a": ([access0, core], None),
            "b": ([access1, core], 2.0),
            "c": ([access2, core], None),
            "loop": ([], 5.0),
            "free": ([], None),
            "d": ([access0], None),
            "e": ([access1], None),
            "f": ([access2, core], None),
            "g": ([core], None),
            "h": ([core], 0.5),
        }
        slots = {name: flow_set.add(route, cap) for name, (route, cap) in flows.items()}
        rates = solve_certified(flow_set)
        # h and b freeze at their caps, the core saturates at 2.375, then
        # access1 at 4.0 and access0 at 5.625.
        assert {name: rates[slot] for name, slot in slots.items()} == {
            "a": 2.375, "b": 2.0, "c": 2.375, "loop": 5.0, "free": np.inf,
            "d": 5.625, "e": 4.0, "f": 2.375, "g": 2.375, "h": 0.5,
        }

    def test_many_flows_through_bottleneck(self):
        n = 64
        flow_set = FlowSet([125e6] + [111e6] * n)
        slots = [flow_set.add([1 + i, 0]) for i in range(n)]
        assert solve_certified(flow_set)[slots].tolist() == [125e6 / n] * n


# --------------------------------------------------------------------- #
# the certificate rejects every way an allocation can be wrong
# --------------------------------------------------------------------- #
class TestCertify:
    @pytest.fixture
    def solved(self):
        """Links of 10, 20 and 100 B/s: a and b share link 0, b and c link 1,
        and a flow capped at 2 B/s has link 2 to itself."""
        flow_set = FlowSet([10.0, 20.0, 100.0])
        slots = {
            "a": flow_set.add([0]),
            "b": flow_set.add([0, 1]),
            "c": flow_set.add([1]),
            "capped": flow_set.add([2], rate_cap=2.0),
            "loop": flow_set.add([], rate_cap=3.0),
        }
        rates = solve_certified(flow_set)
        assert [rates[slots[name]] for name in ("a", "b", "c", "capped", "loop")] == [
            5.0, 5.0, 15.0, 2.0, 3.0
        ]
        return flow_set, slots, rates

    @pytest.mark.parametrize(
        "name, rate, message",
        [
            ("a", 6.0, "link 0 load 11.0 > capacity 10.0"),
            ("capped", 2.5, "gets 2.5 > cap 2.0"),
            ("a", 4.0, "gets 4.0 < cap inf and crosses no saturated"),
            ("c", 14.0, "gets 14.0 < cap inf and crosses no saturated"),
            ("loop", 2.0, "reads 2.0, not 3.0"),
        ],
    )
    def test_a_wrong_rate_is_named(self, solved, name, rate, message):
        flow_set, slots, rates = solved
        wrong = rates.copy()
        wrong[slots[name]] = rate
        with pytest.raises(ValueError, match=message):
            flow_set.certify(wrong)

    def test_a_free_slot_must_read_zero(self, solved):
        flow_set, _, rates = solved
        wrong = rates.copy()
        wrong[7] = 1.0
        with pytest.raises(ValueError, match="slot 7 reads 1.0, not 0.0"):
            flow_set.certify(wrong)

    def test_a_flow_below_the_top_rate_of_its_saturated_link_fails(self):
        """Feasible and every link saturated, but not max-min fair: b may
        grow at a's expense on link 0, where a gets more than b."""
        flow_set = FlowSet([10.0, 10.0])
        a = flow_set.add([0])
        b = flow_set.add([0, 1])
        c = flow_set.add([1])
        rates = np.zeros(flow_set.pool_size)
        rates[[a, b, c]] = [6.0, 4.0, 6.0]
        with pytest.raises(ValueError, match=f"slot {b} gets 4.0"):
            flow_set.certify(rates)


# --------------------------------------------------------------------- #
# certified operation sequences
# --------------------------------------------------------------------- #
#: Capacities and caps span 1e6–1e10 B/s.  Above ~1e7 B/s an ulp exceeds
#: 1e-9, so rounding residues outgrow an absolute saturation tolerance; at
#: 1e3 B/s they never do.
VALUE = st.floats(min_value=1e6, max_value=1e10)


@st.composite
def random_scenario(draw):
    num_links = draw(st.integers(min_value=1, max_value=8))
    capacities = draw(st.lists(VALUE, min_size=num_links, max_size=num_links))
    flows = []
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        if draw(st.booleans()):
            k = draw(st.integers(min_value=1, max_value=num_links))
            route = draw(st.permutations(range(num_links)))[:k]
        else:
            route = []
        flows.append((route, draw(st.one_of(st.none(), VALUE))))
    return capacities, flows


@given(random_scenario())
@settings(max_examples=60, deadline=None)
def test_vectorized_rates_positive_and_complete(scenario):
    """Every flow of a random instance gets a positive, certified rate."""
    capacities, flows = scenario
    flow_set = FlowSet(capacities)
    slots = [flow_set.add(route, cap) for route, cap in flows]
    rates = solve_certified(flow_set)
    assert (rates[slots] > 0).all()


@st.composite
def flow_set_operations(draw):
    """Link capacities and a random sequence of FlowSet operations.

    The sequences share caps between flows, repeat links within a route,
    add linkless flows, grow the pool past its initial 8 slots and recycle
    slots.  Their length is drawn once, so that long sequences, where many
    flows share links, are as likely as short ones.
    """
    num_links = draw(st.integers(min_value=1, max_value=6))
    capacities = draw(st.lists(VALUE, min_size=num_links, max_size=num_links))
    link = st.integers(min_value=0, max_value=num_links - 1)
    cap = st.one_of(st.none(), st.just(draw(VALUE)), VALUE)
    add = st.tuples(
        st.just("add"),
        st.lists(link, min_size=1, max_size=num_links + 2),
        cap,
        st.booleans(),
    )
    loopback = st.tuples(st.just("add"), st.just([]), cap, st.just(False))
    remove = st.tuples(st.just("remove"), st.integers(min_value=0, max_value=999))
    capacity = st.tuples(st.just("capacity"), link, VALUE)
    operation = st.one_of(add, add, loopback, remove, capacity)
    length = draw(st.integers(min_value=1, max_value=50))
    return capacities, [draw(operation) for _ in range(length)]


def apply(flow_set, operation, live):
    """Apply one drawn operation; returns the slot an add took or a remove
    freed, else None."""
    kind = operation[0]
    if kind == "add":
        _, route, cap, unique = operation
        if unique and len(set(route)) == len(route):
            # A simple path goes in as the fluid engine passes it.
            slot = flow_set.add(tuple(route), cap, assume_unique=True)
        else:
            slot = flow_set.add(route, cap)
        live.append(slot)
        return slot
    if kind == "remove" and live:
        slot = live.pop(operation[1] % len(live))
        flow_set.remove(slot)
        return slot
    if kind == "capacity":
        flow_set.set_link_capacity(operation[1], operation[2])
    return None


@given(flow_set_operations())
@example(
    # 29 flows share a 1 GB/s link, whose fair share leaves a residue of
    # 1.2e-7 B/s, and one flow has a 2 GB/s link to itself: an absolute
    # saturation test freezes nothing, so the guard froze all at 34 MB/s.
    ([1e9, 2e9], [("add", [0], None, False)] * 29 + [("add", [1], None, False)])
)
@settings(max_examples=200, deadline=None)
def test_flow_set_operations_are_certified(scenario):
    """After every operation the solve is certified, a twin flow set fed
    the same sequence gives the same bits, and slot ids follow the LIFO
    free list with the pool doubling when it runs dry."""
    capacities, operations = scenario
    flow_set, twin = FlowSet(capacities), FlowSet(capacities)
    live, twin_live = [], []
    pool = 8
    free = list(range(pool - 1, -1, -1))
    for operation in operations:
        slot = apply(flow_set, operation, live)
        apply(twin, operation, twin_live)
        if slot is not None and operation[0] == "add":
            if not free:
                free.extend(range(2 * pool - 1, pool - 1, -1))
                pool *= 2
            assert slot == free.pop()
        elif slot is not None:
            free.append(slot)
        assert flow_set.pool_size == pool
        assert len(flow_set) == len(live)
        rates = solve_certified(flow_set)
        assert rates.tobytes() == twin.solve().tobytes()


@st.composite
def reordered_flows(draw):
    """Link capacities, flows (some linkless), and two orders of the same
    operations: every flow is added, and the flows listed twice are removed
    again at their second appearance."""
    num_links = draw(st.integers(min_value=1, max_value=6))
    capacities = draw(st.lists(VALUE, min_size=num_links, max_size=num_links))
    link = st.integers(min_value=0, max_value=num_links - 1)
    route = st.one_of(
        st.lists(link, min_size=1, max_size=num_links).map(lambda r: tuple(dict.fromkeys(r))),
        st.just(()),
    )
    cap = st.one_of(st.none(), st.just(draw(VALUE)), VALUE)
    flows = draw(st.lists(st.tuples(route, cap), min_size=1, max_size=30))
    removed = draw(st.lists(st.sampled_from(range(len(flows))), unique=True))
    operations = list(range(len(flows))) + removed
    return capacities, flows, draw(st.permutations(operations)), draw(st.permutations(operations))


def rates_by_flow(capacities, flows, order):
    """Apply ``order`` to a fresh flow set; each live flow's solved rate."""
    flow_set = FlowSet(capacities)
    slots = {}
    for flow in order:
        if flow in slots:
            flow_set.remove(slots.pop(flow))
        else:
            route, cap = flows[flow]
            slots[flow] = flow_set.add(route, cap, assume_unique=True)
    rates = flow_set.solve()
    return {flow: rates[slot].tobytes() for flow, slot in slots.items()}


@given(reordered_flows())
@settings(max_examples=200, deadline=None)
def test_a_flows_rate_does_not_depend_on_the_order_of_operations(scenario):
    """The same flows added, and some removed, in two orders land on other
    slots but get the same bits: the solve depends only on the set of
    flows.  The swarm's pipe sync relies on it, opening and closing the
    pipes of one instant in pair order."""
    capacities, flows, first, second = scenario
    assert rates_by_flow(capacities, flows, first) == rates_by_flow(
        capacities, flows, second
    )


# --------------------------------------------------------------------- #
# every solve of a campaign is max-min fair
# --------------------------------------------------------------------- #
@pytest.fixture
def certified_solves(monkeypatch):
    """Certify every allocation ``FlowSet.solve`` returns; counts them."""
    solve = FlowSet.solve
    solves = []

    def certified(self):
        rates = solve(self)
        self.certify(rates)
        solves.append(len(self))
        return rates

    monkeypatch.setattr(FlowSet, "solve", certified)
    return solves


@pytest.mark.parametrize(
    "scenario, knobs",
    [
        ("B-G-T-L", dict(per_site=4, num_fragments=240, iterations=2, seed=2012)),
        ("LINK-BLACKOUT", {}),
    ],
    ids=["B-G-T-L", "LINK-BLACKOUT"],
)
def test_every_campaign_solve_is_max_min_fair(certified_solves, scenario, knobs):
    get_scenario(scenario).run(**knobs)
    assert certified_solves
