"""Property: every replica of a batched VecCore equals the reference.

The vectorized core re-derives its active sets (occupied channels, armed
sources) by full-width scans each cycle and fast-forwards idle stretches.
Whatever the occupancy pattern (bursty explicit schedules, uniform plans,
silence), batch size, drain, or idle window (which drives the
fast-forward), each replica must produce the field-complete
``stats_signature`` -- every counter, every latency sample, every
per-packet stamp -- of an independent run of the same stream on the
reference interpreter.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.parity import stats_signature
from repro.routing.cache import cached_tables
from repro.sim.engine import SimConfig
from repro.sim.network_sim import WormholeSim
from repro.sim.traffic import explicit_traffic
from repro.sim.vec import UniformPlan, VecCore
from repro.topology.mesh import mesh

NET = mesh((3, 3), nodes_per_router=1)
TABLES = cached_tables(NET)
ENDS = NET.end_node_ids()
CFG = SimConfig(raise_on_deadlock=False, stall_threshold=400)
REF_CFG = SimConfig(engine="reference", raise_on_deadlock=False, stall_threshold=400)


class _Shaped:
    """Minimal sim-shaped view over (stats, packets) for stats_signature."""

    def __init__(self, stats, packets):
        self.stats, self.packets = stats, packets


def _stream(spec):
    """The stream for one replica spec: a frozen plan for the batched
    core; explicit schedules are stateful generators, so every run gets a
    freshly built one."""
    if isinstance(spec, tuple):  # (rate, size, seed) -> uniform plan
        return UniformPlan(*spec)
    return explicit_traffic([(c, ENDS[s], ENDS[d], n) for c, s, d, n in spec if s != d])


def _reference_signature(spec, cycles, drain):
    traffic = _stream(spec)
    if isinstance(traffic, UniformPlan):
        traffic = traffic.build(NET)
    sim = WormholeSim(NET, TABLES, traffic, REF_CFG)
    sim.run(cycles, drain=drain)
    sim.finalize()
    return stats_signature(sim)


# Bursty explicit schedules: injection cycles up to 120 against runs as
# short as 10 cycles leave long silent stretches on both sides, driving
# occupancy from zero to hot-spot contention and back.
_events = st.lists(
    st.tuples(
        st.integers(0, 120),
        st.integers(0, len(ENDS) - 1),
        st.integers(0, len(ENDS) - 1),
        st.integers(1, 5),
    ),
    max_size=24,
)

_plan = st.tuples(
    st.sampled_from([0.0, 0.02, 0.1, 0.3]),
    st.integers(1, 5),
    st.integers(0, 999),
)

_replica = st.one_of(_events, _plan)


@settings(deadline=None, max_examples=20)
@given(
    specs=st.lists(_replica, min_size=1, max_size=4),
    cycles=st.integers(10, 200),
    drain=st.booleans(),
)
def test_each_replica_bit_identical_to_reference_run(specs, cycles, drain):
    core = VecCore(NET, TABLES, [_stream(s) for s in specs], CFG)
    core.run(cycles, drain=drain)
    core.finalize()
    for b, spec in enumerate(specs):
        got = stats_signature(_Shaped(core.stats_of(b), core.packets_of(b)))
        assert got == _reference_signature(spec, cycles, drain), f"replica {b}"
