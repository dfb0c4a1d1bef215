"""The vectorized struct-of-arrays engine: bit-identical to the
reference interpreter at batch=1 (field-complete signature parity),
bit-identical per replica when batched, and statistically equivalent in
aggregate."""

import math

import numpy as np
import pytest

from repro.core.fractahedron import fat_fractahedron
from repro.obs.parity import assert_counter_parity, compare_signatures, stats_signature
from repro.routing.cache import cached_tables
from repro.sim.engine import DeadlockDetected, SimConfig
from repro.sim.network_sim import WormholeSim
from repro.sim.traffic import explicit_traffic, pairs_traffic, uniform_traffic
from repro.sim.vec import UniformPlan, VecCore, VecSim
from repro.topology.mesh import mesh

CFG = SimConfig(raise_on_deadlock=False, stall_threshold=400)
ENGINES = ("reference", "compiled", "vectorized")


class _Shaped:
    """Minimal sim-shaped view over (stats, packets) for stats_signature."""

    def __init__(self, stats, packets):
        self.stats, self.packets = stats, packets


@pytest.fixture(scope="module")
def grid():
    net = mesh((3, 3), nodes_per_router=1)
    return net, cached_tables(net)


@pytest.fixture(scope="module")
def fracta():
    net = fat_fractahedron(1)
    return net, cached_tables(net)


class TestBatchOneParity:
    @pytest.mark.parametrize("rate", [0.02, 0.08, 0.2])
    def test_uniform_parity_all_engines(self, grid, rate):
        net, tables = grid
        sig = assert_counter_parity(
            net,
            tables,
            lambda: uniform_traffic(net.end_node_ids(), rate, 4, 1996),
            CFG,
            cycles=300,
            drain=True,
            engines=ENGINES,
        )
        assert sig["packets_delivered"] > 0

    @pytest.mark.parametrize(
        "tiers",
        [("replay", "replay"), ("fallback", "fallback"), ("replay", "fallback")],
        ids=["replay", "fallback", "handoff"],
    )
    def test_uniform_plan_fast_path_matches_generator(self, grid, monkeypatch, tiers):
        """The pre-generated array arrival path must consume the PCG64
        stream exactly like the per-cycle generator: on the raw-word
        replay, on the per-cycle fallback, and when a window drawn by the
        replay hands the generator state to one drawn by the fallback."""
        from repro.sim import vec as vec_mod

        net, tables = grid
        ref = WormholeSim(
            net,
            tables,
            uniform_traffic(net.end_node_ids(), 0.1, 4, 1996),
            SimConfig(engine="reference", raise_on_deadlock=False, stall_threshold=400),
        )
        ref.run(150)
        ref.run(150, drain=True)
        ref.finalize()
        assert vec_mod._raw_uniform_ok() is True
        vec = VecSim(net, tables, UniformPlan(0.1, 4, 1996), CFG)
        # each run() pre-generates its own 150-cycle window
        for tier, drain in zip(tiers, (False, True)):
            monkeypatch.setattr(vec_mod, "_RAW_UNIFORM_OK", tier == "replay")
            vec.run(150, drain=drain)
        vec.finalize()
        assert compare_signatures(stats_signature(ref), stats_signature(vec)) == []

    def test_adversarial_explicit_traffic(self, fracta):
        net, tables = fracta
        ends = net.end_node_ids()
        sched = []
        for burst in range(6):
            c = burst * 20
            for i, src in enumerate(ends):
                dst = ends[(i + len(ends) // 2) % len(ends)]
                if dst != src:
                    sched.append((c + 3, src, dst, 5))
                if src != ends[0]:
                    sched.append((c, src, ends[0], 5))
        sig = assert_counter_parity(
            net,
            tables,
            lambda: explicit_traffic(list(sched)),
            SimConfig(raise_on_deadlock=False, stall_threshold=64),
            cycles=300,
            drain=False,
            engines=ENGINES,
        )
        assert sig["cycles"] == 300

    def test_virtual_channels(self, grid):
        net, tables = grid
        assert_counter_parity(
            net,
            tables,
            lambda: uniform_traffic(net.end_node_ids(), 0.1, 4, 7),
            SimConfig(vc_count=2, raise_on_deadlock=False, stall_threshold=400),
            cycles=300,
            drain=True,
            engines=ENGINES,
        )


class TestDeadlockParity:
    def test_recorded_deadlock_matches(self):
        from repro.experiments.fig1_deadlock import build, clockwise_tables, figure1_pattern

        net = build()
        tables = clockwise_tables(net)
        cfg = SimConfig(buffer_depth=2, raise_on_deadlock=False, stall_threshold=16)
        assert_counter_parity(
            net,
            tables,
            lambda: pairs_traffic(figure1_pattern(net), 16),
            cfg,
            cycles=400,
            drain=True,
            engines=ENGINES,
        )

    def test_raised_deadlock_is_identical(self):
        from repro.experiments.fig1_deadlock import build, clockwise_tables, figure1_pattern

        net = build()
        tables = clockwise_tables(net)
        cfg = SimConfig(buffer_depth=2, raise_on_deadlock=True, stall_threshold=16)
        with pytest.raises(DeadlockDetected) as ref_exc:
            WormholeSim(
                net, tables, pairs_traffic(figure1_pattern(net), 16), cfg
            ).run(400)
        with pytest.raises(DeadlockDetected) as vec_exc:
            VecSim(
                net, tables, pairs_traffic(figure1_pattern(net), 16), cfg
            ).run(400)
        assert str(vec_exc.value) == str(ref_exc.value)
        assert vec_exc.value.at_cycle == ref_exc.value.at_cycle


def _wide_batch():
    """64 replicas of the depth-2 fat fanout-2 fractahedron: a wide batch
    of 64 x 592 = 37,888 replica-channels."""
    net = fat_fractahedron(2, fanout_width=2)
    plans = [UniformPlan(0.002 + 0.001 * i, 4, 200 + i) for i in range(64)]
    return net, cached_tables(net), plans, 200


def _narrow_batch():
    net = fat_fractahedron(1)
    plans = [UniformPlan(0.02 + 0.02 * i, 8, 100 + i) for i in range(8)]
    return net, cached_tables(net), plans, 400


class TestBatchedReplicas:
    @pytest.mark.parametrize(
        "batch", [_narrow_batch, _wide_batch], ids=["depth1-x8", "depth2-x64"]
    )
    def test_each_replica_bit_identical_to_independent_run(self, batch):
        net, tables, plans, cycles = batch()
        core = VecCore(net, tables, plans, CFG)
        core.run(cycles, drain=True)
        # independent runs on the compiled core, so the oracle never
        # shares the array kernels under test
        solo_cfg = SimConfig(engine="compiled", raise_on_deadlock=False, stall_threshold=400)
        for b, plan in enumerate(plans):
            solo = WormholeSim(
                net,
                tables,
                uniform_traffic(net.end_node_ids(), plan.rate, plan.packet_size, plan.seed),
                solo_cfg,
            )
            solo.run(cycles, drain=True)
            solo.finalize()
            diffs = compare_signatures(
                stats_signature(solo),
                stats_signature(_Shaped(core.stats_of(b), core.packets_of(b))),
                labels=("independent", f"replica[{b}]"),
            )
            assert diffs == []

    def test_batch_statistics_match_independent_population(self, grid):
        """B=8 same-rate replicas (different seeds) must agree with 8
        independent runs in aggregate, not just per replica."""
        net, tables = grid
        plans = [UniformPlan(0.06, 4, 500 + i) for i in range(8)]
        core = VecCore(net, tables, plans, CFG)
        batch = core.run(400, drain=True)
        solo_delivered, solo_latency = [], []
        for plan in plans:
            sim = WormholeSim(
                net,
                tables,
                uniform_traffic(net.end_node_ids(), plan.rate, 4, plan.seed),
                CFG,
            )
            stats = sim.run(400, drain=True)
            sim.finalize()
            solo_delivered.append(stats.packets_delivered)
            solo_latency.append(np.mean(stats.latencies))
        assert [s.packets_delivered for s in batch] == solo_delivered
        batch_latency = [float(np.mean(s.latencies)) for s in batch]
        assert batch_latency == pytest.approx([float(x) for x in solo_latency])
        assert float(np.mean(batch_latency)) == pytest.approx(
            float(np.mean(solo_latency))
        )

    def test_incremental_run_and_cycle_accounting(self, grid):
        net, tables = grid
        core = VecCore(net, tables, [UniformPlan(0.05, 4, 1), UniformPlan(0.05, 4, 2)], CFG)
        core.run(100)
        assert core.cycle_of(0) == 100 and core.cycle_of(1) == 100
        stats = core.run(100)
        assert all(s.cycles == 200 for s in stats)


class TestRawUniformGate:
    """The fast-path probe may only swallow *expected* failure shapes."""

    @pytest.fixture(autouse=True)
    def _reset_gate(self):
        from repro.sim import vec

        saved = vec._RAW_UNIFORM_OK
        vec._RAW_UNIFORM_OK = None
        yield
        vec._RAW_UNIFORM_OK = saved

    def test_expected_probe_failures_disable_fast_path(self, monkeypatch):
        from repro.sim import vec

        def broken_probe():
            raise AttributeError("no PCG64 state dict on this build")

        monkeypatch.setattr(vec, "_check_raw_uniform", broken_probe)
        assert vec._raw_uniform_ok() is False
        # the verdict is cached: the probe does not run again
        monkeypatch.setattr(vec, "_check_raw_uniform", lambda: True)
        assert vec._raw_uniform_ok() is False

    def test_real_errors_propagate(self, monkeypatch):
        from repro.sim import vec

        def crashing_probe():
            raise RuntimeError("genuine kernel bug")

        monkeypatch.setattr(vec, "_check_raw_uniform", crashing_probe)
        with pytest.raises(RuntimeError, match="genuine kernel bug"):
            vec._raw_uniform_ok()

    def test_healthy_probe_enables_fast_path(self):
        from repro.sim import vec

        assert vec._raw_uniform_ok() is True


class TestFireThreshold:
    """The integer fire test of the uniform replay equals the float test
    ``(raw >> 11) * 2**-53 < rate`` that ``Generator.random`` implies."""

    @staticmethod
    def _float_fires(raw, rate):
        return ((raw >> np.uint64(11)) * (2.0**-53)) < rate

    @pytest.mark.parametrize(
        "rate", [0.002, 0.005, 0.05, 1 / 3, 0.5, 1 - 2**-53, 2**-53, 2**-60, 5e-324]
    )
    def test_boundary_words(self, rate):
        from repro.sim.vec import _fires

        thr = math.ceil(rate * 2.0**53)
        words = [(thr << 11) - 1, thr << 11, (thr << 11) + 1, (thr - 1) << 11]
        words += [0, 1, (1 << 64) - 1]
        raw = np.array([w for w in words if 0 <= w < 1 << 64], dtype=np.uint64)
        assert np.array_equal(_fires(raw, rate), self._float_fires(raw, rate))
        # the threshold word itself is the first word that does not fire
        assert _fires(np.array([(thr << 11) - 1], dtype=np.uint64), rate)[0]
        assert not _fires(np.array([thr << 11], dtype=np.uint64), rate)[0]

    @pytest.mark.parametrize(
        "rate", [0.0, -0.0, -0.5, float("nan"), 1.0, 1.5, float("inf"), float("-inf")]
    )
    def test_edge_rates(self, rate):
        from repro.sim.vec import _fires

        raw = np.random.default_rng(3).bit_generator.random_raw(4096)
        raw[:3] = [0, 1 << 63, (1 << 64) - 1]
        assert np.array_equal(_fires(raw, rate), self._float_fires(raw, rate))

    def test_random_words(self):
        from repro.sim.vec import _fires

        raw = np.random.default_rng(11).bit_generator.random_raw(200_000)
        for rate in np.random.default_rng(12).random(50):
            assert np.array_equal(_fires(raw, rate), self._float_fires(raw, rate))
