"""The four benchmark workloads, and the child process that times one run.

Each workload makes the same public calls, in the same order, as the
``repro`` CLI command it mirrors (see ``README.md`` in this directory).
The child is a fresh interpreter, so import time, the routing-table
cache, the ``compile_network`` memo and the recovery memo all start cold,
as they do for a user.  Run it through ``run.py``; by hand::

    PYTHONPATH=src python3 perfbench/workloads.py --input-seed frac2-faults 0
    PYTHONPATH=src python3 perfbench/workloads.py frac2-faults 1197030109 0 0

The first prints the program seed for ``--seed 0``.  The second's
arguments are workload, program seed, launch time in
``time.monotonic_ns`` (0 for "now") and traced 0/1.  It prints one JSON
object: timings, the output digest and invariant violations of every
operation and, when traced, the spans and per-layer figures.
"""

import time

T_MAIN = time.monotonic_ns()

import os  # noqa: E402
import sys  # noqa: E402

#: Workload parameters.  ``ops`` is the number of checked operations one
#: child run performs (one simulation, one sweep point, one recovery
#: episode each).
WORKLOADS = {
    "frac4-cold": {
        "kind": "simulate", "levels": 4, "rate": 0.002, "cycles": 1200, "ops": 1,
    },
    "frac3-steady": {
        "kind": "simulate", "levels": 3, "rate": 0.005, "cycles": 6000, "ops": 1,
    },
    "frac2-sweep": {
        "kind": "sweep", "levels": 2, "cycles": 3000, "ops": 16,
        "rates": tuple(round(0.002 * (i + 1), 3) for i in range(16)),
    },
    "frac2-faults": {
        "kind": "faults", "levels": 2, "rate": 0.005, "cycles": 3000, "ops": 1,
        "faults": 2, "repair_cycle": 2000,
    },
}

PACKET_SIZE = 8


def _build(levels: int):
    """``repro.cli._build`` for ``fat_fractahedron --param levels=L
    --param fanout_width=2``, through the same public registry calls."""
    from repro.topology.registry import build_topology, coerce_params

    params = coerce_params(
        "fat_fractahedron", {"levels": str(levels), "fanout_width": "2"}
    )
    return build_topology("fat_fractahedron", **params)


def input_seed(workload: str, seed: int, attempt: int = 0) -> int:
    """A candidate program seed for ``--seed seed`` (a pure function)."""
    import hashlib

    h = hashlib.sha256(f"{workload}|{seed}|{attempt}".encode()).digest()
    return int.from_bytes(h[:4], "big") & 0x7FFFFFFF


def needs_full_ladder(w, seed: int, net=None) -> bool:
    """Does the fault set ``simulate_with_recovery`` draws for ``seed``
    take the whole recovery ladder, and end certified?

    True when shortest-path routing around the failed cables does not
    certify and the ladder's last algorithm (up*/down*) does.  The draw
    is the one the program makes.  This runs the ladder once, in the
    throwaway process that picks the seed.
    """
    import numpy as np

    from repro.sim.fault import random_cable_schedule
    from repro.sim.parallel import derive_seed
    from repro.sim.recovery import RECOVERY_ALGORITHMS, recompute_recovery_tables

    net = net or _build(w["levels"])
    at = w["cycles"] // 4
    schedule = random_cable_schedule(
        net, w["faults"], np.random.default_rng(derive_seed(seed, "faults", w["faults"])),
        at_cycle=at, repair_at=w["repair_cycle"],
    )
    recovered = recompute_recovery_tables(net, schedule.down_links(at))
    return recovered.certified and recovered.algorithm == RECOVERY_ALGORITHMS[-1]


def program_seed(workload: str, seed: int) -> int:
    """The program seed a run with ``--seed seed`` uses.

    ``frac2-faults`` measures the whole recovery ladder, so it takes the
    first candidate whose fault set needs it (see :func:`needs_full_ladder`).
    Two cable faults can cut off a fan-out router; then no routing exists
    and the episode rightly reports "not certified".  On about 1 fault set
    in 24, shortest-path tables certify at once and the ladder does a third
    less work.  Both are other questions than the one this workload asks,
    and letting the seed pick them would make its cost depend on the seed.
    """
    w = WORKLOADS[workload]
    if w["kind"] != "faults":
        return input_seed(workload, seed)
    net = _build(w["levels"])
    for attempt in range(1000):
        s = input_seed(workload, seed, attempt)
        if needs_full_ladder(w, s, net):
            return s
    raise RuntimeError("no fault set in 1000 draws needs the whole ladder")


def _front(tr, w):
    """Build, route and compile: the stages every workload shares.

    ``compile_network`` is memoized per network, so calling it here
    before the engine is made moves its cost into its own span without
    adding work.
    """
    from repro.routing.cache import cached_tables
    from repro.sim.compile import compile_network

    with tr.span("topology.build"):
        net = _build(w["levels"])
    with tr.span("routing.tables"):
        tables = cached_tables(net)
    with tr.span("sim.compile"):
        compile_network(net, 1)
    return net, tables


def run_simulate(tr, w, seed):
    """``repro simulate fat_fractahedron --param levels=L --param
    fanout_width=2 --rate R --cycles C --seed S``."""
    with tr.span("cli.import"):
        import repro.cli  # noqa: F401  (the `python -m repro` entry module)
        from repro.experiments.future_simulation import simulate_load_point
        from repro.routing.cache import cached_tables  # noqa: F401
        from repro.sim.engine import SimConfig  # noqa: F401
        from repro.topology.registry import build_topology  # noqa: F401
    net, tables = _front(tr, w)
    with tr.span("cli.command"):
        point = simulate_load_point(
            net, tables, rate=w["rate"], cycles=w["cycles"],
            packet_size=PACKET_SIZE, seed=seed, engine="auto",
        )
    return point


def run_sweep(tr, w, seed):
    """``repro sweep fat_fractahedron --param levels=2 --param
    fanout_width=2 --rates 0.002,...,0.032 --cycles C --jobs 1 --seed S``."""
    with tr.span("cli.import"):
        import repro.cli  # noqa: F401
        from repro.routing.cache import cached_tables  # noqa: F401
        from repro.sim.parallel import SweepRunner
        from repro.sim.sweep import find_saturation  # noqa: F401
        from repro.topology.registry import build_topology  # noqa: F401
    net, tables = _front(tr, w)
    with tr.span("sweep.runner"):
        runner = SweepRunner(1)
        points = runner.latency_curve(
            (net, tables), w["rates"], cycles=w["cycles"],
            packet_size=PACKET_SIZE, seed=seed, switching="wormhole",
            engine="auto", sample_interval=0,
        )
    return points


def run_faults(tr, w, seed):
    """``repro simulate fat_fractahedron --param levels=2 --param
    fanout_width=2 --rate R --cycles C --faults 2 --repair-cycle 2000
    --retry --reroute --seed S``."""
    with tr.span("cli.import"):
        import repro.cli  # noqa: F401
        from repro.routing.cache import cached_tables  # noqa: F401
        from repro.sim.engine import ReroutePolicy, RetryPolicy, SimConfig  # noqa: F401
        from repro.sim.recovery import simulate_with_recovery
        from repro.topology.registry import build_topology  # noqa: F401
    net, tables = _front(tr, w)
    with tr.span("cli.command"):
        # the CLI's flag defaults
        retry = RetryPolicy(timeout=64, backoff=2.0, max_retries=3)
        reroute = ReroutePolicy(detection_delay=32, reconvergence_delay=64)
        result = simulate_with_recovery(
            net, tables, rate=w["rate"], cycles=w["cycles"],
            packet_size=PACKET_SIZE, seed=seed, faults=w["faults"],
            repair_cycle=w["repair_cycle"], retry=retry, reroute=reroute,
            failover=False, engine="auto", probe=None,
        )
    return result


RUNNERS = {"simulate": run_simulate, "sweep": run_sweep, "faults": run_faults}


# ----------------------------------------------------------------------
# output checks (after the answer is ready; never timed)
# ----------------------------------------------------------------------
def digest(obj) -> str:
    """sha256 of a canonical JSON rendering of ``obj``."""
    import hashlib
    import json

    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def stats_violations(stats) -> list[str]:
    """Invariants every finished run must satisfy, whatever the seed."""
    out = []
    if stats.packets_delivered > stats.packets_offered:
        out.append(
            f"delivered {stats.packets_delivered} > offered {stats.packets_offered}"
        )
    if stats.in_order_violations:
        out.append(f"{len(stats.in_order_violations)} in-order violation(s)")
    if stats.deadlocked:
        out.append(f"deadlock at cycle {stats.deadlock_at}")
    return out


def recovery_violations(result, expected_reroutes: int) -> list[str]:
    """The recovery episode's verdicts: every swap certified, no deadlock."""
    out = []
    if result["deadlocked"]:
        out.append("recovery episode deadlocked")
    if not result["recovered_acyclic"]:
        out.append("recovered tables not certified acyclic")
    if result["reroutes"] != expected_reroutes:
        out.append(f"{result['reroutes']} reroutes, expected {expected_reroutes}")
    for e in result["reroute_events"]:
        if e["swapped_at"] is not None and not (e["acyclic"] and e["deliverable"]):
            out.append(f"uncertified table swapped in at cycle {e['swapped_at']}")
    if result["delivered"] > result["offered"]:
        out.append("delivered > offered")
    return out


def check_ops(w, tr, answer) -> tuple[list[dict], list]:
    """Per-operation digests and invariant violations, plus the SimStats
    of every simulated replica (for the cycle and flit-hop counts)."""
    from dataclasses import asdict

    from repro.obs.parity import stats_signature

    ops: list[dict] = []
    if w["kind"] == "sweep":
        results = tr.batches[-1]
        stats = [r.stats for r in results]
        for rate, point, res in zip(w["rates"], answer, results):
            bad = stats_violations(res.stats)
            if point.offered_rate != rate:
                bad.append(f"point for rate {point.offered_rate}, expected {rate}")
            ops.append({
                "digest": digest({"point": asdict(point), "stats": stats_signature(res)}),
                "violations": bad,
            })
        return ops, stats
    sim = tr.sims[-1]
    bad = stats_violations(sim.stats)
    if w["kind"] == "faults":
        # one detection per fault transition (fail, then repair), each
        # answered by a certified table swap
        bad += recovery_violations(answer, expected_reroutes=2)
        payload = {"result": answer, "stats": stats_signature(sim)}
    else:
        if answer["deadlocked"] or answer["order_violations"]:
            bad.append("load point reports deadlock or order violations")
        payload = {"point": answer, "stats": stats_signature(sim)}
    ops.append({"digest": digest(payload), "violations": bad})
    return ops, [sim.stats]


def layer_figures(tr, stats, wall_s: float) -> dict[str, float]:
    """Per-layer self times, peak-RSS growth and counters of a traced run."""
    from repro.routing.cache import DEFAULT_CACHE

    selfs = tr.self_seconds()
    cache = DEFAULT_CACHE.stats
    cycles = sum(s.cycles for s in stats)
    hops = sum(sum(s.link_flits.values()) for s in stats)
    run_s = selfs.get("sim.run", 0.0)
    memo = {}
    if "repro.sim.recovery" in sys.modules:
        # cold per process, so it holds exactly this run's ladder attempts
        memo = sys.modules["repro.sim.recovery"]._RECOVERY_MEMO
    attempts = len(memo)
    certified = sum(1 for r in memo.values() if r.certified)
    out = {
        f"{name}_s": selfs.get(name, 0.0)
        for name in (
            "proc.startup", "cli.import", "cli.command", "topology.build",
            "routing.tables", "routing.fingerprint", "sim.compile",
            "sim.engine_setup", "sim.run", "sim.finalize", "sweep.runner",
            "sweep.batch", "sweep.summary", "deadlock.certify",
            "recovery.recompute",
        )
    }
    for name in ("cli.import", "routing.tables", "sim.engine_setup", "sim.run"):
        out[f"{name}_rss_mb"] = tr.rss_growth_mb(name)
    out.update({
        "routing.fingerprint_calls": len(tr.named("routing.fingerprint")),
        "routing.cache_hits": cache.hits,
        "routing.cache_misses": cache.misses,
        "routing.fragment_hits": cache.fragment_hits,
        "sim.us_per_cycle": run_s / cycles * 1e6 if cycles else 0.0,
        "sim.ns_per_flit_hop": run_s / hops * 1e9 if hops else 0.0,
        "sim.cycles": cycles,
        "sim.flit_hops": hops,
        "sim.packets_offered": sum(s.packets_offered for s in stats),
        "sim.packets_delivered": sum(s.packets_delivered for s in stats),
        "sweep.replicas": sum(tr.batch_widths),
        "deadlock.certify_calls": len(tr.named("deadlock.certify")),
        "recovery.ladder_attempts": attempts,
        "recovery.certified_ratio": certified / attempts if attempts else 0.0,
        "trace.wall_s": wall_s,
    })
    return out


def child_main(argv: list[str]) -> int:
    workload, seed, launch_ns, traced = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1"
    launch_ns = launch_ns or T_MAIN
    w = WORKLOADS[workload]
    from spans import Tracer, install_hooks, peak_rss_kb

    tr = Tracer(detailed=traced)
    tr.add_span("proc.startup", launch_ns, T_MAIN)
    install_hooks(tr)

    answer = RUNNERS[w["kind"]](tr, w, seed)
    t_answer = time.monotonic_ns()
    peak_mb = peak_rss_kb() / 1024.0

    runs = tr.outermost("sim.run")
    ops, stats = check_ops(w, tr, answer)
    out = {
        "wall_s": (t_answer - launch_ns) / 1e9,
        "setup_s": (runs[0].start - launch_ns) / 1e9,
        "run_s": sum(s.end - s.start for s in runs) / 1e9,
        "cycles": sum(s.cycles for s in stats),
        "peak_rss_mb": peak_mb,
        "ops": ops,
    }
    if traced:
        out["layers"] = layer_figures(tr, stats, out["wall_s"])
        out["spans"] = [s.as_dict() for s in tr.spans]
        out["answer_ns"] = t_answer
        out["launch_ns"] = launch_ns
    import json

    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    if sys.argv[1] == "--input-seed":
        print(program_seed(sys.argv[2], int(sys.argv[3])))
        sys.exit(0)
    code = child_main(sys.argv[1:])
    # skip interpreter teardown (freeing a 1 GB heap object by object);
    # the result is already written and no file is left open
    os._exit(code)
