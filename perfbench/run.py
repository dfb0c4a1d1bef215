"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload frac2-sweep --seed 0 --seconds 30 --trace 0

Each repetition is a fresh child interpreter (``workloads.py``) that
times one run of the workload from its own launch.  Repetitions go on
until ``--seconds`` would be exceeded (at least :data:`MIN_REPS`, at most
:data:`MAX_REPS`).  Every repetition runs the same inputs, made from
``(workload, --seed)``, so the same ``--seed`` always replays them.
Repetitions take the cores in turn, and a calibration loop runs on the
same core just before and after each one.

``--trace 0`` prints the end-to-end metrics: medians over repetitions,
with times scaled to a reference host speed by the calibration loop
(see :func:`end_to_end` and "Steadiness" in ``README.md``).
``--trace 1`` runs every repetition twice, untraced and traced, prints the
per-layer metrics (medians over traced runs) with the tracing overhead
against the untraced runs, and writes every span to
``.bench_build/perfbench/``.  Every operation's output is checked (see
``README.md``); the last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

MIN_REPS = 3
MAX_REPS = 60
#: calibration samples taken before, and again after, each repetition
CAL_SAMPLES = 25
#: seconds one calibration sample takes on the reference host: the
#: 2-vCPU Xeon VM the bounds were set on, with its cores quiet
CAL_REF_S = 0.005
#: seconds one child may take before it is killed and its ops fail
CHILD_TIMEOUT = 120
DIGESTS = HERE / "digests.json"

#: (name, unit, better) -- must equal BENCHMARK.json's lists
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("sim_cycles_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]
PER_LAYER = [
    ("proc.startup_s", "s"),
    ("cli.import_s", "s"),
    ("cli.import_rss_mb", "MB"),
    ("cli.command_s", "s"),
    ("topology.build_s", "s"),
    ("routing.tables_s", "s"),
    ("routing.tables_rss_mb", "MB"),
    ("routing.fingerprint_s", "s"),
    ("routing.fingerprint_calls", "count"),
    ("routing.cache_hits", "count"),
    ("routing.cache_misses", "count"),
    ("routing.fragment_hits", "count"),
    ("sim.compile_s", "s"),
    ("sim.engine_setup_s", "s"),
    ("sim.engine_setup_rss_mb", "MB"),
    ("sim.run_s", "s"),
    ("sim.run_rss_mb", "MB"),
    ("sim.us_per_cycle", "us"),
    ("sim.ns_per_flit_hop", "ns"),
    ("sim.cycles", "count"),
    ("sim.flit_hops", "count"),
    ("sim.packets_offered", "count"),
    ("sim.packets_delivered", "count"),
    ("sim.finalize_s", "s"),
    ("sweep.runner_s", "s"),
    ("sweep.batch_s", "s"),
    ("sweep.summary_s", "s"),
    ("sweep.replicas", "count"),
    ("deadlock.certify_s", "s"),
    ("deadlock.certify_calls", "count"),
    ("recovery.recompute_s", "s"),
    ("recovery.ladder_attempts", "count"),
    ("recovery.certified_ratio", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
]


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------
def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # one thread per process: the figures are for a single-core run
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def resolve_input_seed(workload: str, seed: int, env: dict) -> int:
    """The program seed for ``--seed seed``, made in a throwaway process.

    The fault workload needs the program to pick its seed, and a child
    inherits its parent's peak RSS across ``exec``; keeping program
    imports out of this process keeps them out of every child's figure.
    """
    proc = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), "--input-seed", workload, str(seed)],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT,
    )
    return int(proc.stdout)


def run_child(workload: str, seed: int, traced: bool, env: dict, timeout: float) -> dict:
    """One timed child run; ``{"crashed": reason}`` when it gave no result."""
    cmd = [sys.executable, str(HERE / "workloads.py"), workload, str(seed)]
    launch = time.monotonic_ns()
    try:
        proc = subprocess.run(
            cmd + [str(launch), "1" if traced else "0"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"crashed": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"crashed": proc.stderr.strip()[-2000:] or f"exit {proc.returncode}"}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"crashed": "no JSON result"}


def calibration_sample() -> float:
    """Seconds a fixed piece of interpreter work takes on this core now.

    Pure Python, like most of the program's time, and no imports, so
    this process stays small (a child's peak RSS starts from it).
    """
    t = time.perf_counter()
    acc, table = 0, {}
    for i in range(40000):
        acc = (acc * 31 + i) % 1000003
        table[i & 255] = acc
    return time.perf_counter() - t


# ----------------------------------------------------------------------
# checks and aggregation
# ----------------------------------------------------------------------
def failed_ops(result: dict, n_ops: int, expected: list[str] | None) -> list[str]:
    """Why each failed operation of one child run failed.

    An operation fails when the child crashed, when an invariant does not
    hold, or when a digest was recorded for its inputs and differs.
    """
    if "crashed" in result:
        return [f"crashed: {result['crashed']}"] * n_ops
    ops = result.get("ops", [])
    reasons = []
    for i in range(n_ops):
        if i >= len(ops):
            reasons.append(f"op {i}: missing")
            continue
        op = ops[i]
        if op["violations"]:
            reasons.append(f"op {i}: " + "; ".join(op["violations"]))
        elif expected is not None and (i >= len(expected) or op["digest"] != expected[i]):
            reasons.append(f"op {i}: output digest differs from the recorded one")
    return reasons


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def host_scale(result: dict) -> float:
    """How much faster the reference host is than this one was around one
    repetition: ``CAL_REF_S`` over its median calibration sample."""
    return CAL_REF_S / median(result["cal"])


def end_to_end(results: list[dict]) -> dict[str, float]:
    """The end-to-end metrics: medians over a run's untraced repetitions.

    Other tenants of the host slow its cores by up to 1.5x, in spells
    from a fraction of a second to minutes, so the same repetition can
    take 40% longer a minute later.  The calibration samples taken around
    a repetition see the same slowdown, and :func:`host_scale` takes it
    out of that repetition's times: they are seconds on the reference host.
    """
    k = [host_scale(r) for r in results]
    return {
        "wall_s": median([r["wall_s"] * f for r, f in zip(results, k)]),
        "setup_s": median([r["setup_s"] * f for r, f in zip(results, k)]),
        "sim_cycles_per_s": median(
            [r["cycles"] / r["run_s"] / f for r, f in zip(results, k)]
        ),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in results]),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    names = [n for n, _ in PER_LAYER if n != "trace.overhead_s"]
    out = {n: median([r["layers"][n] for r in traced]) for n in names}
    out["trace.overhead_s"] = out["trace.wall_s"] - median([r["wall_s"] for r in untraced])
    return out


def write_spans(workload: str, seed: int, traced: list[dict]) -> Path:
    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps(
        [{"rep": r["rep"], "spans": r["spans"]} for r in traced]
    ))
    return path


def print_layers(r: dict) -> None:
    """A waterfall of one traced run's top-level spans."""
    t0 = r["launch_ns"]
    print(f"  traced rep {r['rep']}: top-level spans (start, duration, peak RSS after)")
    for s in r["spans"]:
        if s["parent"] < 0:
            print(
                f"    {s['name']:18s} {(s['start_ns'] - t0) / 1e9:8.3f} s "
                f"{(s['end_ns'] - s['start_ns']) / 1e9:8.3f} s "
                f"{s['peak_rss_kb_end'] / 1024:9.1f} MB"
            )


# ----------------------------------------------------------------------
def compile_sources() -> None:
    """Byte-compile the program once, so no timed child pays for it."""
    import compileall

    compileall.compile_dir(str(ROOT / "src" / "repro"), quiet=1)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--record", action="store_true",
        help="run all repetitions and write this seed's output digests to "
        "digests.json instead of checking them",
    )
    args = p.parse_args(argv)

    start = time.monotonic()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    compile_sources()
    env = child_env()
    seed = resolve_input_seed(args.workload, args.seed, env)
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    expected = None if args.record else digests.get(args.workload, {}).get(str(args.seed))
    print(f"  {args.workload} --seed {args.seed}: input seed {seed}")

    untraced: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    rep_seconds: list[float] = []
    seen_digests: set[tuple[str, ...]] = set()
    modes = (False, True) if args.trace else (False,)
    # One core can stay slow for tens of seconds while the other is not,
    # so repetitions take the cores in turn.  A child inherits this
    # process's core.
    cpus = sorted(os.sched_getaffinity(0))
    for rep in range(MAX_REPS):
        elapsed = time.monotonic() - start
        if rep >= MIN_REPS and (
            args.record or elapsed + median(rep_seconds) > args.seconds
        ):
            break
        t_rep = time.monotonic()
        os.sched_setaffinity(0, {cpus[rep % len(cpus)]})
        for is_traced in modes:
            cal = [calibration_sample() for _ in range(CAL_SAMPLES)]
            r = run_child(args.workload, seed, is_traced, env, CHILD_TIMEOUT)
            cal += [calibration_sample() for _ in range(CAL_SAMPLES)]
            r["rep"] = rep
            r["cal"] = cal
            reasons = failed_ops(r, w["ops"], expected)
            attempted += w["ops"]
            failed += len(reasons)
            for why in reasons:
                print(f"  FAILED rep {rep}: {why}", file=sys.stderr)
            if "crashed" in r:
                continue
            if not reasons:
                seen_digests.add(tuple(op["digest"] for op in r["ops"]))
            (traced if is_traced else untraced).append(r)
            print(
                f"  rep {rep:2d} {'traced' if is_traced else '      '}"
                f"  wall {r['wall_s']:7.3f} s  setup {r['setup_s']:7.3f} s"
                f"  {r['cycles'] / r['run_s']:10.1f} cycles/s  peak {r['peak_rss_mb']:8.1f} MB"
                f"  calibration {median(cal) * 1e3:6.3f} ms"
            )
        rep_seconds.append(time.monotonic() - t_rep)

    if not untraced or (args.trace and not traced):
        print("no child run produced a result", file=sys.stderr)
        return 1
    if args.record:
        if failed or len(seen_digests) != 1:
            print("outputs failed or differ between repetitions; nothing recorded",
                  file=sys.stderr)
            return 1
        digests.setdefault(args.workload, {})[str(args.seed)] = list(seen_digests.pop())
        DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(f"recorded the output digests of --seed {args.seed} in {DIGESTS.name}")

    if args.trace:
        values = per_layer(traced, untraced)
        units = dict(PER_LAYER)
        print_layers(traced[0])
        print(f"  spans written to {write_spans(args.workload, args.seed, traced)}")
    else:
        values = end_to_end(untraced)
        units = {n: u for n, u, _ in END_TO_END}
        scales = [host_scale(r) for r in untraced]
        print(f"  times scaled to the reference host by {min(scales):.4f} to {max(scales):.4f}")
    for name, value in values.items():
        print(f"{name:28s} {value:14.6f} {units[name]}")
    print(f"ops {attempted}")
    print(f"ops_failed {failed}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
