"""The benchmark's own tests: output checks, metric names, trace accounting.

Run from the repository root with ``python3 -m pytest perfbench -q``.
The last three tests start real child runs and take about a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_metric_and_workload_names_match_benchmark_json():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_end_to_end_takes_the_host_slowdown_out_of_the_times():
    rep = {"wall_s": 2.0, "setup_s": 0.5, "run_s": 1.0, "cycles": 1000, "peak_rss_mb": 90.0}
    quiet = [dict(rep, cal=[run.CAL_REF_S] * 4)] * 3
    slow = [
        dict(rep, wall_s=3.0, setup_s=0.75, run_s=1.5, cal=[1.5 * run.CAL_REF_S] * 4)
    ] * 3
    assert run.end_to_end(quiet) == {
        "wall_s": 2.0, "setup_s": 0.5, "sim_cycles_per_s": 1000.0, "peak_rss_mb": 90.0,
    }
    assert run.end_to_end(slow) == pytest.approx(run.end_to_end(quiet))


def _ok_op(digest="d0"):
    return {"digest": digest, "violations": []}


def test_corrupted_digest_is_a_failed_op():
    result = {"ops": [_ok_op("aaa"), _ok_op("bbb")]}
    assert run.failed_ops(result, 2, ["aaa", "bbb"]) == []
    reasons = run.failed_ops(result, 2, ["aaa", "bbX"])
    assert len(reasons) == 1 and "digest" in reasons[0]
    # no digest recorded for these inputs: only the invariants decide
    assert run.failed_ops(result, 2, None) == []


def test_corrupted_verdict_is_a_failed_op_even_with_matching_digest():
    episode = {
        "deadlocked": False, "recovered_acyclic": True, "reroutes": 2,
        "delivered": 10, "offered": 10,
        "reroute_events": [
            {"swapped_at": 800, "acyclic": True, "deliverable": True},
            {"swapped_at": 2100, "acyclic": True, "deliverable": True},
        ],
    }
    assert workloads.recovery_violations(episode, expected_reroutes=2) == []
    corrupted = dict(episode, recovered_acyclic=False, reroutes=1)
    corrupted["reroute_events"] = [dict(episode["reroute_events"][0], acyclic=False)]
    violations = workloads.recovery_violations(corrupted, expected_reroutes=2)
    assert len(violations) == 3  # verdict, reroute count, uncertified swap
    result = {"ops": [{"digest": "same", "violations": violations}]}
    assert len(run.failed_ops(result, 1, ["same"])) == 1


def test_crashed_or_short_child_fails_every_missing_op():
    assert len(run.failed_ops({"crashed": "boom"}, 16, None)) == 16
    assert len(run.failed_ops({"ops": [_ok_op()]}, 16, None)) == 15


def test_inputs_are_a_function_of_the_seed():
    a = [workloads.input_seed("frac2-sweep", n) for n in range(4)]
    assert a == [workloads.input_seed("frac2-sweep", n) for n in range(4)]
    assert len(set(a)) == 4
    assert a != [workloads.input_seed("frac3-steady", n) for n in range(4)]


def test_fault_seeds_take_the_whole_recovery_ladder():
    sys.path.insert(0, str(HERE.parent / "src"))
    w = workloads.WORKLOADS["frac2-faults"]
    net = workloads._build(w["levels"])
    assert workloads.needs_full_ladder(w, workloads.program_seed("frac2-faults", 0), net)
    # candidates that are skipped: the first one for --seed 2 cuts off a
    # router, so no routing exists; its fourth certifies shortest-path
    # tables at once, so the ladder stops early
    for attempt in (0, 3):
        candidate = workloads.input_seed("frac2-faults", 2, attempt)
        assert not workloads.needs_full_ladder(w, candidate, net)


def _run(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_run_prints_every_end_to_end_metric_by_name_and_checks_digests():
    lines, result = _run("--workload", "frac2-faults", "--seed", "0", "--seconds", "1")
    names = [n for n, _, _ in run.END_TO_END]
    assert list(result["metrics"]) == names
    for name, unit, _ in run.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert any(line.split()[:1] == [name] and line.endswith(unit) for line in lines)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 3
    assert "ops 3" in lines and "ops_failed 0" in lines


def test_traced_run_on_a_held_out_seed_reports_every_layer():
    assert "4242" not in json.loads(run.DIGESTS.read_text())["frac2-faults"]
    _, result = _run(
        "--workload", "frac2-faults", "--seed", "4242", "--seconds", "1", "--trace", "1"
    )
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [n for n, _ in run.PER_LAYER]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["deadlock.certify_calls"] >= 2 and m["recovery.certified_ratio"] > 0
    assert m["sim.cycles"] > 0 and m["sweep.replicas"] == 0


@pytest.mark.parametrize("workload", ["frac2-sweep"])
def test_top_level_spans_add_up_to_wall_within_overhead(workload):
    env = run.child_env()
    seed = run.resolve_input_seed(workload, 0, env)
    plain = run.run_child(workload, seed, False, env, 120)
    traced = run.run_child(workload, seed, True, env, 120)
    top = [s for s in traced["spans"] if s["parent"] < 0]
    assert top[0]["name"] == "proc.startup"
    assert top[0]["start_ns"] == traced["launch_ns"]
    covered = sum(s["end_ns"] - s["start_ns"] for s in top) / 1e9
    gap = traced["wall_s"] - covered
    overhead = traced["wall_s"] - plain["wall_s"]
    # what no top-level span covers is the benchmark's own code between
    # spans (hook installation): within the measured overhead, or 50 ms
    assert 0 <= gap <= max(overhead, 0.05)
    # spans never overlap and end by the time the answer is ready
    for a, b in zip(top, top[1:]):
        assert a["end_ns"] <= b["start_ns"]
    assert top[-1]["end_ns"] <= traced["answer_ns"]
    assert traced["ops"] and not any(op["violations"] for op in traced["ops"])
