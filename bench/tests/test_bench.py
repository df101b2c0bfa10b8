"""Tests of the benchmark itself: its checks, its tracer and its runs.

Run from the repository root: ``python3 -m pytest bench/tests``.
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parents[2]
SCALE = 0.01
ALPHABET = {int(k): v for k, v in json.loads(workloads.ALPHABET_PATH.read_text()).items()}


@pytest.fixture(scope="module")
def cli():
    return run.load_program()


def warm_round(cli, workload, seed=5):
    commands = workloads.build(workload, seed, SCALE)
    return commands, run.run_round(cli, commands, keep_outputs=True)


def first(commands, kind, fmt=None):
    return next(i for i, c in enumerate(commands) if c.kind == kind and fmt in (None, c.fmt))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_small_workloads_pass_their_checks(cli, workload):
    commands, warm = warm_round(cli, workload)
    verdicts, failed, correct, problems = run.judge(commands, warm, [], None)
    assert correct, problems
    assert all(v.ok for v in verdicts), problems


@pytest.mark.parametrize(
    ("workload", "kind", "fmt"),
    [
        ("big_tree", "sample", "prefix"),
        ("fuzz_render", "sample", "sexpr"),
        ("fuzz_render", "sample", "json"),
        ("fuzz_render", "sample", "dot"),
        ("fuzz_render", "fuzz", "prefix"),
        ("fuzz_render", "fuzz", "infix"),
        ("oracle", "enumerate", "prefix"),
        ("oracle", "count", None),
        ("oracle", "check", None),
        ("many_small", "stats", None),
    ],
)
def test_a_corrupted_byte_is_a_failure(cli, workload, kind, fmt):
    commands, warm = warm_round(cli, workload)
    index = first(commands, kind, fmt)
    out, err = warm.outputs[index]
    assert checks.verdict(commands[index], warm.exit_codes[index], out, err, ALPHABET).ok
    # swap one digit for another
    position = next(i for i, ch in enumerate(out) if ch.isdigit())
    corrupted = out[:position] + ("1" if out[position] != "1" else "2") + out[position + 1 :]
    assert not checks.verdict(commands[index], warm.exit_codes[index], corrupted, err, ALPHABET).ok

    warm.outputs[index] = (corrupted, err)
    _, failed, correct, _ = run.judge(commands, warm, [], None)
    assert failed == 1 and not correct


def test_an_unexpected_exit_code_is_a_failure(cli):
    commands, warm = warm_round(cli, "oracle")
    for index, command in enumerate(commands):
        out, err = warm.outputs[index]
        assert checks.verdict(command, warm.exit_codes[index], out, err, ALPHABET).ok
        assert not checks.verdict(command, warm.exit_codes[index] + 1, out, err, ALPHABET).ok


def test_a_changed_later_round_is_a_failure(cli):
    commands, warm = warm_round(cli, "many_small")
    later = run.run_round(cli, commands)
    later.digests[3] = "0" * 64
    _, failed, correct, problems = run.judge(commands, warm, [later], None)
    assert failed == 1 and not correct and "differs from the warm-up" in problems[0]


def test_times_are_scaled_by_the_reference():
    ref = run.REFERENCE_S
    slow = run.Round(False, latencies=[0.2, 0.4], references=[2 * ref, 4 * ref], command_references=[2 * ref, 4 * ref])
    fast = run.Round(False, latencies=[0.1, 0.1], references=[ref], command_references=[ref, ref])
    # a round is scaled by its mean reference time
    assert run.scaled_walls([slow, fast]) == pytest.approx([0.2, 0.2])
    # an execution is scaled by the latest reference time before it
    assert run.scaled_latencies([slow, fast]) == pytest.approx([0.1, 0.1])


def test_long_counts_are_the_known_defect():
    counts = workloads.mix(60_000, 0.2, 0.1)
    command = workloads.Command(("count", "--degrees", workloads.degree_spec(counts)), "count", counts, 60_000)
    err = "degtree: error: Exceeds the limit (4300 digits) for integer string conversion\n"
    v = checks.verdict(command, 1, "", err, ALPHABET)
    assert not v.ok and v.known_defect
    assert not checks.verdict(command, 1, "", "degtree: error: something else\n", ALPHABET).known_defect


@pytest.mark.parametrize("counts", [{0: 3, 2: 2}, {0: 4, 1: 1, 2: 1, 3: 1}, {0: 2, 1: 2, 2: 1}, {0: 1, 1: 4}])
def test_reference_count_matches_brute_force(counts):
    sequence = [d for d, m in counts.items() for _ in range(m)]
    trees = set()
    for perm in set(itertools.permutations(sequence)):
        try:
            checks.check_code(list(perm), counts)
        except checks.CheckFailed:
            continue
        trees.add(perm)
    assert checks.reference_count(counts) == len(trees)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_digests_agree(cli, workload):
    import degtree.cli
    import degtree.sampling

    commands, warm = warm_round(cli, workload)
    originals = (degtree.sampling.sample_tree, degtree.cli.sample_tree, degtree.cli.main)
    tracer = Tracer()
    executions = []
    traced = run.run_round(cli, commands, tracer=tracer, executions=executions)
    assert traced.digests == warm.digests
    assert traced.exit_codes == warm.exit_codes
    assert (degtree.sampling.sample_tree, degtree.cli.sample_tree, degtree.cli.main) == originals
    table = tracer.table()
    assert len(executions) == len(commands)
    roots = table["parent"] < 0
    assert {tracer.names[i] for i in table["name"][roots]} == {"cli.main"}
    assert (table["self"] >= -1e-9).all()


def test_names_rebound_by_import_are_traced(cli):
    import degtree.cli
    import degtree.oracle
    import degtree.stats

    tracer = Tracer()
    tracer.install()
    try:
        for module, name in [(degtree.cli, "sample_tree"), (degtree.stats, "enumerate_trees"), (degtree.oracle, "is_well_formed")]:
            assert hasattr(getattr(module, name), "__wrapped__"), (module.__name__, name)
    finally:
        tracer.uninstall()
    assert not hasattr(degtree.cli.sample_tree, "__wrapped__")


def bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
def test_a_smoke_run_finishes_in_seconds(trace):
    spec = bench_json()
    argv = [sys.executable, "bench/run.py", "--workload", "many_small", "--seed", "2", "--seconds", "0.2", "--trace", str(trace), "--scale", str(SCALE)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = spec["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    argv = [sys.executable, "bench/run.py", "--workload", "big_tree", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
