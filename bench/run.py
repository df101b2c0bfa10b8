"""End-to-end and per-layer benchmark of the ``degtree`` CLI.

Run from the repository root:

    python3 bench/run.py --workload big_tree --seed 1 --seconds 25 --trace 0

Tests of the benchmark itself: ``python3 -m pytest bench/tests``.

A workload (see ``workloads.py``) is a fixed list of CLI commands built
from ``--seed``.  The commands run one at a time, in this process, through
``degtree.cli.main(argv)``: a closed loop with one client and no threads,
because a CLI caller waits for its output.  Stdout and stderr go to an
in-memory sink.

One untimed warm-up round runs first and its outputs are kept; then timed
rounds of the whole list repeat until ``--seconds`` have passed, with the
fifteen interpreter spawns that time ``setup_s`` spread between them.
Every 20 ms of commands a fixed pure-Python reference workload is timed, and
the command times of each round are scaled to a CPU on which that
workload takes ``REFERENCE_S`` (see ``end_to_end``).  After the rounds,
the warm-up outputs are checked by ``checks.py`` and every later round
must reproduce their sha256 digests; for ``--seed 1`` the digests
are also pinned in ``pinned.json``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced rounds, reports the per-layer metrics from the spans
of ``tracing.py``, requires traced digests to equal untraced ones, and
writes the spans to ``bench/out/spans-<workload>.npz``.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the run record
(versions, machine, commit, seed, per-metric sample counts and quartiles,
failures).  The exit code is 0 whenever a result was printed, and 2 when
the program under test cannot be found or imported.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import workloads
from tracing import LAYERS, Tracer, log_log_slope

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
PINNED = BENCH_DIR / "pinned.json"

DEFAULT_SEED = 1
SETUP_SPAWNS = 15
# Per-command latency percentiles need ten samples beyond them.
P90_MIN_SAMPLES = 100
# Spans of more rounds than this would only cost memory.
MAX_TRACED_ROUNDS = 5
# Command times are reported as on a CPU that runs ``reference_loop`` in
# exactly this many seconds.
REFERENCE_S = 0.003
_REFERENCE_INTS = list(range(1_000_000, 1_050_000))
# The reference runs before the first command of a round and then before
# each command that follows at least this much command time.
REFERENCE_EVERY_S = 0.02

_IMPORT_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import degtree.cli; "
    "sys.stdout.write('ready\\n'); sys.stdout.flush()"
)


class ProgramMissing(Exception):
    pass


def load_program():
    """Import ``degtree.cli`` from this checkout's ``src``, and nowhere else."""
    if not (SRC / "degtree" / "cli.py").is_file():
        raise ProgramMissing(f"no degtree sources under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import degtree.cli as cli
    except ImportError as exc:
        raise ProgramMissing(f"cannot import degtree.cli: {exc}") from exc
    if Path(cli.__file__).resolve().parent != SRC / "degtree":
        raise ProgramMissing(f"degtree.cli was imported from {cli.__file__}, not {SRC}")
    return cli


def time_setup() -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter until it has imported degtree.cli.

    Returned as measured and scaled to the reference CPU by a
    ``reference_loop`` run just before the spawn.
    """
    speed = REFERENCE_S / reference_loop()
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        try:
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    if line != "ready\n" or proc.returncode != 0:
        raise ProgramMissing(f"import probe failed: {err.strip()}")
    return elapsed, elapsed * speed


def reference_loop() -> float:
    """Seconds of a fixed pure-Python workload that runs no code of the program.

    It walks a list of 50 000 ints, builds and joins a dict of strings and
    builds a list of small lists: the kinds of work the CLI does.  Its
    time tracks how fast this process's CPU and caches run at the moment
    it is taken.
    """
    start = time.perf_counter()
    total = 0
    for x in _REFERENCE_INTS:
        total += x
    "".join({i: str(i) for i in range(3000)}.values())
    [["(", str(i), [i, i + 1], ")"] for i in range(2000)]
    return time.perf_counter() - start


class _Sink:
    """Stand-in for sys.stdout/sys.stderr that keeps what is written."""

    def __init__(self):
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(self.parts)


def run_command(cli, argv) -> tuple[int, str, str, float]:
    """(exit code, stdout, stderr, seconds) of one in-process CLI call.

    An exception escaping ``main`` is reported as exit code -1.
    """
    out, err = _Sink(), _Sink()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    start = time.perf_counter()
    try:
        code = cli.main(list(argv))
    except Exception as exc:  # a crash in the program is a failed command
        code = -1
        err.write(f"{type(exc).__name__}: {exc}")
    finally:
        elapsed = time.perf_counter() - start
        sys.stdout, sys.stderr = saved
    return code, out.text(), err.text(), elapsed


@dataclass
class Round:
    traced: bool
    latencies: list[float] = field(default_factory=list)
    references: list[float] = field(default_factory=list)
    # the latest reference time before each command
    command_references: list[float] = field(default_factory=list)
    exit_codes: list[int] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    bytes_out: int = 0
    outputs: list[tuple[str, str]] | None = None
    counters: dict[str, int] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def run_round(cli, commands, keep_outputs=False, tracer=None, executions=None) -> Round:
    result = Round(traced=tracer is not None, outputs=[] if keep_outputs else None)
    since_reference = float("inf")
    if tracer is not None:
        tracer.install()
    try:
        for index, command in enumerate(commands):
            if tracer is not None:
                tracer.execution = len(executions)
                executions.append(index)
            # A CLI call starts with no garbage from earlier calls.
            gc.collect()
            if since_reference >= REFERENCE_EVERY_S:
                result.references.append(reference_loop())
                since_reference = 0.0
            result.command_references.append(result.references[-1])
            code, out, err, seconds = run_command(cli, command.argv)
            since_reference += seconds
            data = out.encode()
            result.latencies.append(seconds)
            result.exit_codes.append(code)
            result.digests.append(hashlib.sha256(data).hexdigest())
            result.bytes_out += len(data)
            if keep_outputs:
                result.outputs.append((out, err))
    finally:
        if tracer is not None:
            tracer.uninstall()
            result.counters = tracer.take_counters()
    return result


def quartiles(values) -> dict:
    values = list(values)
    if len(values) == 1:
        q1 = q2 = q3 = values[0]
    else:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3}


def read_commit() -> str | None:
    """HEAD commit from ``.git`` when the checkout is a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "degtree").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# -- checking ------------------------------------------------------------


def judge(commands, warm: Round, rounds: list[Round], pins: list | None):
    """Verdicts of the warm-up round, and failures counted over all rounds.

    A command fails in a round when its warm-up output is wrong, when the
    round's exit code or digest differs from the warm-up's, or when the
    warm-up digest differs from its pin.  The run is correct when every
    failure is the documented digit-limit defect.
    """
    alphabet = {int(k): v for k, v in json.loads(workloads.ALPHABET_PATH.read_text()).items()}
    verdicts = [
        checks.verdict(command, code, out, err, alphabet)
        for command, code, (out, err) in zip(commands, warm.exit_codes, warm.outputs)
    ]
    problems: list[str] = []
    failed = 0
    correct = True
    for index, (command, v) in enumerate(zip(commands, verdicts)):
        label = f"#{index} {command.argv[0]}"
        if not v.ok:
            problems.append(f"{label}: {v.reason}")
        bad_pin = pins is not None and pins[index] is not None and pins[index] != warm.digests[index]
        if bad_pin:
            problems.append(f"{label}: stdout digest differs from the pinned one")
        correct &= (v.ok or v.known_defect) and not bad_pin
        for r in [warm, *rounds]:
            changed = (r.exit_codes[index], r.digests[index]) != (warm.exit_codes[index], warm.digests[index])
            if changed:
                problems.append(f"{label}: {'traced' if r.traced else 'untraced'} round output differs from the warm-up")
                correct = False
            failed += changed or not v.ok or bad_pin
    return verdicts, failed, correct, problems


def load_pins(workload: str, seed: int, scale: float, count: int) -> list | None:
    if seed != DEFAULT_SEED or scale != 1.0 or not PINNED.is_file():
        return None
    pins = json.loads(PINNED.read_text()).get(workload)
    if pins is None:
        return None
    if len(pins) != count:
        return ["command list changed"] * count  # every command then mismatches
    return pins


# -- metrics -------------------------------------------------------------


def scaled_walls(rounds: list[Round]) -> list[float]:
    """Each round's wall time, scaled to the reference CPU by its mean reference time."""
    return [r.wall * REFERENCE_S / statistics.fmean(r.references) for r in rounds]


def scaled_latencies(rounds: list[Round]) -> list[float]:
    """Each command's median time over ``rounds``, scaled to the reference CPU.

    Each execution is scaled by the latest reference time before it.
    """
    scaled = ([t * REFERENCE_S / ref for t, ref in zip(r.latencies, r.command_references)] for r in rounds)
    return [statistics.median(column) for column in zip(*scaled)]


def end_to_end(commands, verdicts, rounds: list[Round], setup: list[tuple[float, float]], peak_rss_mb: float):
    """End-to-end metrics of the timed rounds, and their samples for the record.

    The CPU speed of a shared machine drifts by tens of percent over
    minutes, and a whole run can fall in a slow or a fast spell.  So times
    are divided by ``reference_loop`` times taken between the commands,
    which see the same spells, and reported as on a CPU where that
    workload takes ``REFERENCE_S``.  ``wall_s`` is the median over rounds
    of the round's wall time divided by its mean reference time;
    ``cmd_p50_s`` is the median over commands of each command's median
    time, where each execution is divided by the latest reference time.
    ``setup_s`` is the median of the scaled spawn times (see ``time_setup``).
    The raw times are kept in the record.
    """
    per_command = scaled_latencies(rounds)
    wall = statistics.median(scaled_walls(rounds))
    nodes = sum(v.nodes for v in verdicts if v.ok)
    trees = sum(v.trees for v in verdicts if v.ok)
    metrics = {
        "setup_s": (statistics.median(scaled for _, scaled in setup), "s"),
        "wall_s": (wall, "s"),
        "nodes_per_s": (nodes / wall, "1/s"),
        "trees_per_s": (trees / wall, "1/s"),
        "cmd_p50_s": (statistics.median(per_command), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    samples = {
        "setup_s": quartiles(scaled for _, scaled in setup),
        "raw_setup_s": quartiles(raw for raw, _ in setup),
        "wall_s": quartiles(scaled_walls(rounds)),
        "raw_wall_s": quartiles(r.wall for r in rounds),
        "reference_loop_s": quartiles(t for r in rounds for t in r.references),
        "cmd_s": quartiles(per_command),
    }
    if len(per_command) >= P90_MIN_SAMPLES:
        samples["cmd_p90_s"] = {"value": float(np.percentile(per_command, 90)), "n": len(per_command)}
    return metrics, samples


# Span name behind each per-layer time metric.
_STAGE_TIMES = {
    "sampling.shuffle_s": "sampling.fisher_yates_shuffle",
    "sampling.rotation_point_s": "sampling.find_rotation_point",
    "sampling.rotate_s": "sampling.rotate",
    "sampling.sample_tree_s": "sampling.sample_tree",
    "degrees.to_sequence_s": "degrees.DegreeMultiset.to_sequence",
    "rng.next_words_s": "rng.RandomSource.next_words",
    "stats.report_s": "stats.uniformity_report",
    "codec.decode_s": "codec.decode_prefix",
    "codec.to_sexpr_s": "codec.to_sexpr",
    "codec.to_json_s": "codec.to_json",
    "codec.to_dot_s": "codec.to_dot",
    "codec.render_expression_s": "codec.render_expression",
    "oracle.count_s": "oracle.count_trees",
    "oracle.enumerate_s": "oracle.enumerate_trees",
}

# Span and size behind each fitted slope: the command's tree size.
_STAGE_SLOPES = {
    "sampling.shuffle.slope": "sampling.fisher_yates_shuffle",
    "sampling.rotation_point.slope": "sampling.find_rotation_point",
    "codec.to_sexpr.slope": "codec.to_sexpr",
    "codec.to_json.slope": "codec.to_json",
    "oracle.count.slope": "oracle.count_trees",
}

_SHARE_LAYERS = ("sampling", "codec", "oracle", "stats")


def per_layer(tracer: Tracer, executions, commands, verdicts, traced: list[Round], untraced: list[Round]):
    """Per-layer metrics: medians over traced rounds, slopes over all spans."""
    table = tracer.table()
    name_id = {name: i for i, name in enumerate(tracer.names)}
    exec_round = np.repeat(np.arange(len(traced)), len(commands))
    exec_command = np.asarray(executions, dtype=np.int64)
    span_round = exec_round[table["execution"]]
    span_command = exec_command[table["execution"]]
    layer_names = np.asarray(LAYERS)[table["layer"]]

    def per_round(mask, values=None) -> float:
        """Median over traced rounds of the masked spans' total ``values`` (or count)."""
        weights = None if values is None else values[mask]
        return float(np.median(np.bincount(span_round[mask], weights=weights, minlength=len(traced))))

    def name_mask(name):
        return table["name"] == name_id.get(name, -1)

    metrics = {}
    for metric, name in _STAGE_TIMES.items():
        metrics[metric] = (per_round(name_mask(name), table["duration"]), "s")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (per_round(layer_names == layer, table["self"]), "s")
    walls = [r.wall for r in traced]
    for layer in _SHARE_LAYERS:
        mask = (layer_names == layer) & table["outer"]
        totals = np.bincount(span_round[mask], weights=table["duration"][mask], minlength=len(traced))
        metrics[f"{layer}.share"] = (float(np.median(totals / np.asarray(walls))), "ratio")

    def counter(key) -> float:
        return float(np.median([r.counters.get(key, 0) for r in traced]))

    shuffles = per_round(name_mask("sampling.fisher_yates_shuffle"))
    batches = per_round(name_mask("rng.RandomSource.next_words"))
    well_formed_calls = counter("degrees.is_well_formed.calls")
    metrics.update(
        {
            "cli.bytes_out": (float(np.median([r.bytes_out for r in traced])), "bytes"),
            "sampling.sample_tree.calls": (per_round(name_mask("sampling.sample_tree")), "count"),
            "rng.next_below.calls": (counter("rng.RandomSource.next_below.calls"), "count"),
            "rng.words": (counter("rng.RandomSource.next_word.calls") + counter("rng.next_words.words"), "count"),
            "rng.rewinds": (counter("rng.RandomSource.rewind.calls"), "count"),
            "sampling.batched_share": (batches / shuffles if shuffles else 0.0, "ratio"),
            "degrees.is_well_formed.calls": (well_formed_calls, "count"),
            "oracle.enumerate.useful_ratio": (
                counter("oracle.enumerate_trees.results") / well_formed_calls if well_formed_calls else 0.0,
                "ratio",
            ),
        }
    )
    sizes = np.asarray([c.n for c in commands], dtype=np.float64)
    for metric, name in _STAGE_SLOPES.items():
        mask = name_mask(name)
        metrics[metric] = (log_log_slope(sizes[span_command[mask]], table["duration"][mask]), "1")
    # cli self time per execution against the nodes the command printed
    cli_mask = layer_names == "cli"
    cli_self = np.bincount(table["execution"][cli_mask], weights=table["self"][cli_mask], minlength=len(executions))
    printed = np.asarray([verdicts[i].nodes for i in executions], dtype=np.float64)
    metrics["cli.self.slope"] = (log_log_slope(printed, cli_self), "1")
    overhead = statistics.median(scaled_walls(traced)) - statistics.median(scaled_walls(untraced))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


# -- main ----------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description="degtree CLI benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="shrink every size (tests use 0.01)")
    return parser.parse_args(argv)


def run(args) -> dict:
    """Run one benchmark invocation; returns the result and the run record."""
    cli = load_program()
    commands = workloads.build(args.workload, args.seed, args.scale)
    pins = load_pins(args.workload, args.seed, args.scale, len(commands))
    warm = run_round(cli, commands, keep_outputs=True)
    tracer = Tracer() if args.trace else None
    executions: list[int] = []
    rounds: list[Round] = []
    # Interpreter spawns for setup_s are spread over the run, one before
    # each timed round, so that they do not all fall in one slow spell.
    setup: list[tuple[float, float]] = []
    spawns = 0 if args.trace else SETUP_SPAWNS
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds or (args.trace and len(rounds) < 2):
        if len(setup) < spawns:
            setup.append(time_setup())
        traced = args.trace and len(rounds) % 2 == 0 and len(rounds) < 2 * MAX_TRACED_ROUNDS
        rounds.append(run_round(cli, commands, tracer=tracer if traced else None, executions=executions))
    while len(setup) < spawns:
        setup.append(time_setup())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    verdicts, failed, correct, problems = judge(commands, warm, rounds, pins)
    attempted = len(commands) * (1 + len(rounds))
    timed = [r for r in rounds if not r.traced]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": read_commit(),
        "src_sha256": source_digest(),
        "commands_per_round": len(commands),
        "timed_rounds": len(timed),
        "traced_rounds": len(rounds) - len(timed),
        "fail_ratio": failed / attempted,
        "known_defects_per_round": sum(v.known_defect for v in verdicts),
        "pinned": pins is not None,
        "problems": problems[:20],
    }
    if args.trace:
        traced = [r for r in rounds if r.traced]
        metrics = per_layer(tracer, executions, commands, verdicts, traced, timed)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}.npz", executions=np.asarray(executions, dtype=np.int64))
        record["traced_wall_s"] = quartiles(scaled_walls(traced))
        record["untraced_wall_s"] = quartiles(scaled_walls(timed))
    else:
        metrics, record["samples"] = end_to_end(commands, verdicts, timed, setup, peak_rss_mb)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return {"record": record, "result": result}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        outcome = run(args)
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"record": outcome["record"]}))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
