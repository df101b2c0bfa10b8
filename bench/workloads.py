"""Seeded command lists for the four benchmark workloads.

A workload is a fixed list of ``degtree`` CLI argument vectors.  The
workload seed picks the degree mixes, the ``--seed`` of every random
command and the order of the list; the sizes are fixed, so the amount of
work in a list barely depends on the seed and runs with different seeds
can be compared.  All multisets use outdegrees 0-3 and have charge 1 unless
a command is meant to report infeasibility.

Why each workload exists:

* ``big_tree``: single ``sample --format prefix`` trees of 1e5 and 1e6
  nodes.  The batched shuffle, the rotation point and the CLI's prefix
  join do nearly all the work; the codec and the scalar RNG path do none.
* ``many_small``: ``sample --count`` over 7- to 200-node multisets, all
  below the 1024-node vector threshold, plus ``stats`` on 8- to 10-node
  multisets.  Per-call overhead and the scalar ``next_below`` chain
  dominate, so batching across trees shows here and not on ``big_tree``.
* ``fuzz_render``: ``fuzz-expr`` in both styles on 50- to 500-node trees,
  and ``sample --format sexpr|json|dot`` of nine 1e3- to 1e4-node trees
  per command, one multiset unary-heavy (deep).  The codec does most of the work, and labels
  share the tree's random stream, so cross-tree batching cannot help.
* ``oracle``: ``count`` over a 1e3 to 6e4 node sweep, ``enumerate`` of
  every 10-node multiset in both formats, and ``check``.  The only
  workload that runs ``count_trees`` and the ``enumerate`` command.  Counts of
  more than 4300 digits fail today (the int-to-string limit); they stay
  in the list so the defect shows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

ALPHABET_PATH = Path(__file__).resolve().parent / "data" / "alphabet.json"

WORKLOADS = ("big_tree", "many_small", "fuzz_render", "oracle")


@dataclass(frozen=True)
class Command:
    """One CLI call and what the benchmark expects of it.

    ``n`` is the node count of each tree the command draws, enumerates or
    counts; ``trees`` is how many trees it must print.
    """

    argv: tuple[str, ...]
    kind: str
    counts: dict[int, int] = field(hash=False)
    n: int
    trees: int = 0
    fmt: str = "prefix"
    seed: int | None = None
    samples: int = 0


def degree_spec(counts: dict[int, int]) -> str:
    return ",".join(f"{d}:{m}" for d, m in sorted(counts.items()))


def mix(n: int, f2: float, f3: float) -> dict[int, int]:
    """Charge-1 multiset of exactly ``n`` nodes over outdegrees 0-3.

    ``f2`` and ``f3`` are the shares of binary and ternary nodes; the
    unary nodes fill up to ``n`` and the leaves close the tree
    (``n0 = 1 + n2 + 2*n3``); shares too large for a small ``n`` are cut.
    """
    n3 = min(round(n * f3), (n - 1) // 3)
    n2 = min(round(n * f2), (n - 1 - 3 * n3) // 2)
    n1 = n - 1 - 2 * n2 - 3 * n3
    counts = {0: 1 + n2 + 2 * n3, 1: n1, 2: n2, 3: n3}
    return {d: m for d, m in counts.items() if m}


def _jittered_mix(rng: random.Random, n: int, f2: float, f3: float) -> dict[int, int]:
    return mix(n, f2 * rng.uniform(0.9, 1.1), f3 * rng.uniform(0.9, 1.1))


def _scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, round(n * scale))


def _sample(counts, seed, fmt="prefix", count=1) -> Command:
    argv = ["sample", "--degrees", degree_spec(counts), "--seed", str(seed), "--format", fmt]
    if count != 1:
        argv += ["--count", str(count)]
    return Command(tuple(argv), "sample", counts, sum(counts.values()), count, fmt, seed)


def _big_tree(rng: random.Random, scale: float) -> list[Command]:
    # Three small draws and one large: the per-command median stays inside
    # the 1e5 cluster, and a short list repeats often within a run.
    sizes = [100_000] * 3 + [1_000_000]
    return [
        _sample(_jittered_mix(rng, _scaled(n, scale, 1024), 0.2, 0.1), rng.getrandbits(63))
        for n in sizes
    ]


# Fixed small multisets for ``stats``: the outcome spaces stay the same
# size for every workload seed, only the sampling seeds change.
_STATS_MULTISETS = (
    {0: 4, 1: 2, 2: 1, 3: 1},
    {0: 3, 1: 3, 2: 2},
    {0: 4, 1: 2, 2: 3},
    {0: 5, 1: 1, 2: 2, 3: 1},
    {0: 5, 1: 2, 2: 2, 3: 1},
    {0: 4, 1: 4, 2: 1, 3: 1},
)


def _many_small(rng: random.Random, scale: float) -> list[Command]:
    sizes = (7, 10, 14, 20, 28, 40, 56, 80, 113, 160, 200)
    nodes_per_command = _scaled(1000, scale, 200)
    commands = []
    for _ in range(8):
        for n in sizes:
            counts = _jittered_mix(rng, n, 0.2, 0.1)
            count = max(1, round(nodes_per_command / n))
            commands.append(_sample(counts, rng.getrandbits(63), count=count))
    samples = _scaled(1000, scale, 50)
    for _ in range(2):
        for counts in _STATS_MULTISETS:
            seed = rng.getrandbits(63)
            argv = ("stats", "--degrees", degree_spec(counts), "--samples", str(samples), "--seed", str(seed))
            commands.append(Command(argv, "stats", counts, sum(counts.values()), seed=seed, samples=samples))
    rng.shuffle(commands)
    return commands


def _fuzz_render(rng: random.Random, scale: float) -> list[Command]:
    commands = []
    # Sixteen expression commands: with the twelve renders below, the
    # per-command median falls among the 500-node prefix expressions and
    # the 1e3-node renders, which take about as long, and not in the gap
    # between two kinds of command.
    for n in (50, 100, 200, 350, 500):
        for style in ("prefix", "infix"):
            for _ in range(1 if n < 200 else 2):
                counts = _jittered_mix(rng, n, 0.2, 0.1)
                seed = rng.getrandbits(63)
                argv = (
                    "fuzz-expr", "--degrees", degree_spec(counts), "--alphabet", str(ALPHABET_PATH),
                    "--seed", str(seed), "--count", "10", "--style", style,
                )
                commands.append(Command(argv, "fuzz", counts, n, 10, style, seed))
    # Folding costs O(n * depth) and depth varies from tree to tree, so each
    # render command draws nine trees to even that out.
    for n in (1_000, 3_000, 10_000):
        for fmt in ("sexpr", "json", "dot"):
            counts = _jittered_mix(rng, _scaled(n, scale, 1024), 0.2, 0.1)
            commands.append(_sample(counts, rng.getrandbits(63), fmt, count=9))
    # Unary-heavy: about 84% unary nodes, so the trees are deep.
    deep = _jittered_mix(rng, _scaled(3_000, scale, 1024), 0.05, 0.02)
    for fmt in ("sexpr", "json", "dot"):
        commands.append(_sample(deep, rng.getrandbits(63), fmt, count=9))
    rng.shuffle(commands)
    return commands


def ten_node_multisets() -> list[dict[int, int]]:
    """Every charge-1 multiset of exactly 10 nodes over outdegrees 0-3."""
    out = []
    for n3 in range(4):
        for n2 in range(5):
            n1 = 9 - 2 * n2 - 3 * n3
            if n1 >= 0:
                counts = {0: 1 + n2 + 2 * n3, 1: n1, 2: n2, 3: n3}
                out.append({d: m for d, m in counts.items() if m})
    return out


def _oracle(rng: random.Random, scale: float) -> list[Command]:
    commands = []
    # Shares (0.4, 0.3, 0.2, 0.1) give about 0.55 digits per node: the
    # counts up to 4e3 nodes print, those from 1.2e4 nodes up exceed 4300
    # digits.  The mix is not jittered: count time depends on it, and the
    # per-command median falls among these commands.
    for n in (1000, 2000, 4000, 12_000, 20_000, 35_000, 60_000):
        counts = mix(_scaled(n, scale, 10), 0.2, 0.1)
        commands.append(Command(("count", "--degrees", degree_spec(counts)), "count", counts, sum(counts.values())))
    for counts in ten_node_multisets():
        for fmt in ("prefix", "json"):
            argv = ("enumerate", "--degrees", degree_spec(counts), "--format", fmt)
            commands.append(Command(argv, "enumerate", counts, 10, fmt=fmt))
    for i in range(12):
        counts = _jittered_mix(rng, rng.randrange(10, 100_000), 0.2, 0.1)
        if i % 3 == 0:  # a third are infeasible and must exit 2
            counts[0] += rng.choice((-1, 1))
        commands.append(Command(("check", "--degrees", degree_spec(counts)), "check", counts, sum(counts.values())))
    rng.shuffle(commands)
    return commands


_BUILDERS = {
    "big_tree": _big_tree,
    "many_small": _many_small,
    "fuzz_render": _fuzz_render,
    "oracle": _oracle,
}


def build(workload: str, seed: int, scale: float = 1.0) -> list[Command]:
    """The command list of ``workload`` for ``seed``; ``scale`` shrinks sizes for tests."""
    return _BUILDERS[workload](random.Random(f"{workload}/{seed}"), scale)
