"""The mutant catalogue: small faults planted one at a time in a copy of
``src/degtree``, each with the tests expected to fail on it.

Each row names a mutant, the file under ``src/degtree`` it changes, the
exact text it replaces (found exactly once in that file; see
``test_mutants.py``), the replacement, and the tests expected to kill it,
as pytest node ids relative to the repository root.  Run
``python tools/mutants.py`` to plant each mutant and see which tests
fail.
"""

MUTANTS = [
    {
        # each block of a long row after the first loses its first draw, so
        # one position a block goes unswapped and the row ends short
        "name": "row_blocks_first_draw",
        "file": "rng.py",
        "text": "        yield block\n",
        "replacement": "        yield block[1:] if start and isinstance(block, memoryview) else block\n",
        "killers": [
            "tests/test_sampling.py::TestRowBlocks::test_blocks_equal_the_scalar_chain",
            "tests/test_sampling.py::TestRowBlocks::test_one_tree_in_blocks_equals_shuffle_then_rotate",
        ],
    },
    {
        # the column kernel never swaps position 1 with position 0
        "name": "column_table_last_swap",
        "file": "sampling.py",
        "text": "zip(at, range(n - 1, 0, -1))",
        "replacement": "zip(at, range(n - 1, 1, -1))",
        "killers": [
            "tests/test_sampling.py::TestColumnKernel::test_equals_row_loop_on_one_stream",
            "tests/test_sampling.py::TestSampleTrees::test_equals_sequential_sample_tree",
        ],
    },
    {
        # Sattolo's shuffle (j < i), shared by every path of _chunks: only
        # cyclic permutations, so not every tree is reached equally often
        "name": "sattolo_bounds",
        "file": "sampling.py",
        "text": "bounds, per_chunk = range(n, 1, -1)",
        "replacement": "bounds, per_chunk = range(n - 1, 0, -1)",
        "killers": [
            # the batched-equals-scalar tests cannot see it: every path shares it
            "tests/test_acceptance.py::test_criterion_7_statistical_uniformity",
            "tests/test_sampling.py::TestSampleTrees::test_equals_shuffle_then_rotate",
        ],
    },
    {
        # a degree of 10 is written as the digit ":", not as "10"
        "name": "digit_check_widened",
        "file": "codec.py",
        "text": '_DIGITS = b"0123456789".ljust(256, b"x")',
        "replacement": '_DIGITS = b"0123456789:".ljust(256, b"x")',
        "killers": [
            "tests/test_codec.py::TestBlockWriter::test_prefix_writer_is_picked_from_each_chunk",
            "tests/test_codec.py::TestBlockWriter::test_blocks_equal_the_one_tree_renders",
        ],
    },
    {
        # the leaves group the prime powers with a truncating zip, so the
        # last short run of powers drops out of the count
        "name": "count_leaves_truncated",
        "file": "oracle.py",
        "text": "zip_longest(*[powers] * _LEAF_RUN, fillvalue=1)",
        "replacement": "zip(*[powers] * _LEAF_RUN)",
        "killers": [
            "tests/test_oracle.py::TestCountAgainstCombChain::test_every_multiset_of_the_criterion_4_family",
            "tests/test_oracle.py::TestCountAgainstCombChain::test_counts_past_the_int_string_limit",
        ],
    },
    {
        # a prime equal to a multiplicity m is left out of m!'s exponents
        "name": "count_exponents_side_left",
        "file": "oracle.py",
        "text": 'side="right"',
        "replacement": 'side="left"',
        "killers": [
            "tests/test_oracle.py::TestCountAgainstCombChain::test_every_multiset_of_the_criterion_4_family",
            "tests/test_oracle.py::TestCountAgainstCombChain::test_catalan_numbers",
        ],
    },
    {
        # stats' outcome list loses the space json.dumps writes between codes
        "name": "outcome_join",
        "file": "stats.py",
        "text": '.replace("\\n", "], [")',
        "replacement": '.replace("\\n", "],[")',
        "killers": [
            "tests/test_stats.py::test_json_of_every_small_space_equals_json_dumps",
            "tests/test_cli.py::TestStats::test_golden",
        ],
    },
]
