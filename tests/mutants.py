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
        # a long row's kept blocks are never released, so every block of
        # draws stays alive until the row is done
        "name": "row_blocks_kept",
        "file": "rng.py",
        "text": "            block.release()\n",
        "replacement": "            pass\n",
        "killers": [
            "tests/test_sampling.py::TestSampleTrees::test_one_long_tree_peaks_below_8_bytes_a_node",
            "tests/test_sampling.py::TestSampleTrees::test_one_long_wide_tree_peaks_below_12_bytes_a_node",
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
        # the numpy kernel takes a negative degree of a signed buffer
        "name": "kernel_sign_check",
        "file": "codec.py",
        "text": " or (view.format.islower() and degrees.min() < 0)",
        "replacement": "",
        "killers": [
            "tests/test_codec.py::TestStructureKernel::test_malformed_buffers_past_the_thresholds_raise_as_the_loop_does",
            "tests/test_codec.py::TestBlockWriter::test_malformed_codes_raise_as_decode_prefix_does",
        ],
    },
    {
        # the numpy kernel takes a degree no tree of its size holds, which
        # can wrap round in its int32 counts
        "name": "kernel_degree_check",
        "file": "codec.py",
        "text": "top >= size or ",
        "replacement": "",
        "killers": [
            "tests/test_codec.py::TestStructureKernel::test_malformed_buffers_past_the_thresholds_raise_as_the_loop_does",
        ],
    },
    {
        # the numpy kernel takes a tree whose slots all close before its end
        "name": "kernel_open_slot_check",
        "file": "codec.py",
        "text": "rows[:, :-1].min(initial=0) < 0 or ",
        "replacement": "",
        "killers": [
            "tests/test_codec.py::TestStructureKernel::test_malformed_buffers_past_the_thresholds_raise_as_the_loop_does",
            "tests/test_codec.py::TestBlockWriter::test_malformed_codes_raise_as_decode_prefix_does",
        ],
    },
    {
        # the numpy kernel takes a tree left with open slots at its end
        "name": "kernel_last_count_check",
        "file": "codec.py",
        "text": " or rows[:, -1].sum() != -len(rows)",
        "replacement": "",
        "killers": [
            "tests/test_codec.py::TestStructureKernel::test_malformed_buffers_past_the_thresholds_raise_as_the_loop_does",
            "tests/test_codec.py::TestBlockWriter::test_malformed_codes_raise_as_decode_prefix_does",
        ],
    },
    {
        # the numpy kernel links each later root to the root before it
        "name": "kernel_root_reset",
        "file": "codec.py",
        "text": "        parents[::size] = -1\n",
        "replacement": "",
        "killers": [
            "tests/test_codec.py::TestStructureKernel::test_kernel_equals_the_loop_on_random_forests",
            "tests/test_codec.py::TestStructureKernel::test_kernel_equals_the_loop_either_side_of_its_thresholds",
        ],
    },
    {
        # one round of pointer jumping too few: a late child of a wide node
        # links to an earlier sibling
        "name": "kernel_jump_round",
        "file": "codec.py",
        "text": "range(max(top - 2, 0).bit_length())",
        "replacement": "range(max(top - 2, 0).bit_length() - 1)",
        "killers": [
            "tests/test_codec.py::TestStructureKernel::test_kernel_equals_the_loop_on_random_forests",
            "tests/test_codec.py::TestStructureKernel::test_kernel_equals_the_loop_either_side_of_its_thresholds",
        ],
    },
    {
        # the numpy kernel's leaves after the first close one node too few
        "name": "kernel_leaf_key",
        "file": "codec.py",
        "text": "ranks[:-1] - ranks[1:] + 1",
        "replacement": "ranks[:-1] - ranks[1:]",
        "killers": [
            "tests/test_codec.py::TestStructureKernel::test_kernel_equals_the_loop_on_random_forests",
            "tests/test_codec.py::TestStructureKernel::test_kernel_equals_the_loop_either_side_of_its_thresholds",
        ],
    },
    {
        # the loop counts the virtual parent of each root as a node it closes
        "name": "loop_root_count",
        "file": "codec.py",
        "text": "                    count += 1  # the virtual parent is no node\n",
        "replacement": "",
        "killers": [
            "tests/test_codec.py::TestSexpr::test_examples",
            "tests/test_codec.py::TestStreamReference::test_writer_equals_the_reference",
        ],
    },
    {
        # a run of infix text that starts at a later sibling loses its join
        "name": "infix_first_join",
        "file": "codec.py",
        "text": "pieces[0] = joins[labels[parents[0]]] + pieces[0]",
        "replacement": "pieces[0] = pieces[0]",
        "killers": [
            "tests/test_codec.py::TestStreamReference::test_writer_equals_the_reference",
        ],
    },
    {
        # a run's last infix piece takes the join of node 0, the root, where
        # the next run's first piece already starts with its own
        "name": "infix_last_parent_zero",
        "file": "codec.py",
        "text": "parents[1:] + [-1]",
        "replacement": "parents[1:] + [0]",
        "killers": [
            "tests/test_codec.py::TestStreamReference::test_writer_equals_the_reference",
        ],
    },
    {
        # a tree's last infix piece loses its last character to the newline
        "name": "infix_pieces_cut",
        "file": "codec.py",
        "text": "cut = 0 if joins else 1",
        "replacement": "cut = 1",
        "killers": [
            "tests/test_codec.py::TestStreamReference::test_writer_equals_the_reference",
            "tests/test_codec.py::TestRenderExpression::test_forced_choices",
        ],
    },
    {
        # a prefix expression's symbols are followed by two spaces
        "name": "prefix_expression_space",
        "file": "codec.py",
        "text": '[symbol + " " for symbol in self._symbols]',
        "replacement": '[symbol + "  " for symbol in self._symbols]',
        "killers": [
            "tests/test_codec.py::TestStreamReference::test_writer_equals_the_reference",
            "tests/test_codec.py::TestRenderExpression::test_forced_choices",
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
