#!/usr/bin/env python3
"""The committed mutant table: faults the test suite must catch.

Each mutant is an exact text patch on one file under ``src/chshsim``, an
old string that must occur there exactly once and its replacement,
together with the tests expected to kill it.  The runner copies the
package, the tests, the benchmark harness (``tests/test_bench_boundaries.py``
imports it) and ``pyproject.toml`` to a temporary directory, checks that
the unmutated copy passes every selection, and then, one mutant at a
time, patches the copy, runs the mutant's selection with plain
``pytest`` in a subprocess and restores the file.  A mutant is killed
when a selected test fails or cannot be collected.  Hypothesis runs with
a fixed seed, so a table run is reproducible.

It prints each mutant's verdict, the number of failing tests and the
time taken, and exits 1 if a mutant survives, a patch no longer applies,
a run crashes or times out, or the unmutated copy fails.  Each run is
capped at 2 GiB of address space and 10 minutes.  The repository's own
files are never modified.  Run it from anywhere::

    python3 tools/mutants.py

A surviving mutant is a finding to record, not a mutant to delete.  A
patch that no longer applies is re-targeted to the same fault.
"""

from __future__ import annotations

import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "bench", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/chshsim
    old: str
    new: str
    tests: tuple[str, ...]  # pytest arguments, relative to the repository root


#: Selections several mutants share.
ORACLE_TEST = "tests/test_enumerator.py::test_no_signaling_check_equals_toggle_and_replay_oracle"
STARTUP_GUARD = "tests/test_cli.py::test_only_simulate_loads_numpy_and_no_command_loads_dataclasses"
BUDGET_EDGES = "tests/test_enumerator.py::test_each_entry_point_admits_up_to_the_budget"
WIN_RULE_ORACLE = "tests/test_stats.py::test_every_reader_of_the_win_rule_agrees_with_the_oracle"
STREAM_TEST = "tests/test_stream.py::test_stream_draws_what_numpy_draws"
REPLAY_TEST = "tests/test_montecarlo.py::test_run_batch_equals_a_replay_on_numpy_generators"
EVERY_KERNEL_HANDED = "tests/test_montecarlo.py::test_engine_hands_every_kernel_the_pair_counts_of_earlier_tiles"
GUESSING_TABLES = "tests/test_montecarlo.py::test_guessing_tables_hold_the_per_round_rule_at_every_entry"
COUNT_KERNELS = "tests/test_montecarlo.py::test_count_kernels_match_general_engine_whole_and_in_tiles"


def record(kind: str) -> str:
    """The contract test of one record type."""
    return f"tests/test_records.py::test_record_contract[{kind}]"


def win_rule_oracle(reader: str) -> str:
    """The oracle test of one reader of the win rule."""
    return f"{WIN_RULE_ORACLE}[{reader}]"


MUTANTS = (
    # The package's per-batch stream, and the general engine's draws from it.
    Mutant(
        "spawn-index-mixes-only-its-low-word",
        "stream.py",
        "for word in _uint32_words(spawn_index) if",
        "for word in _uint32_words(spawn_index)[:1] if",
        (STREAM_TEST, REPLAY_TEST),
    ),
    Mutant(
        "spawn-index-mixed-before-the-seeds-fifth-word",
        "stream.py",
        "        pool, const = _seed_pool(seed)\n"
        "        for word in _uint32_words(spawn_index) if spawn_index is not None else ():\n",
        "        pool, const = _seed_pool(seed & _M128)\n"
        "        for word in (_uint32_words(spawn_index) if spawn_index is not None else []) + _uint32_words(seed)[4:]:\n",
        (STREAM_TEST, REPLAY_TEST),
    ),
    Mutant(
        "pending-half-word-dropped",
        "stream.py",
        "        self._half = data[end:]\n",
        '        self._half = b""\n',
        (STREAM_TEST, REPLAY_TEST),
    ),
    Mutant(
        "tape-drawn-from-a-fresh-stream",
        "montecarlo.py",
        "return playout(strategy, pairs, stream)",
        "return playout(strategy, pairs, Stream(seed, batch_index))",
        (REPLAY_TEST, "tests/test_montecarlo.py::test_kernel_matches_general_engine"),
    ),
    Mutant(
        "general-engine-draws-from-numpy-generators",
        "montecarlo.py",
        "    stream = Stream(seed, batch_index)\n",
        "    stream = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(batch_index,)))\n",
        ("tests/test_cli.py::test_no_module_names_numpy_generators",),
    ),
    # A tile's draws, stepped in numpy or read by native PCG64s.
    Mutant(
        "native-row-not-advanced-to-its-tile",
        "montecarlo.py",
        "bitgen.advance(pair_first)",
        "bitgen.advance(0)",
        (
            "tests/test_montecarlo.py::test_chunk_draws_equal_numpy_on_both_sides_of_the_step_threshold",
            "tests/test_montecarlo.py::test_tiled_runs_equal_untiled_runs",
        ),
    ),
    Mutant(
        "native-gap-advanced-one-too-far",
        "montecarlo.py",
        "bitgen.advance(gap)",
        "bitgen.advance(gap + 1)",
        (
            "tests/test_montecarlo.py::test_chunk_draws_equal_numpy_on_both_sides_of_the_step_threshold",
            "tests/test_montecarlo.py::test_raw_words_drawn_in_pieces_equal_numpy_per_batch_generators",
        ),
    ),
    Mutant(
        "stepped-gap-one-word-too-far",
        "montecarlo.py",
        "_stepped_words(lanes, tape_first, tape_count)",
        "_stepped_words(lanes, tape_first + 1, tape_count)",
        (
            "tests/test_montecarlo.py::test_chunk_draws_equal_numpy_on_both_sides_of_the_step_threshold",
            "tests/test_montecarlo.py::test_chunk_draws_equal_numpy_per_batch_generators",
        ),
    ),
    # Stepped streams' lanes: the map that moves them, and its carrying.
    Mutant(
        "lane-jump-one-word-short",
        "montecarlo.py",
        "a_hi, a_lo = _MULT_POWERS[:, width - 1, 0]",
        "a_hi, a_lo = _MULT_POWERS[:, max(width - 2, 0), 0]",
        (
            "tests/test_montecarlo.py::test_chunk_draws_equal_numpy_per_batch_generators",
            "tests/test_montecarlo.py::test_chunk_draws_equal_numpy_on_both_sides_of_the_step_threshold",
        ),
    ),
    Mutant(
        "lane-increment-one-term-short",
        "montecarlo.py",
        "c_hi[width - 1 :].copy(), c_lo[width - 1 :].copy()",
        "c_hi[width - 2 :][:1].copy(), c_lo[width - 2 :][:1].copy()",
        (
            "tests/test_montecarlo.py::test_chunk_draws_equal_numpy_per_batch_generators",
            "tests/test_montecarlo.py::test_chunk_draws_equal_numpy_on_both_sides_of_the_step_threshold",
        ),
    ),
    Mutant(
        "lanes-not-jumped-between-tiles",
        "montecarlo.py",
        "return block, (s_hi, s_lo, c_hi, c_lo, pos)",
        "return block, (*lanes[:4], pos)",
        (
            "tests/test_montecarlo.py::test_chunk_draws_equal_numpy_per_batch_generators",
            "tests/test_montecarlo.py::test_tiled_runs_equal_untiled_runs",
        ),
    ),
    Mutant(
        "lane-position-advanced-short",
        "montecarlo.py",
        "            pos += width\n",
        "            pos += 1\n",
        (
            "tests/test_montecarlo.py::test_chunk_draws_equal_numpy_per_batch_generators",
            "tests/test_montecarlo.py::test_stepped_chunk_jumps_its_lanes_only_to_the_words_it_reads",
        ),
    ),
    Mutant(
        "lane-jump-one-word-early",
        "montecarlo.py",
        "while at >= pos + width:",
        "while at + 1 >= pos + width:",
        (
            "tests/test_montecarlo.py::test_chunk_draws_equal_numpy_per_batch_generators",
            "tests/test_montecarlo.py::test_stepped_chunk_jumps_its_lanes_only_to_the_words_it_reads",
        ),
    ),
    Mutant(
        "tape-read-one-word-late",
        "montecarlo.py",
        "start + r0, tape_count, native)",
        "start + r0 + 1, tape_count, native)",
        (
            "tests/test_montecarlo.py::test_chunk_draws_equal_numpy_per_batch_generators",
            "tests/test_montecarlo.py::test_chunk_draws_equal_numpy_on_both_sides_of_the_step_threshold",
        ),
    ),
    Mutant(
        "lanes-after-the-tape-handed-on",
        "montecarlo.py",
        "return words, _stepped_words(lanes, tape_first, tape_count)[0], lanes",
        "return (words, *_stepped_words(lanes, tape_first, tape_count))",
        (
            "tests/test_montecarlo.py::test_chunk_draws_equal_numpy_per_batch_generators",
            "tests/test_montecarlo.py::test_tiled_runs_equal_untiled_runs",
        ),
    ),
    # Kernels fed by the engine's pair counts of the earlier tiles.
    Mutant(
        "counts-withheld-after-the-first-tile",
        "montecarlo.py",
        "uniforms, r0, counts[1])",
        "uniforms, r0, np.zeros_like(counts[1]))",
        (
            "tests/test_montecarlo.py::test_tiled_runs_equal_untiled_runs",
            "tests/test_montecarlo.py::test_engine_hands_model101_the_pair_counts_of_earlier_tiles",
            EVERY_KERNEL_HANDED,
        ),
    ),
    Mutant(
        "first-tile-handed-the-unfilled-buffer",
        "montecarlo.py",
        "counts = np.zeros((2, hi - lo, 4), dtype=np.int64)",
        "counts = np.empty((2, hi - lo, 4), dtype=np.int64)",
        (EVERY_KERNEL_HANDED, "tests/test_montecarlo.py::test_kernel_matches_general_engine"),
    ),
    Mutant(
        "model101-in-tile-head-dropped",
        "montecarlo.py",
        "(counts + head == MODEL_101_TRIGGER_COUNTS)",
        "(counts == MODEL_101_TRIGGER_COUNTS)",
        (
            "tests/test_montecarlo.py::test_model101_kernel_on_crafted_trigger_history",
            "tests/test_montecarlo.py::test_engine_hands_model101_the_pair_counts_of_earlier_tiles",
        ),
    ),
    # Guessing's blocks: count planes, gap states and the tables.
    Mutant(
        "guessing-prefix-count-read-one-round-late",
        "montecarlo.py",
        "starts = planes[:k]",
        "starts = planes[1 : k + 1]",
        (
            "tests/test_montecarlo.py::test_guessing_kernel_on_drawn_histories_matches_oracle",
            "tests/test_montecarlo.py::test_kernel_matches_general_engine",
        ),
    ),
    Mutant(
        "guessing-lanes-capped-127-behind",
        "montecarlo.py",
        "        floor -= _LEAD\n",
        "        floor -= _LEAD - 1\n",
        (
            "tests/test_montecarlo.py::test_guessing_kernel_on_tie_heavy_histories_matches_oracle",
            "tests/test_montecarlo.py::test_tile_scored_from_prefix_counts_equals_whole_run",
        ),
    ),
    Mutant(
        "guessing-counts-not-carried-past-a-block",
        "montecarlo.py",
        "base = seen.T.copy()",
        "base = counts.T.copy()",
        (
            "tests/test_montecarlo.py::test_guessing_kernel_on_tie_heavy_histories_matches_oracle",
            "tests/test_montecarlo.py::test_tile_scored_from_prefix_counts_equals_whole_run",
        ),
    ),
    Mutant(
        "guessing-table-tie-break-to-the-last-leader",
        "montecarlo.py",
        "first = gaps.argmin(axis=1)",
        "first = 3 - gaps[:, ::-1].argmin(axis=1)",
        (
            GUESSING_TABLES,
            "tests/test_montecarlo.py::test_guessing_kernel_on_tie_heavy_histories_matches_oracle",
        ),
    ),
    Mutant(
        "guessing-leader-plane-misses-pair-3",
        "montecarlo.py",
        "np.maximum(top[:k], starts[:, 3], out=top[:k])",
        "np.maximum(top[:k], starts[:, 2], out=top[:k])",
        (
            "tests/test_montecarlo.py::test_guessing_kernel_on_tie_heavy_histories_matches_oracle",
            "tests/test_montecarlo.py::test_kernel_matches_general_engine",
        ),
    ),
    Mutant(
        "guessing-gap-capped-at-3",
        "montecarlo.py",
        "caps = np.full(n_batches, _GAP_CAP, dtype=np.uint8)",
        "caps = np.full(n_batches, _GAP_CAP - 1, dtype=np.uint8)",
        (
            "tests/test_montecarlo.py::test_guessing_kernel_on_tie_heavy_histories_matches_oracle",
            "tests/test_montecarlo.py::test_kernel_matches_general_engine",
        ),
    ),
    Mutant(
        "guessing-round-1-correction-dropped",
        "montecarlo.py",
        "    if r0 == 0:\n        first = ",
        "    if r0 < 0:\n        first = ",
        (
            "tests/test_montecarlo.py::test_guessing_kernel_on_tie_heavy_histories_matches_oracle",
            COUNT_KERNELS,
        ),
    ),
    Mutant(
        "guessing-partial-block-read-through-f4",
        "montecarlo.py",
        "full = k - (b0 + k == blocks and width % 4 > 0)",
        "full = k",
        (COUNT_KERNELS, "tests/test_montecarlo.py::test_guessing_kernel_on_drawn_histories_matches_oracle"),
    ),
    Mutant(
        "guessing-padding-kept-in-pair-0",
        "montecarlo.py",
        "pairs[:, 0] -= 4 * blocks - width",
        "pairs[:, 0] -= 0 * (4 * blocks - width)",
        (EVERY_KERNEL_HANDED, "tests/test_montecarlo.py::test_guessing_kernel_on_drawn_histories_matches_oracle"),
    ),
    Mutant(
        "guessing-last-segment-left-out-of-its-pair-counts",
        "montecarlo.py",
        "seen = seen + (planes[k] - planes[0]).T",
        "seen = seen + (planes[k] - planes[0]).T * (b0 + k < blocks)",
        (EVERY_KERNEL_HANDED, "tests/test_montecarlo.py::test_guessing_kernel_on_tie_heavy_histories_matches_oracle"),
    ),
    Mutant(
        "pair-counts-high-and-low-swapped",
        "montecarlo.py",
        "np.subtract(low, both, out=out[..., 1])\n    np.subtract(high, both, out=out[..., 2])",
        "np.subtract(high, both, out=out[..., 1])\n    np.subtract(low, both, out=out[..., 2])",
        ("tests/test_montecarlo.py::test_kernel_matches_general_engine",),
    ),
    Mutant(
        "batch-x-renamed",
        "montecarlo.py",
        "def batch_x(record: BatchCounts)",
        "def batch_x_of(record: BatchCounts)",
        ("tests/test_bench_boundaries.py",),
    ),
    # The tile tally's words: pair bytes, score bytes and their byte lanes.
    Mutant(
        "tail-bytes-of-a-partial-word-left-unmasked",
        "montecarlo.py",
        "    if count % 8:\n        words[:, -1] &=",
        "    if count % 8 < 0:\n        words[:, -1] &=",
        (COUNT_KERNELS, "tests/test_montecarlo.py::test_kernel_matches_general_engine"),
    ),
    Mutant(
        "word-lanes-summed-over-32-words",
        "montecarlo.py",
        "_LANE_WORDS = 31",
        "_LANE_WORDS = 32",
        ("tests/test_montecarlo.py::test_word_counts_equal_bincounts",),
    ),
    Mutant(
        "score-padding-left-uninitialised",
        "montecarlo.py",
        "return np.zeros((len(words), 8 * words.shape[1]), dtype=np.uint8)",
        "return np.empty((len(words), 8 * words.shape[1]), dtype=np.uint8)",
        (
            "tests/test_montecarlo.py::test_kernel_matches_general_engine",
            "tests/test_montecarlo.py::test_tiled_runs_equal_untiled_runs",
        ),
    ),
    Mutant(
        "high-and-low-masks-swapped",
        "montecarlo.py",
        "np.right_shift(part, 7, out=high)\n    high &= bits\n    np.right_shift(part, 6, out=low)",
        "np.right_shift(part, 6, out=high)\n    high &= bits\n    np.right_shift(part, 7, out=low)",
        ("tests/test_montecarlo.py::test_kernel_matches_general_engine",),
    ),
    Mutant(
        "all-scores-plane-zeroed",
        "montecarlo.py",
        "every[0] if scored else counted",
        "0 * every[0] if scored else counted",
        ("tests/test_montecarlo.py::test_kernel_matches_general_engine",),
    ),
    Mutant(
        "native-chunk-read-piece-not-reserved",
        "montecarlo.py",
        "spare = _CHUNK_BYTES - 8 * min(_RAW_PIECE, m)",
        "spare = _CHUNK_BYTES",
        ("tests/test_montecarlo.py::test_native_chunks_fit_the_budget_beside_their_raw_piece",),
    ),
    Mutant(
        "slab-last-group-dropped",
        "montecarlo.py",
        'return np.einsum("...j->...", lanes)',
        'return np.einsum("...j->...", lanes[..., :-1])',
        ("tests/test_montecarlo.py::test_word_counts_equal_bincounts",),
    ),
    Mutant(
        "slab-summed-as-one-group-past-31-words",
        "montecarlo.py",
        "bits, min(b - a, _LANE_WORDS))",
        "bits, b - a)",
        ("tests/test_montecarlo.py::test_word_counts_equal_bincounts",),
    ),
    # The tape base of the memoryless stochastic strategies.
    Mutant(
        "tape-round-counter-not-reset",
        "strategies.py",
        "        self._draw(n, rng)\n        self._round = -1\n",
        "        self._draw(n, rng)\n",
        (
            "tests/test_strategies.py::test_tape_strategies_refuse_no_rng_and_replay_a_reused_instance",
            "tests/test_enumerator.py::test_stochastic_tape_is_restored_not_rebuilt",
        ),
    ),
    Mutant(
        "quantum-begin-round-skips-the-base",
        "strategies.py",
        "        super().begin_round()\n        self._alice_setting = None\n",
        "        self._alice_setting = None\n",
        (
            "tests/test_strategies.py",
            "tests/test_montecarlo.py::test_kernel_matches_general_engine",
        ),
    ),
    Mutant(
        "alias-bound-to-the-wrong-class",
        "strategies.py",
        "model_101 = Model101\n",
        "model_101 = GuessingModel\n",
        ("tests/test_strategies.py",),
    ),
    # The no-signaling walk's snapshots, catch-up and child keys.
    Mutant(
        "snapshot-returns-the-state-itself",
        "strategies.py",
        "    return twin\n",
        "    return strategy\n",
        (ORACLE_TEST,),
    ),
    Mutant(
        "catch-up-does-nothing",
        "strategies.py",
        "    def _catch_up(self, view):\n        if len(view) != self._round:\n            self._advance(view)\n",
        "    def _catch_up(self, view):\n        pass\n",
        ("tests/test_enumerator.py::test_walk_advances_each_prefix_state_once",),
    ),
    Mutant(
        "count-driven-child-keys-empty",
        "strategies.py",
        "        return (c0 + 1, c1, c2, c3), (c0, c1 + 1, c2, c3), (c0, c1, c2 + 1, c3), (c0, c1, c2, c3 + 1)\n",
        "        return ((),) * 4\n",
        (ORACLE_TEST,),
    ),
    Mutant(
        "tape-child-keys-none",
        "strategies.py",
        "    def _child_keys(self):\n        return ((),) * 4\n",
        "    def _child_keys(self):\n        return None\n",
        (ORACLE_TEST,),
    ),
    Mutant(
        "memoryless-child-keys-of-counts-plus-pair",
        "strategies.py",
        '        if self.memory_class._value_ == "none":  # the value: Python 3.11 finds members slowly\n'
        "            return (counts,) * 4\n",
        "",
        (ORACLE_TEST,),
    ),
    Mutant(
        "child-keys-of-pairs-0-and-1-swapped",
        "strategies.py",
        "return (c0 + 1, c1, c2, c3), (c0, c1 + 1, c2, c3),",
        "return (c0, c1 + 1, c2, c3), (c0 + 1, c1, c2, c3),",
        (ORACLE_TEST,),
    ),
    # The CHSH win rule, defined once in core, and each of its readers.
    Mutant(
        "win-rule-entry-flipped",
        "core.py",
        "WINS_ON_EQUAL: tuple[bool, ...] = (True, True, True, False)",
        "WINS_ON_EQUAL: tuple[bool, ...] = (True, True, False, False)",
        (WIN_RULE_ORACLE, "tests/test_golden.py"),
    ),
    Mutant(
        "round-score-inverted",
        "stats.py",
        "return int((rnd.a == rnd.b) == WINS_ON_EQUAL[rnd.pair.index])",
        "return int((rnd.a == rnd.b) != WINS_ON_EQUAL[rnd.pair.index])",
        (win_rule_oracle("round_score"), "tests/test_stats.py::test_round_score_correlated_target"),
    ),
    Mutant(
        "pair-tallies-take-the-other-count",
        "stats.py",
        "c.correlated if equal else c.anticorrelated",
        "c.anticorrelated if equal else c.correlated",
        (win_rule_oracle("pair_tallies"), "tests/test_stats.py::test_y_matches_per_round_score_sum"),
    ),
    Mutant(
        "quantum-agreement-inverted",
        "strategies.py",
        "return a if scores == WINS_ON_EQUAL",
        "return a if scores != WINS_ON_EQUAL",
        (win_rule_oracle("quantum_bob"), "tests/test_montecarlo.py::test_kernel_matches_general_engine"),
    ),
    Mutant(
        "kernels-missed-pair-off-by-one",
        "montecarlo.py",
        "_MISSED = CONSTANT_PLUS_ASSIGNMENT.hits.index(0)",
        "_MISSED = CONSTANT_PLUS_ASSIGNMENT.hits.index(0) - 1",
        ("tests/test_montecarlo.py::test_kernel_matches_general_engine", "tests/test_golden.py"),
    ),
    # The exact sums over count states.
    Mutant(
        "hit-flags-in-reversed-pair-order",
        "strategies.py",
        "(b1, b2, b1, b2), WINS_ON_EQUAL))",
        "(b1, b2, b1, b2), WINS_ON_EQUAL))[::-1]",
        ("tests/test_strategies.py", "tests/test_golden.py"),
    ),
    Mutant(
        "hit-flags-1-and-2-swapped",
        "strategies.py",
        "zip((a1, a1, a2, a2), (b1, b2, b1, b2),",
        "zip((a1, a2, a1, a2), (b1, b1, b2, b2),",
        ("tests/test_strategies.py", "tests/test_golden.py"),
    ),
    Mutant(
        "zero-power-term-dropped-from-g3",
        "enumerator.py",
        "        if z == 3 and t == r:\n            free -= 1  # 0^s at s = 0\n",
        "",
        ("tests/test_golden.py",),
    ),
    Mutant(
        "weight-table-without-own-zero-shift",
        "enumerator.py",
        "weight[3 - met + (c == 0)][c]",
        "weight[3 - met][c]",
        ("tests/test_golden.py",),
    ),
    # Each exact computation's predicted work, against one budget.
    Mutant(
        "budget-refuses-its-own-edge",
        "enumerator.py",
        "    if work > _WORK_BUDGET:\n",
        "    if work >= _WORK_BUDGET:\n",
        (BUDGET_EDGES, "tests/test_cli.py::test_nosig_honours_work_budget"),
    ),
    Mutant(
        "overridden-child-keys-predicted-keyed",
        "enumerator.py",
        "keyed = isinstance(subject, CountDriven) and type(subject)._child_keys is CountDriven._child_keys",
        "keyed = isinstance(subject, CountDriven)",
        (BUDGET_EDGES, "tests/test_enumerator.py::test_each_prediction_is_the_work_a_passing_run_does"),
    ),
    Mutant(
        "distribution-predicted-by-count-states",
        "enumerator.py",
        '_admit(n, math.comb(n + 8, 8), "(counts, scores) states")',
        '_admit(n, math.comb(n + 3, 4), "(counts, scores) states")',
        (BUDGET_EDGES, "tests/test_cli.py::test_enumerate_over_cap_is_input_error"),
    ),
    # Startup: the exact commands never load numpy, and no command dataclasses.
    Mutant(
        "numpy-imported-by-enumerator",
        "enumerator.py",
        "from .stream import Stream\n",
        "from .stream import Stream\nimport numpy as np\n",
        (STARTUP_GUARD,),
    ),
    Mutant(
        "numpy-imported-by-strategies",
        "strategies.py",
        "from .core import (\n",
        "import numpy as np\nfrom .core import (\n",
        (STARTUP_GUARD,),
    ),
    Mutant(
        "dataclasses-imported-by-bounds",
        "bounds.py",
        "from typing import NamedTuple\n",
        "from dataclasses import dataclass\nfrom typing import NamedTuple\n",
        (STARTUP_GUARD,),
    ),
    # The records' validations, run when a record is built.
    Mutant(
        "assignment-admits-zero",
        "strategies.py",
        "if value not in (PLUS, MINUS):",
        "if value not in (PLUS, 0, MINUS):",
        (record("DeterministicAssignment"), "tests/test_strategies.py::test_assignment_validation"),
    ),
    Mutant(
        "mixture-admits-negative-weights",
        "strategies.py",
        "if weight < 0:",
        "if weight < -1:",
        (record("StochasticLHV"), "tests/test_strategies.py::test_stochastic_lhv_weight_validation"),
    ),
    Mutant(
        "mixture-admits-weights-summing-below-one",
        "strategies.py",
        "if total != 1:",
        "if total > 1:",
        (record("StochasticLHV"), "tests/test_strategies.py::test_parse_weights_csv_rejects_bad_sum"),
    ),
    Mutant(
        "batch-statistics-admit-y-above-four",
        "stats.py",
        "if not 0 <= y_value <= 4:",
        "if not 0 <= y_value:",
        (record("BatchStatistics"), "tests/test_stats.py::test_batch_statistics_validation"),
    ),
    Mutant(
        "batch-statistics-admit-negative-x",
        "stats.py",
        "if x_value is not None and not 0 <= x_value <= 4:",
        "if x_value is not None and not x_value <= 4:",
        (record("BatchStatistics"),),
    ),
    Mutant(
        "plan-admits-zero-rounds",
        "montecarlo.py",
        "if n < 1:",
        "if n < 0:",
        (record("SimulationPlan"), "tests/test_montecarlo.py::test_plan_validation"),
    ),
    Mutant(
        "plan-admits-zero-batches",
        "montecarlo.py",
        "if batches < 1:",
        "if batches < 0:",
        (record("SimulationPlan"), "tests/test_montecarlo.py::test_plan_validation"),
    ),
    Mutant(
        "plan-admits-a-negative-seed",
        "montecarlo.py",
        "if seed < 0:",
        "if seed < -1:",
        (record("SimulationPlan"), "tests/test_montecarlo.py::test_negative_seed_is_rejected_on_both_engines"),
    ),
    Mutant(
        "plan-admits-delta-zero",
        "montecarlo.py",
        "if not 0 < delta < 1:",
        "if not 0 <= delta < 1:",
        (record("SimulationPlan"), "tests/test_montecarlo.py::test_plan_validation"),
    ),
    Mutant(
        "plan-admits-delta-one",
        "montecarlo.py",
        "if not 0 < delta < 1:",
        "if not 0 < delta <= 1:",
        (record("SimulationPlan"),),
    ),
    # The outcomes a collective strategy returns, checked as they are played.
    Mutant(
        "collective-non-outcome-admitted",
        "enumerator.py",
        "        if (a != 1 and a != -1) or (b != 1 and b != -1):\n"
        '            raise InvariantViolation(f"strategy produced non-outcome ({a!r}, {b!r})")\n'
        "        rounds.append(",
        "        rounds.append(",
        ("tests/test_enumerator.py::test_collective_non_outcome_is_refused",),
    ),
    # Both wings' views, cut from one list of rounds.
    Mutant(
        "own-side-bob-given-alices-entries",
        "core.py",
        "return MemoryView(memory_class, Side.ALICE, rounds, k), MemoryView(memory_class, Side.BOB, rounds, k)",
        "return MemoryView(memory_class, Side.ALICE, rounds, k), MemoryView(memory_class, Side.ALICE, rounds, k)",
        ("tests/test_core.py",),
    ),
    Mutant(
        "own-side-given-the-full-view",
        "core.py",
        'if memory_class._value_ == "full":',
        'if memory_class._value_ != "none":',
        ("tests/test_core.py",),
    ),
    Mutant(
        "walk-never-pops-its-last-round",
        "enumerator.py",
        "        rounds.pop()\n",
        "",
        ("tests/test_enumerator.py::test_walk_hands_each_node_the_views_playout_hands_its_round",),
    ),
    Mutant(
        "report-prefix-shifted-by-one",
        "enumerator.py",
        "(*(r.pair for r in rounds), ALL_PAIRS[q]) + (ALL_PAIRS[0],) * (n - 1 - k)",
        "(*(r.pair for r in rounds[1:]), ALL_PAIRS[q]) + (ALL_PAIRS[0],) * (n - k)",
        (ORACLE_TEST,),
    ),
)


#: Each pytest run's address space and wall time.  A mutant may turn a
#: bounded loop into an unbounded one; the run must then fail alone,
#: not exhaust the machine's memory.
MEMORY_LIMIT = 2 << 30
TIMEOUT_S = 600


def limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_pytest(workdir: Path, tests) -> tuple[int | None, str]:
    """Run ``pytest`` on ``tests`` in ``workdir``; its exit code (None on timeout) and output."""
    # One BLAS thread: OpenBLAS reserves buffers per thread at import,
    # which on a many-core host would not fit under MEMORY_LIMIT.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH="src", OPENBLAS_NUM_THREADS="1")
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", "--hypothesis-profile=mutants", *tests]
    try:
        done = subprocess.run(
            command, cwd=workdir, env=env, capture_output=True, text=True, timeout=TIMEOUT_S, preexec_fn=limit_memory
        )
    except subprocess.TimeoutExpired:
        return None, ""
    return done.returncode, done.stdout + done.stderr


def failures(output: str) -> int:
    """Failed plus erroring tests from pytest's summary line."""
    summary = output.splitlines()[-1] if output else ""
    return sum(int(count) for count in re.findall(r"(\d+) (?:failed|errors?)\b", summary))


def main() -> int:
    bad = 0
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="chshsim-mutants-") as tmp:
        workdir = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, workdir / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, workdir / name)
        selections = sorted({test for mutant in MUTANTS for test in mutant.tests})
        code, output = run_pytest(workdir, selections)
        if code != 0:
            print(f"the unmutated copy fails its selections:\n{output}", file=sys.stderr)
            return 1
        for mutant in MUTANTS:
            target = workdir / "src" / "chshsim" / mutant.path
            text = target.read_text()
            found = text.count(mutant.old)
            if found != 1:
                print(f"STALE     {mutant.name}: old text found {found} times in {mutant.path}")
                bad += 1
                continue
            target.write_text(text.replace(mutant.old, mutant.new))
            t0 = time.perf_counter()
            try:
                code, output = run_pytest(workdir, mutant.tests)
            finally:
                target.write_text(text)
            # pytest exits 1 when tests failed and 2 when collection failed;
            # anything else (a crash, a timeout) needs a look, not a verdict.
            verdict = {0: "SURVIVED", 1: "killed", 2: "killed"}.get(code, f"CRASHED ({code})")
            if verdict.startswith("CRASHED"):
                print(output, file=sys.stderr)
            print(f"{verdict:9} {mutant.name}: {failures(output)} failing, {time.perf_counter() - t0:.1f} s", flush=True)
            bad += verdict != "killed"
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} killed in {time.perf_counter() - started:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
