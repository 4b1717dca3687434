"""Compressor unit and property tests."""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
import textwrap
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpim import _kernel
from rpim.errors import MalformedGrammarError
from rpim.repair import (
    NONTERMINAL_BASE,
    CompressorConfig,
    Grammar,
    Rule,
    build_sequence_array,
    compress,
    count_pairs,
    expand,
    reference_compress,
    replace_step,
)

from conftest import (
    DOUBLING_CHAIN,
    full_state_check,
    greedy_pair_counts,
    pair_code,
    run_pair_counts,
)


class TestCountPairs:
    def test_alternating(self):
        assert count_pairs([7, 8, 7, 8]) == {(7, 8): 2, (8, 7): 1}

    def test_too_short(self):
        assert count_pairs([]) == {}
        assert count_pairs([5]) == {}

    def test_runs_count_without_overlap(self):
        assert count_pairs([1, 1, 1]) == {(1, 1): 1}
        assert count_pairs([1, 1, 1, 1]) == {(1, 1): 2}

    def test_exhaustive_small_alphabet(self):
        for n in range(9):
            for seq in itertools.product(range(3), repeat=n):
                assert count_pairs(list(seq)) == greedy_pair_counts(seq)


class TestBuildSequenceArray:
    def test_alternating_threads(self):
        array, table = build_sequence_array([7, 8, 7, 8])
        rec = table.records[pair_code(7, 8)]
        assert rec.count == 2
        assert rec.thread_head == 0
        assert array.next_occurrence[0] == 2
        assert pair_code(8, 7) in table.seen_once

    def test_empty(self):
        array, table = build_sequence_array([])
        assert array.working_sequence() == []
        assert not table.records
        assert not table.seen_once

    def test_run_of_three_is_seen_once(self):
        array, table = build_sequence_array([1, 1, 1])
        assert pair_code(1, 1) in table.seen_once
        assert pair_code(1, 1) not in table.records


class TestReplaceStep:
    def test_replaces_most_frequent(self):
        array, table = build_sequence_array([7, 8, 7, 8])
        grammar = Grammar()
        assert replace_step(array, table, grammar) is True
        assert array.working_sequence() == [256, 256]
        assert grammar.rules == [(7, 8)]

    def test_nothing_repeats(self):
        array, table = build_sequence_array([1, 2, 3, 4])
        grammar = Grammar()
        assert replace_step(array, table, grammar) is False
        assert grammar.rules == []

    def test_tie_broken_lexicographically(self):
        # (1,1) and (1,2) both count 2; (1,1) is smaller
        array, table = build_sequence_array([1, 1, 2, 1, 1, 2])
        grammar = Grammar()
        assert replace_step(array, table, grammar) is True
        assert grammar.rules == [(1, 1)]
        assert array.working_sequence() == [256, 2, 256, 2]
        full_state_check(array, table, "after tie-break step")

    def test_run_head_erosion(self):
        # replacing (0,1) consumes the head of the 1-run; the (1,1)
        # credits must be recounted from the new run start
        seq = [0, 1, 1, 1, 1, 1, 0, 1]
        array, table = build_sequence_array(seq)
        grammar = Grammar()
        assert replace_step(array, table, grammar) is True
        assert grammar.rules == [(0, 1)]
        full_state_check(array, table, "after erosion step")

    def test_min_frequency_respected(self):
        array, table = build_sequence_array([7, 8, 7, 8])
        grammar = Grammar()
        assert replace_step(array, table, grammar, min_frequency=3) is False
        assert array.working_sequence() == [7, 8, 7, 8]


class TestCompress:
    def test_empty(self):
        grammar, final = compress(b"")
        assert grammar.rules == []
        assert final == []

    def test_nested_rules(self):
        grammar, final = compress(bytes([1, 2] * 4))
        assert grammar.rules == [(1, 2), (256, 256)]
        assert final == [257, 257]

    def test_abracadabra(self):
        grammar, final = compress(b"abracadabra")
        assert bytes(expand(grammar, final)) == b"abracadabra"
        assert all(c < 2 for c in count_pairs(final).values())

    def test_max_rules_caps_grammar(self):
        config = CompressorConfig(max_rules=1)
        grammar, final = compress(bytes([1, 2] * 4), config)
        assert grammar.rules == [(1, 2)]
        assert final == [256, 256, 256, 256]

    def test_min_frequency_three(self):
        config = CompressorConfig(min_frequency=3)
        grammar, final = compress(bytes([1, 2] * 2), config)
        assert grammar.rules == []
        assert final == [1, 2, 1, 2]

    def test_list_input_equals_bytes_input(self):
        data = b"mississippi"
        assert compress(list(data)) == compress(data)

    def test_rejects_nonterminal_input(self):
        with pytest.raises(ValueError):
            compress([1, 2, 300])
        with pytest.raises(ValueError):
            compress([-1, 2])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CompressorConfig(min_frequency=1)
        with pytest.raises(ValueError):
            CompressorConfig(max_rules=-1)


class TestExpand:
    def test_identity_on_terminals(self):
        assert expand(Grammar(), [4, 9]) == bytes([4, 9])

    def test_single_rule(self):
        assert expand(Grammar([Rule(97, 98)]), [256, 256]) == \
            bytes([97, 98, 97, 98])

    def test_two_levels(self):
        grammar = Grammar([Rule(97, 98), Rule(256, 256)])
        assert expand(grammar, [257]) == bytes([97, 98, 97, 98])

    def test_undefined_symbol_rejected(self):
        with pytest.raises(MalformedGrammarError):
            expand(Grammar(), [256])

    def test_forward_rule_reference_rejected(self):
        # rule 0 references ordinal 257 which is not below it
        with pytest.raises(MalformedGrammarError):
            expand(Grammar([Rule(257, 0)]), [256])

    def test_self_reference_rejected(self):
        with pytest.raises(MalformedGrammarError):
            expand(Grammar([Rule(256, 0)]), [256])

    def test_negative_symbols_rejected(self):
        with pytest.raises(MalformedGrammarError):
            expand(Grammar(), [-1])
        with pytest.raises(MalformedGrammarError):
            expand(Grammar([Rule(97, -1)]), [97])

    def test_unreachable_rules_not_materialized(self):
        # expand may build only the rules seq reaches
        start = time.perf_counter()
        assert expand(DOUBLING_CHAIN, [97]) == b"a"
        assert expand(DOUBLING_CHAIN, [257, 98]) == b"aaaab"
        assert time.perf_counter() - start < 1.0


byte_strings = st.binary(max_size=4096)
small_seqs = st.lists(st.integers(0, 3), max_size=64)


@given(byte_strings)
@settings(max_examples=150, deadline=None)
def test_round_trip_property(data):
    grammar, final = compress(data)
    assert bytes(expand(grammar, final)) == data


@given(byte_strings)
@settings(max_examples=100, deadline=None)
def test_termination_residue_property(data):
    _, final = compress(data)
    assert all(c < 2 for c in greedy_pair_counts(final).values())


@given(st.lists(st.integers(0, 255), max_size=200))
@settings(max_examples=200, deadline=None)
def test_count_pairs_matches_both_oracles(seq):
    got = count_pairs(seq)
    assert got == greedy_pair_counts(seq)
    assert got == run_pair_counts(seq)


@given(small_seqs)
@settings(max_examples=150, deadline=None)
def test_table_state_sound_through_all_steps(seq):
    array, table = build_sequence_array(seq)
    full_state_check(array, table, "after build")
    grammar = Grammar()
    while True:
        counts = greedy_pair_counts(array.working_sequence())
        if not replace_step(array, table, grammar):
            break
        # the chosen pair must have been maximal, ties broken toward
        # the smallest (left, right)
        chosen = tuple(grammar.rules[-1])
        top = max(counts.values())
        assert counts[chosen] == top
        assert chosen == min(p for p, c in counts.items() if c == top)
        full_state_check(array, table, f"after step {len(grammar.rules)}")
    assert expand(grammar, array.working_sequence()) == bytes(seq)


@given(byte_strings)
@settings(max_examples=100, deadline=None)
def test_grammar_is_acyclic(data):
    grammar, _ = compress(data)
    for ordinal, rule in enumerate(grammar.rules):
        assert rule.left < NONTERMINAL_BASE + ordinal
        assert rule.right < NONTERMINAL_BASE + ordinal


needs_c_engine = pytest.mark.skipif(not _kernel.available(),
                                    reason="C engine unavailable")


@needs_c_engine
@given(st.lists(st.integers(0, 255), max_size=2000),
       st.sampled_from([2, 3]), st.sampled_from([None, 0, 1, 7]))
@settings(max_examples=120, deadline=None)
def test_engines_agree(seq, min_frequency, max_rules):
    config = CompressorConfig(min_frequency=min_frequency,
                              max_rules=max_rules)
    py_grammar, py_final = reference_compress(seq, config)
    c_grammar, c_final = compress(seq, config)
    assert py_grammar.rules == c_grammar.rules
    assert py_final == c_final


@needs_c_engine
def test_engines_agree_on_runs():
    """Few symbols in short runs: ties, self-pairs, chains and run-head
    repair, which random bytes almost never reach."""
    rng = random.Random(0xC0DE)
    for case in range(300):
        n = rng.choice([10, 100, 1000, 3000])
        alphabet = rng.randint(1, 4)
        longest = rng.choice([1, 3, 6])
        seq = []
        while len(seq) < n:
            seq += [rng.randrange(alphabet)] * rng.randint(1, longest)
        seq = seq[:n]
        config = CompressorConfig(min_frequency=rng.choice([2, 2, 3]),
                                  max_rules=rng.choice([None, None, 1, 7]))
        py_grammar, py_final = reference_compress(seq, config)
        c_grammar, c_final = compress(seq, config)
        assert py_grammar.rules == c_grammar.rules, (case, config)
        assert py_final == c_final, (case, config)


def test_auto_falls_back_without_compiler(monkeypatch, tmp_path):
    cache = tmp_path / "cache"
    monkeypatch.setattr(_kernel, "COMPILER", str(tmp_path / "missing-cc"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    # forget this process's load outcome; monkeypatch restores it after
    monkeypatch.setattr(_kernel, "_lib", None)
    monkeypatch.setattr(_kernel, "_error", None)
    data = b"abracadabra abracadabra " * 4

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outputs = [compress(data) for _ in range(3)]
        with pytest.raises(RuntimeError):
            _kernel.compress_array(np.frombuffer(data, np.uint8), 2, None)
    assert [w.category for w in caught] == [RuntimeWarning]
    expected = reference_compress(data)
    assert all(out == expected for out in outputs)
    assert not list(cache.rglob("*.so*")), "failed build left a file behind"


def test_uncredit_desync_raises_under_optimize():
    """A seen-once slot out of sync must raise even where python -O strips
    assert statements."""
    script = textwrap.dedent("""
        from rpim.repair import build_sequence_array
        array, table = build_sequence_array([1, 2, 3])
        try:
            # (1, 2) is seen once at slot 0, not at slot 1
            table._uncredit(array, 1, 2, 1)
        except AssertionError:
            print("raised")
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(_kernel.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "raised"
