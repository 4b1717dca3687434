"""Compressor unit and property tests."""

from __future__ import annotations

import ctypes
import hashlib
import itertools
import random
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpim import _kernel
from rpim.container import (
    CompressedArtifact,
    RawPayload,
    deserialize,
    serialize,
)
from rpim.errors import EngineUnavailableError, MalformedGrammarError
from rpim.repair import (
    NONTERMINAL_BASE,
    Grammar,
    Rule,
    compress,
    count_pairs,
    expand,
    reference_compress,
    reference_expand,
)

from conftest import (
    DOUBLING_CHAIN,
    break_compiler,
    greedy_pair_counts,
    peak_rss_growth,
    run_pair_counts,
)


def as_lists(result):
    """A (grammar, final sequence) pair as comparable lists."""
    grammar, final = result
    return grammar.rules, final.tolist()


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


class TestReplaceStep:
    """Whole runs whose grammars open with the replacement step under
    test."""

    def test_replaces_most_frequent(self):
        grammar, final = compress(bytes([7, 8, 7, 8]))
        assert grammar.rules == [(7, 8)]
        assert final.tolist() == [256, 256]

    def test_nothing_repeats(self):
        grammar, final = compress(bytes([1, 2, 3, 4]))
        assert grammar.rules == []
        assert final.tolist() == [1, 2, 3, 4]

    def test_tie_broken_lexicographically(self):
        # (1,1) and (1,2) both count 2; (1,1) is smaller
        grammar, final = compress(bytes([1, 1, 2, 1, 1, 2]))
        assert grammar.rules == [(1, 1), (256, 2)]
        assert final.tolist() == [257, 257]

    def test_run_head_erosion(self):
        # replacing (0,1) consumes the head of the 1-run; the (1,1)
        # credits must be recounted from the new run start, so the
        # second step finds two occurrences in the run of four left
        grammar, final = compress([0, 1, 1, 1, 1, 1, 0, 1])
        assert grammar.rules == [(0, 1), (1, 1)]
        assert final.tolist() == [256, 257, 257, 256]

    def test_min_frequency_respected(self):
        grammar, final = compress(bytes([7, 8, 7, 8]), 3)
        assert grammar.rules == []
        assert final.tolist() == [7, 8, 7, 8]


class TestCompress:
    def test_empty(self):
        grammar, final = compress(b"")
        assert grammar.rules == []
        assert final.tolist() == []

    def test_nested_rules(self):
        grammar, final = compress(bytes([1, 2] * 4))
        assert grammar.rules == [(1, 2), (256, 256)]
        assert final.tolist() == [257, 257]

    def test_abracadabra(self):
        grammar, final = compress(b"abracadabra")
        assert bytes(expand(grammar, final)) == b"abracadabra"
        assert all(c < 2 for c in count_pairs(final).values())

    def test_min_frequency_three(self):
        grammar, final = compress(bytes([1, 2] * 2), 3)
        assert grammar.rules == []
        assert final.tolist() == [1, 2, 1, 2]

    def test_list_input_equals_bytes_input(self):
        data = b"mississippi"
        assert as_lists(compress(list(data))) == as_lists(compress(data))

    def test_rejects_nonterminal_input(self):
        with pytest.raises(ValueError):
            compress([1, 2, 300])
        with pytest.raises(ValueError):
            compress([-1, 2])

    @pytest.mark.parametrize("seq", [np.array([[1, 2], [1, 2]]),
                                     [1.7, 2.2, 1.7, 2.2],
                                     np.array([1.0, 2.0, 1.0, 2.0])],
                             ids=["2-D", "float-list", "float-array"])
    def test_rejects_non_1d_and_non_integer_input(self, seq):
        with pytest.raises(ValueError):
            compress(seq)

    def test_memoryview_keeps_its_item_type(self):
        assert (as_lists(compress(memoryview(b"mississippi")))
                == as_lists(compress(b"mississippi")))
        items = np.array([1, 2, 1, 2, 1, 2])
        assert (as_lists(compress(memoryview(items)))
                == as_lists(compress([1, 2, 1, 2, 1, 2])))
        assert (as_lists(reference_compress(memoryview(items)))
                == as_lists(reference_compress([1, 2, 1, 2, 1, 2])))
        with pytest.raises(ValueError):
            compress(memoryview(np.array([[1, 2], [1, 2]])))

    def test_config_validation(self):
        for engine in (compress, reference_compress):
            with pytest.raises(ValueError, match="must be at least 2"):
                engine(b"abab", 1)
            for value in (2.5, None, "3"):
                with pytest.raises(ValueError, match="must be an integer"):
                    engine(b"abab", value)
            assert engine(b"abcabcabc", np.int32(3))[0].rules \
                == [(97, 98), (256, 99)]


class TestGrammar:
    def test_accepts_pairs(self):
        for grammar in (Grammar(), Grammar([]), Grammar(np.empty((0, 2)))):
            assert grammar.rules == []
        assert (Grammar([(97, 98), Rule(256, 99)])
                == Grammar(np.array([[97, 98], [256, 99]], np.int32)))

    @pytest.mark.parametrize("rules", [
        [(1, 2, 3), (4, 5, 6)], [1, 2, 3, 4], [(1, 2), (3,)], [(), ()],
        [[[1, 2]]], [(97.9, 98)], [(97, 98.0)], [(2**63, 98, 1)],
        [(2**70,)]])
    def test_rules_must_be_pairs(self, rules):
        # the shape is checked before any side outside int64
        with pytest.raises(ValueError):
            Grammar(rules)

    @pytest.mark.parametrize("wide", [
        np.uint64(2**63), np.uint64(2**64 - 1), 2**63, 2**70, -2**63 - 1,
        -2**80], ids=["uint64-2^63", "uint64-max", "2^63", "2^70",
                      "-2^63-1", "-2^80"])
    def test_sides_outside_int64_refused(self, wide):
        # as expand names a sequence symbol outside int64
        message = f"rule side {int(wide)} is undefined"
        for rules in [[(wide, 98)], [(97, wide)], [(97, 98), (97, wide)]]:
            if isinstance(wide, np.uint64):
                rules = np.array(rules, np.uint64)
            with pytest.raises(MalformedGrammarError) as caught:
                Grammar(rules)
            assert str(caught.value) == message

    def test_int64_edges_kept(self):
        edges = [(2**63 - 1, -2**63)]
        assert Grammar(edges).rules == edges
        grammar = Grammar(np.array([[2**63 - 1, 0]], np.uint64))
        assert grammar.rules == [(2**63 - 1, 0)]

    @pytest.mark.parametrize("side, value", [
        ("left", np.array([97, 98, 99, 100])), ("right", np.array([[1]])),
        ("left", [97])])
    def test_sides_cannot_be_reassigned_or_written(self, side, value):
        """A side of another length or shape would reach the C engine,
        which takes the rule count from the rules it is given; expand
        would read, and serialize write out, memory past the array."""
        grammar = Grammar([(97, 98)])
        with pytest.raises(AttributeError):
            setattr(grammar, side, value)
        with pytest.raises(ValueError, match="read-only"):
            getattr(grammar, side)[0] = 1
        with pytest.raises(MalformedGrammarError,
                           match="^sequence symbol 257 is undefined$"):
            expand(grammar, [256, 257, 258, 259])
        assert serialize(CompressedArtifact(RawPayload(2), grammar, [256])) \
            == b"RPIM\x01\x00\x02\x01ab\x01\x80\x02"

    def test_later_writes_by_the_caller_do_not_reach_it(self):
        """An array the caller can still write through, itself, through
        the array owning its memory or through a buffer under it, is
        copied."""
        pairs = np.array([[97, 98]])
        view = pairs[:]
        view.flags.writeable = False
        memory = bytearray(pairs.tobytes())
        over_memory = np.frombuffer(memory, np.int64).reshape(1, 2)
        over_memory.flags.writeable = False
        grammars = [Grammar(pairs), Grammar(view), Grammar(over_memory)]
        pairs[0, 0] = memory[0] = 99
        for grammar in grammars:
            assert grammar.rules == [(97, 98)]


class TestExpand:
    def test_identity_on_terminals(self):
        assert expand(Grammar(), [4, 9]) == bytes([4, 9])
        assert expand(Grammar(), []) == reference_expand(Grammar(), []) == b""

    def test_single_rule(self):
        assert expand(Grammar([Rule(97, 98)]), [256, 256]) == \
            bytes([97, 98, 97, 98])

    def test_two_levels(self):
        grammar = Grammar([Rule(97, 98), Rule(256, 256)])
        assert expand(grammar, [257]) == bytes([97, 98, 97, 98])

    @pytest.mark.parametrize("length", [1, 2, 15, 16, 17, 31, 32, 33])
    def test_block_copy_edges(self, length):
        # the engine moves an expansion of up to 16 bytes as one 16-byte
        # block.  A symbol of each length around that is used twice, so
        # that its block overlaps the bytes it reads, and last, where a
        # block would pass the output's end; terminal 255 goes last too.
        # Rule k is (rule k - 1, a letter), rule 0 ('y', 'z'): k + 2 bytes
        grammar = Grammar([Rule(ord("y"), ord("z"))]
                          + [Rule(NONTERMINAL_BASE + k - 1, ord("a") + k % 26)
                             for k in range(1, 32)])
        if length == 1:
            symbol, text = ord("x"), b"x"
        else:
            symbol = NONTERMINAL_BASE + length - 2
            text = b"yz" + bytes(ord("a") + k % 26
                                 for k in range(1, length - 1))
        assert len(text) == length
        for seq, expected in [([symbol, symbol], text * 2),
                              ([ord("q"), symbol, 255, symbol],
                               b"q" + text + b"\xff" + text),
                              ([symbol, 255], text + b"\xff")]:
            assert expand(grammar, seq) == reference_expand(grammar, seq) \
                == expected

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

    @pytest.mark.parametrize("grammar, seq, message", [
        (Grammar(), [256], "sequence symbol 256 is undefined"),
        (Grammar(), [-1], "sequence symbol -1 is undefined"),
        (Grammar([Rule(257, 0)]), [256],
         "rule 0 references symbol outside [0, 256)"),
        (Grammar([Rule(97, 98), Rule(97, -1)]), [97],
         "rule 1 references symbol outside [0, 257)"),
        (Grammar(), [2**70], f"sequence symbol {2**70} is undefined"),
    ])
    def test_malformed_error_names_the_fault(self, grammar, seq, message):
        # the C engine reports the fault by index and value; the error and
        # its wording match the reference expander's
        for expander in (expand, reference_expand):
            with pytest.raises(MalformedGrammarError) as caught:
                expander(grammar, seq)
            assert type(caught.value) is MalformedGrammarError
            assert str(caught.value) == message

    @pytest.mark.parametrize("seq", [[[97, 98], [99, 100]], [97.7],
                                     [[2**70]], 2**70],
                             ids=["2-D", "float", "2-D-wide", "0-d-wide"])
    def test_sequence_of_integers_required(self, seq):
        # as compress requires of its input, and before any symbol outside
        # int64 is looked for
        for expander in (expand, reference_expand):
            with pytest.raises(ValueError):
                expander(Grammar(), seq)

    def test_unreachable_rules_not_materialized(self):
        # expand may build only the rules seq reaches
        start = time.perf_counter()
        assert expand(DOUBLING_CHAIN, [97]) == b"a"
        assert expand(DOUBLING_CHAIN, [257, 98]) == b"aaaab"
        assert time.perf_counter() - start < 1.0

    def test_refuses_expansion_past_maxsize_before_allocating(self):
        # rule k of the chain stands for 2**(k + 1) bytes: rule 62 is one
        # byte past sys.maxsize, rule 63 past 2**64, and two of rule 61
        # sum to one byte past sys.maxsize
        chain = Grammar([Rule(97, 97)]
                        + [Rule(256 + k, 256 + k) for k in range(63)])
        tracemalloc.start()
        try:
            for seq in ([256 + 62], [256 + 63], [256 + 61, 256 + 61]):
                with pytest.raises(MemoryError):
                    expand(chain, seq)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_engine_buffer_released(self):
        # 64 expansions of 1 MiB each; one unreleased engine buffer per
        # call would add about 64 MiB
        growth = peak_rss_growth("""
            from rpim.repair import Grammar, Rule, expand
            chain = Grammar([Rule(97, 98)]
                            + [Rule(256 + k, 256 + k) for k in range(19)])
            expand(chain, [97])  # builds or loads the engine first
        """, """
            for _ in range(64):
                assert len(expand(chain, [256 + 19])) == 1 << 20
        """) / 1024
        assert growth < 32, f"peak RSS grew by {growth:.1f} MiB"


byte_strings = st.binary(max_size=4096)


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


@given(byte_strings)
@settings(max_examples=100, deadline=None)
def test_grammar_is_acyclic(data):
    grammar, _ = compress(data)
    for ordinal, rule in enumerate(grammar.rules):
        assert rule.left < NONTERMINAL_BASE + ordinal
        assert rule.right < NONTERMINAL_BASE + ordinal


# compress inputs and configurations the engines are compared on
engine_cases = (st.lists(st.integers(0, 255), max_size=2000),
                st.sampled_from([2, 3]))


@given(*engine_cases)
@settings(max_examples=120, deadline=None)
def test_engines_agree(seq, min_frequency):
    py_grammar, py_final = reference_compress(seq, min_frequency)
    c_grammar, c_final = compress(seq, min_frequency)
    assert py_grammar.rules == c_grammar.rules
    assert py_final.tolist() == c_final.tolist()


# expansions the property below draws stay under this many bytes
EXPAND_BUDGET = 1 << 16


@st.composite
def grammars_with_sequences(draw):
    """A valid grammar and a sequence over it.  The grammar opens with a
    doubling chain or a comb (rule k = (rule k - 1, terminal), as deep
    as it is long) and goes on with random rules, many over the latest
    ones; the sequence uses only symbols within EXPAND_BUDGET, so the
    longest rules stay unreachable."""
    rules = []
    terminal = st.integers(0, NONTERMINAL_BASE - 1)
    kind = draw(st.sampled_from(["doubling", "comb", "none"]))
    depth = draw(st.integers(1, 24 if kind == "doubling" else 600))
    if kind != "none":
        rules.append(Rule(draw(terminal), draw(terminal)))
        for k in range(depth - 1):
            right = (NONTERMINAL_BASE + k if kind == "doubling"
                     else draw(terminal))
            rules.append(Rule(NONTERMINAL_BASE + k, right))
    for _ in range(draw(st.integers(0, 40))):
        bound = NONTERMINAL_BASE + len(rules)
        side = (st.integers(0, bound - 1)
                | st.integers(max(0, bound - 3), bound - 1))
        rules.append(Rule(draw(side), draw(side)))
    lengths = [1] * NONTERMINAL_BASE
    for left, right in rules:
        lengths.append(lengths[left] + lengths[right])
    usable = [s for s, n in enumerate(lengths) if n <= EXPAND_BUDGET]
    seq = draw(st.lists(st.sampled_from(usable), max_size=40))
    return Grammar(rules), seq


@given(grammars_with_sequences())
@settings(max_examples=150, deadline=None)
def test_expand_engines_agree_on_grammars(case):
    grammar, seq = case
    assert expand(grammar, seq) == reference_expand(grammar, seq)


@given(*engine_cases)
@settings(max_examples=120, deadline=None)
def test_expand_engines_agree_on_compress_output(seq, min_frequency):
    grammar, final = compress(seq, min_frequency)
    assert expand(grammar, final) == reference_expand(grammar, final) \
        == bytes(seq)


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
        min_frequency = rng.choice([2, 2, 3])
        rng.randrange(4)  # a spent draw: later cases keep their inputs
        py_grammar, py_final = reference_compress(seq, min_frequency)
        c_grammar, c_final = compress(seq, min_frequency)
        assert py_grammar.rules == c_grammar.rules, (case, min_frequency)
        assert py_final.tolist() == c_final.tolist(), (case, min_frequency)


def test_engines_agree_on_exact_fits():
    """Inputs in which every rule replaces exactly two occurrences, so
    the final sequence and two slots per rule fill all n slots of the
    kernel's working array, the rules ending at its last slot."""
    for seq in (b"abab", b"abcabc", b"abcdabcd"):
        py_grammar, py_final = reference_compress(seq)
        c_grammar, c_final = compress(seq)
        assert len(c_final) + 2 * len(c_grammar) == len(seq), seq
        assert py_grammar.rules == c_grammar.rules, seq
        assert py_final.tolist() == c_final.tolist(), seq


def _de_bruijn_walk():
    """A walk over all 256 x 256 byte pairs in which every adjacent pair is
    new: the de Bruijn sequence of order 2 built from Lyndon words."""
    walk = []
    for a in range(256):
        walk.append(a)
        for b in range(a + 1, 256):
            walk += [a, b]
    return walk + [0]


def _repeated_walk(distinct):
    """A walk prefix twice over, with exactly `distinct` distinct pairs."""
    walk = _de_bruijn_walk()
    for m in (distinct - 1, distinct):
        seq = walk[:m + 1] * 2
        if len(set(zip(seq, seq[1:]))) == distinct:
            return seq
    raise AssertionError(f"no walk prefix has {distinct} distinct pairs")


# the kernel's record store starts at 256 records and doubles with the
# distinct pairs; byte input has at most 2**16 distinct pairs
GROWTH_STEPS = [256 << k for k in range(8)]

# reference_compress on each walk: (rules, final length, sha256 of the
# rule sides and final sequence as little-endian int64); it costs
# O(n x rules), about 17 minutes on each of the two largest walks on a
# 2-core x86-64 container, so its output is pinned
GROWTH_DIGESTS = {
    255: (254, 2,
        "2b45db90ec723fe5317fedf3e4d6fc70c76875369924be47b812ca1b15487598"),
    257: (256, 2,
        "1e7a927ee7e7b24ef00ae349f1339533af1d15fdebc39db1651be0252f9508e7"),
    511: (510, 2,
        "eb3d9dbf7ef577ca27181ab8778562111359d3883951e9bddec88914de30e927"),
    513: (511, 5,
        "d54bc5778956683ed095af9c6a3996da1dfd53a3e2cc30bb5f4bb19932bd705d"),
    1023: (1021, 5,
        "f22b3e56b0106b742f18d5ff3be418ed80478694c5b3a825a26a581f45140299"),
    1025: (1023, 5,
        "48d56d0e4f4d077e5120e336adddb395cafd11d1a9f8e9b6316e4b63f772d407"),
    2047: (2045, 5,
        "7bbc97b35bbde8f9575af39f26a8fa211beb140b265c13f5774002058fb15bd9"),
    2049: (2047, 5,
        "822eb0ffe3b742b5bcf4cd03e9d0f52a3a0a3fb50ff23f0c034a106a100ec40d"),
    4095: (4093, 5,
        "1abfe37de3d2f1c683661a085f575a610d5d3352316b407ad2500bc88b0dbb04"),
    4097: (4095, 5,
        "fb9a75e7e7d35e00083f22503e8f81b381ed755bdd46a689d307930dfa1b7ba8"),
    8191: (8189, 5,
        "960d92b61cd41eb6d8b2559250819fdb91ebf85e2d29e8cae218a44b1ffc0e0a"),
    8193: (8191, 5,
        "9c7550afbedaaa0e636912a1165bbd15ecf3942a5c6fcb13155214278631bc7f"),
    16383: (16381, 5,
        "82c762b6caf8edc13af149b18d4f7dd800fedd3203c3253915c0cbd9f4654f1a"),
    16385: (16383, 5,
        "f5b9d383c75e8eb64438584810898a636725685ca623a6a4ccc76fd6a08bf921"),
    32767: (32765, 5,
        "9d30b6f1c335baa48621d18b81a5e8619dab76b0983664b611406255507cc11a"),
    32769: (32767, 5,
        "f2950799a2e9a2ab773e0549a8b171536f410be615da03421e4e0cdd1fc99020"),
}


def _digest(grammar, final):
    hashed = hashlib.sha256()
    for part in (grammar.left, grammar.right, final):
        hashed.update(np.asarray(part, dtype="<i8").tobytes())
    return len(grammar), len(final), hashed.hexdigest()


@pytest.mark.parametrize("distinct", [step + side for step in GROWTH_STEPS
                                      for side in (-1, 1)])
def test_engines_agree_across_growth(distinct):
    """Distinct-pair counts just below and just past each doubling of the
    kernel's record store, from 256 to 32768 records.  Every pair occurs
    twice, so the rules release records after the store last grew and the
    kernel reuses them, about once per input symbol.  The walks make
    distinct - 2 rules, give or take one, so the cases also cross the
    doublings of the kernel's symbol maps, which start at 512 symbols and
    double at rule 257, 769, 1793, ..., 32513: 255 and 257 distinct pairs
    end at 254 and 256 rules, the most the first maps hold, 511 and 513
    cross the first doubling, and each later step one more, so that 32767
    and 32769 cross all seven.  compress must give reference_compress's
    output, pinned in GROWTH_DIGESTS."""
    assert _digest(*compress(_repeated_walk(distinct))) \
        == GROWTH_DIGESTS[distinct]


# the kernel queues counts below BUCKETS in buckets by count, higher ones
# in a heap
BUCKETS = int(re.search(r"^#define BUCKETS (\d+)",
                        _kernel.SOURCE.read_text(), re.MULTILINE).group(1))


def _bucket_edge_input(rng, top, shared):
    """Short words over a small alphabet, the first repeated top times and
    the others top times or a few less, shuffled, each followed by a
    spacer symbol of 64 or more.  Unless shared, no pair occurs in two
    words or twice in one, so the top count is exactly top."""
    alphabet = rng.randint(2, 6)
    words, seen = [], set()
    for _ in range(rng.randint(3, 10)):
        word = tuple(rng.randrange(alphabet) for _ in range(rng.randint(2, 4)))
        pairs = set(zip(word, word[1:]))
        if shared or (not pairs & seen and len(pairs) == len(word) - 1):
            words.append(word)
            seen |= pairs
    tokens = [word for k, word in enumerate(words)
              for _ in range(top - (k > 0) * rng.choice([0, 0, 0, 1, 2, 5]))]
    rng.shuffle(tokens)
    return [s for word in tokens for s in (*word, rng.randrange(64, 256))]


def test_engines_agree_at_bucket_edges():
    """Top counts one below, at and one above BUCKETS, where the kernel's
    heap hands the top over to its count buckets.  Many pairs tie at one
    count, so a bucket is taken in code order, and a word of three
    symbols or more makes a pair born at the count being taken.  Words
    that share pairs start at about twice the top, so their counts fall
    across BUCKETS and within the buckets as rules eat shared symbols.
    min_frequency 3 is among the configurations.  A walk prefix repeated
    top times ties 100 pairs."""
    rng = random.Random(0xB0C7)
    cases, tops = [], set()
    for case in range(240):
        top = BUCKETS + case % 3 - 1
        shared = case % 6 >= 3
        seq = _bucket_edge_input(rng, top, shared)
        if not shared:
            assert max(count_pairs(seq).values()) == top, case
            tops.add(top)
        cases.append((seq, rng.choice([2, 2, 3])))
        rng.randrange(5)  # a spent draw: later cases keep their inputs
    assert tops == {BUCKETS - 1, BUCKETS, BUCKETS + 1}
    walk = _de_bruijn_walk()[:101]
    cases += [(walk * top, 2) for top in (BUCKETS - 1, BUCKETS, BUCKETS + 1)]
    for case, (seq, min_frequency) in enumerate(cases):
        py_grammar, py_final = reference_compress(seq, min_frequency)
        c_grammar, c_final = compress(seq, min_frequency)
        assert py_grammar.rules == c_grammar.rules, (case, min_frequency)
        assert py_final.tolist() == c_final.tolist(), (case, min_frequency)


def _gate_input(kind, n):
    """n seeded symbols of one kind: random bytes, a photo-like field (a
    smooth 512-wide gradient, wrapped to bytes, plus noise of -2 to 2),
    or runs of 1 to 32 of eight symbols."""
    noise = np.frombuffer(random.Random(n).randbytes(n), np.uint8)
    if kind == "random":
        return noise
    if kind == "photo":
        x, y = np.arange(n) % 512, np.arange(n) // 512
        field = (x + 2 * y + (x * y >> 9)) // 4 + noise.astype(np.int64) % 5
        return ((field - 2) % 256).astype(np.uint8)
    return np.repeat(noise % 8, 1 + noise // 8)[:n]


# compress's output on each (kind, n) at the commit before the kernel read
# ahead, in _digest's form; reference_compress takes minutes at these sizes
GATE_DIGESTS = {
    ("random", 2**17 - 1): (14624, 85868,
        "8432dcd16219bc4a88ffacff37ce766575cba48b44d8a6848ab74b502aa57817"),
    ("random", 2**17): (14639, 85846,
        "80fc119ee6bc5e8677de71f3c02e3b5af26d3592032ae628615ea3426131af26"),
    ("random", 3 * 2**17 + 5): (32818, 234845,
        "8bfdda982572ab5246a8ed23fe07c8b21ab22741354e60b7a9b8b5287d07b263"),
    ("photo", 2**17 - 1): (9369, 49270,
        "29b6a8ab31b24618b46813467b004b11e226b3bc89d722332aad60c9a41f09ae"),
    ("photo", 2**17): (9456, 49181,
        "b5ed529a5eeff289ecb2e3102d0c48b4cda07096ec4fa369c3a8d89c88d3c8ff"),
    ("photo", 3 * 2**17 + 5): (22310, 131321,
        "8e8ff725de219d3abe649091139e9720df30e1ce9a0db0cb50c32764b94e8ba8"),
    ("runs", 2**17 - 1): (629, 6482,
        "5f4309671f9a56a8ddfd5ae95bc991bd17d55c44e0b9d3079c8233eed265bd93"),
    ("runs", 2**17): (641, 6464,
        "37dbcba1c63177bebbf28452e8ebcebd0d7f2f60c0d6131506393831dbecb252"),
    ("runs", 3 * 2**17 + 5): (1949, 17657,
        "17074c04814bb1c87f4e667c2ed794766e628714c511f71fe36e11256b88afae"),
}


@pytest.mark.parametrize("kind, n", list(GATE_DIGESTS))
def test_output_unchanged_across_read_ahead_gate(kind, n):
    """The walk reads ahead on every input, and its hints only read and
    prefetch, so on long inputs of each kind compress must give the
    output pinned before the hints existed."""
    seq = _gate_input(kind, n)
    assert len(seq) == n
    assert _digest(*compress(seq)) == GATE_DIGESTS[kind, n]


def test_every_entry_point_has_a_ctypes_signature():
    """Every rpim_* function defined in _kernel.c gets argtypes, one per C
    parameter and none for (void), and a restype in _kernel.load(), c_int
    for an int function and None for a void one; without them ctypes
    would pass an int64 count as a C int."""
    # (return type, name, parameter list) of each definition
    entries = re.findall(r"^(int|void) (rpim_\w+)\(([^)]*)\)",
                         _kernel.SOURCE.read_text(), re.MULTILINE)
    assert {"rpim_compress", "rpim_decode_body", "rpim_free",
            "rpim_release"} <= {name for _, name, _ in entries}
    lib = _kernel.load()
    for kind, name, params in entries:
        function = getattr(lib, name)
        assert function.argtypes is not None, name
        count = 0 if params.strip() == "void" else params.count(",") + 1
        assert len(function.argtypes) == count, name
        assert function.restype is (ctypes.c_int if kind == "int"
                                    else None), name


def test_kernel_under_sanitizers(tmp_path):
    """_kernel.c with AddressSanitizer and UndefinedBehaviorSanitizer over
    the cases in tests/sanitize_kernel.c, which includes it, so that the
    compiler checks every call against the kernel's own definitions; the
    one translation unit must build without warnings."""
    flags = ["-fsanitize=address,undefined", "-fno-sanitize-recover=all",
             "-g", "-O1", "-Wall", "-Wextra", "-Werror"]
    probe = tmp_path / "probe.c"
    probe.write_text("int main(void) { return 0; }\n")
    try:
        subprocess.run([_kernel.COMPILER, *flags, "-o", str(tmp_path / "probe"),
                        str(probe)], check=True, capture_output=True,
                       timeout=120)
    except (OSError, subprocess.CalledProcessError) as exc:
        pytest.skip(f"{_kernel.COMPILER} cannot build with sanitizers: {exc}")
    program = tmp_path / "sanitize_kernel"
    build = subprocess.run(
        [_kernel.COMPILER, *flags, "-o", str(program),
         str(Path(__file__).with_name("sanitize_kernel.c"))],
        capture_output=True, text=True, timeout=120)
    assert build.returncode == 0, build.stderr
    result = subprocess.run([str(program)], capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.strip() == "ok"


def test_kernel_refuses_input_above_cap():
    """The C entry point refuses an n above 2**31 - 1 before touching its
    buffers, and compress_array refuses it before allocating."""
    lib = _kernel.load()
    one = np.zeros(1, np.uint8)
    sym = np.full(1, -7, np.int32)
    sizes = np.zeros(2, np.int64)
    for n in (_kernel.MAX_SYMBOLS + 1, 2**63 - 1):
        status = lib.rpim_compress(one, n, 2, sym, sizes)
        assert status == 2  # RPIM_EBOUND
        assert sym.tolist() == [-7]

    # a zero-stride view claims 2**31 symbols without holding them
    forged = np.broadcast_to(np.uint8(0), (_kernel.MAX_SYMBOLS + 1,))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            _kernel.compress_array(forged, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_compress_array_allocates_one_working_array():
    """compress_array allocates one int32 value per input symbol, the
    kernel's working array, and nothing sized for the worst-case rule
    count: the rules come back in that array's tail.  Random bytes make
    the most rules; a separate rule array of n // 2 + 2 pairs took the
    traced peak to 8 bytes per symbol."""
    noise = np.frombuffer(random.Random(1).randbytes(2**20), np.uint8)
    tracemalloc.start()
    try:
        rules, final = _kernel.compress_array(noise, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rules) > 0
    per_symbol = peak / noise.size
    assert per_symbol <= 5, f"{per_symbol:.2f} B per symbol"


def test_compress_memory_per_symbol():
    """Compressing a 3 MB solid stream grows peak RSS by at most 40 bytes
    per input symbol; a kernel sized by the input length took about 100.
    1 MiB of random bytes, whose distinct pairs grow with the input,
    grows it by at most 25, the grammar and final sequence included; it
    took 30 while records of count 1 stayed live until a replacement
    next to them took them back, where the kernel now releases them when
    their step ends."""
    setup = """
        import random
        import rpim
        from rpim import _kernel
        assert _kernel.available()
        solid = bytes([40, 90, 200]) * 2**20
        noise = random.Random(1).randbytes(2**20)
    """
    growth = peak_rss_growth(setup, """
        grammar, final = rpim.compress(solid)
        assert len(final) < 100
    """)
    per_symbol = growth * 1024 / (3 * 2**20)
    assert per_symbol <= 40, f"{per_symbol:.1f} B per solid symbol"
    growth = peak_rss_growth(setup, """
        grammar, final = rpim.compress(noise)
    """)
    per_symbol = growth * 1024 / 2**20
    assert per_symbol <= 25, f"{per_symbol:.1f} B per random symbol"


# the fewest symbols whose slot block, 12 bytes per symbol, reaches the
# 32 MiB from which the kernel keeps it between calls
HELD = -(-(32 << 20) // 12)


def test_held_slot_block_is_written_before_it_is_read():
    """A slot block of 32 MiB or more stays with the kernel between
    compress calls, holding the last call's values.  Inputs above that
    size in turn, a smaller one that reuses the block, a larger one that
    replaces it and the first again, must each give what they give on a
    fresh block, so no slot is read before the call writes it."""
    assert HELD == 2_796_203
    inputs = [_gate_input("runs", HELD + 100_000), _gate_input("photo", HELD),
              _gate_input("runs", HELD + 300_000)]
    try:
        fresh = []
        for seq in inputs:
            _kernel.release()
            fresh.append(_digest(*compress(seq)))
        for k in (0, 1, 2, 0):
            assert _digest(*compress(inputs[k])) == fresh[k], k
    finally:
        _kernel.release()


def test_threads_compress_at_once():
    """ctypes releases the GIL, so threads may run the kernel at once:
    one takes the held slot block, the others make their own, and each
    block handed back displaces the one held before.  Three threads, one
    more than the cores of a small machine, must each give what their
    input gives alone."""
    inputs = [_gate_input("runs", HELD + 1000),
              _gate_input("photo", HELD + 2000),
              _gate_input("runs", HELD + 3000)]
    barrier = threading.Barrier(len(inputs), timeout=60)
    results = [None] * len(inputs)

    def work(k):
        barrier.wait()
        results[k] = _digest(*compress(inputs[k]))

    interval = sys.getswitchinterval()
    try:
        alone = [_digest(*compress(seq)) for seq in inputs]
        sys.setswitchinterval(1e-5)
        for _ in range(2):
            results[:] = [None] * len(inputs)
            threads = [threading.Thread(target=work, args=(k,))
                       for k in range(len(inputs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
            assert results == alone
    finally:
        sys.setswitchinterval(interval)
        _kernel.release()


def test_engine_unavailable_without_compiler(monkeypatch, tmp_path):
    """Without a compiler every call into the C engine raises
    EngineUnavailableError naming the failure, and the failed build leaves
    nothing in the cache."""
    data = b"abracadabra abracadabra " * 4
    grammar, final = compress(data)
    artifact = CompressedArtifact(RawPayload(len(data)), grammar, final)
    blob = serialize(artifact)
    cache = break_compiler(monkeypatch, tmp_path)
    calls = [lambda: compress(data), lambda: expand(grammar, final),
             lambda: serialize(artifact), lambda: deserialize(blob)]
    for call in calls:
        with pytest.raises(EngineUnavailableError, match="missing-cc"):
            call()
    assert _kernel.load() is None
    assert not list(cache.rglob("*.so*")), "failed build left a file behind"
