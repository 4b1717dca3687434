"""Compressor unit and property tests."""

from __future__ import annotations

import ctypes
import itertools
import os
import random
import re
import subprocess
import sys
import textwrap
import time
import tracemalloc
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
    reference_expand,
    replace_step,
)

from conftest import (
    DOUBLING_CHAIN,
    full_state_check,
    greedy_pair_counts,
    needs_c_engine,
    pair_code,
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
        rules = []
        assert replace_step(array, table, rules) is True
        assert array.working_sequence() == [256, 256]
        assert rules == [(7, 8)]

    def test_nothing_repeats(self):
        array, table = build_sequence_array([1, 2, 3, 4])
        rules = []
        assert replace_step(array, table, rules) is False
        assert rules == []

    def test_tie_broken_lexicographically(self):
        # (1,1) and (1,2) both count 2; (1,1) is smaller
        array, table = build_sequence_array([1, 1, 2, 1, 1, 2])
        rules = []
        assert replace_step(array, table, rules) is True
        assert rules == [(1, 1)]
        assert array.working_sequence() == [256, 2, 256, 2]
        full_state_check(array, table, "after tie-break step")

    def test_run_head_erosion(self):
        # replacing (0,1) consumes the head of the 1-run; the (1,1)
        # credits must be recounted from the new run start
        seq = [0, 1, 1, 1, 1, 1, 0, 1]
        array, table = build_sequence_array(seq)
        rules = []
        assert replace_step(array, table, rules) is True
        assert rules == [(0, 1)]
        full_state_check(array, table, "after erosion step")

    def test_min_frequency_respected(self):
        array, table = build_sequence_array([7, 8, 7, 8])
        rules = []
        assert replace_step(array, table, rules, min_frequency=3) is False
        assert array.working_sequence() == [7, 8, 7, 8]


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

    def test_max_rules_caps_grammar(self):
        config = CompressorConfig(max_rules=1)
        grammar, final = compress(bytes([1, 2] * 4), config)
        assert grammar.rules == [(1, 2)]
        assert final.tolist() == [256, 256, 256, 256]

    def test_min_frequency_three(self):
        config = CompressorConfig(min_frequency=3)
        grammar, final = compress(bytes([1, 2] * 2), config)
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

    @pytest.mark.parametrize("grammar, seq, message", [
        (Grammar(), [256], "sequence symbol 256 is undefined"),
        (Grammar(), [-1], "sequence symbol -1 is undefined"),
        (Grammar([Rule(257, 0)]), [256],
         "rule 0 references symbol outside [0, 256)"),
        (Grammar([Rule(97, 98), Rule(97, -1)]), [97],
         "rule 1 references symbol outside [0, 257)"),
    ])
    def test_malformed_error_names_the_fault(self, grammar, seq, message):
        # the C length pass finds the fault; the error and its wording
        # match the fallback's
        for expander in (expand, reference_expand):
            with pytest.raises(MalformedGrammarError) as caught:
                expander(grammar, seq)
            assert type(caught.value) is MalformedGrammarError
            assert str(caught.value) == message

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
    rules = []
    while True:
        counts = greedy_pair_counts(array.working_sequence())
        if not replace_step(array, table, rules):
            break
        # the chosen pair must have been maximal, ties broken toward
        # the smallest (left, right)
        chosen = tuple(rules[-1])
        top = max(counts.values())
        assert counts[chosen] == top
        assert chosen == min(p for p, c in counts.items() if c == top)
        full_state_check(array, table, f"after step {len(rules)}")
    assert expand(Grammar(rules), array.working_sequence()) == bytes(seq)


@given(byte_strings)
@settings(max_examples=100, deadline=None)
def test_grammar_is_acyclic(data):
    grammar, _ = compress(data)
    for ordinal, rule in enumerate(grammar.rules):
        assert rule.left < NONTERMINAL_BASE + ordinal
        assert rule.right < NONTERMINAL_BASE + ordinal


# compress inputs and configurations the engines are compared on
engine_cases = (st.lists(st.integers(0, 255), max_size=2000),
                st.sampled_from([2, 3]), st.sampled_from([None, 0, 1, 7]))


@needs_c_engine
@given(*engine_cases)
@settings(max_examples=120, deadline=None)
def test_engines_agree(seq, min_frequency, max_rules):
    config = CompressorConfig(min_frequency=min_frequency,
                              max_rules=max_rules)
    py_grammar, py_final = reference_compress(seq, config)
    c_grammar, c_final = compress(seq, config)
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


@needs_c_engine
@given(grammars_with_sequences())
@settings(max_examples=150, deadline=None)
def test_expand_engines_agree_on_grammars(case):
    grammar, seq = case
    assert expand(grammar, seq) == reference_expand(grammar, seq)


@needs_c_engine
@given(*engine_cases)
@settings(max_examples=120, deadline=None)
def test_expand_engines_agree_on_compress_output(seq, min_frequency,
                                                 max_rules):
    config = CompressorConfig(min_frequency=min_frequency,
                              max_rules=max_rules)
    grammar, final = compress(seq, config)
    assert expand(grammar, final) == reference_expand(grammar, final) \
        == bytes(seq)


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
        assert py_final.tolist() == c_final.tolist(), (case, config)


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


@needs_c_engine
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
    and 32769 cross all seven."""
    seq = _repeated_walk(distinct)
    py_grammar, py_final = reference_compress(seq)
    c_grammar, c_final = compress(seq)
    assert py_grammar.rules == c_grammar.rules
    assert py_final.tolist() == c_final.tolist()


@needs_c_engine
def test_every_entry_point_has_a_ctypes_signature():
    """Every int rpim_*( function defined in _kernel.c gets argtypes, one
    per C parameter, and an int restype in _kernel.load(); without them
    ctypes would pass an int64 count as a C int."""
    entries = re.findall(r"^int (rpim_\w+)\(([^)]*)\)",
                         _kernel.SOURCE.read_text(), re.MULTILINE)
    assert {"rpim_compress", "rpim_decode_body"} <= {n for n, _ in entries}
    lib = _kernel.load()
    for name, params in entries:
        function = getattr(lib, name)
        assert function.argtypes is not None, name
        assert len(function.argtypes) == params.count(",") + 1, name
        assert function.restype is ctypes.c_int, name


def test_kernel_under_sanitizers(tmp_path):
    """_kernel.c with AddressSanitizer and UndefinedBehaviorSanitizer over
    the cases in tests/sanitize_kernel.c; both files must build without
    warnings."""
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
         str(Path(__file__).with_name("sanitize_kernel.c")),
         str(_kernel.SOURCE)], capture_output=True, text=True, timeout=120)
    assert build.returncode == 0, build.stderr
    result = subprocess.run([str(program)], capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.strip() == "ok"


@needs_c_engine
def test_kernel_refuses_input_above_cap():
    """The C entry point refuses an n above 2**31 - 1 before touching its
    buffers, and compress_array refuses it before allocating."""
    lib = _kernel.load()
    one = np.zeros(1, np.uint8)
    sym, left, right = (np.full(1, -7, np.int32) for _ in range(3))
    sizes = np.zeros(2, np.int64)
    for n in (_kernel.MAX_SYMBOLS + 1, 2**63 - 1):
        status = lib.rpim_compress(one, n, 2, -1, sym, left, right, 1, sizes)
        assert status == 2  # RPIM_EBOUND
        assert sym[0] == left[0] == right[0] == -7

    # a zero-stride view claims 2**31 symbols without holding them
    forged = np.broadcast_to(np.uint8(0), (_kernel.MAX_SYMBOLS + 1,))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            _kernel.compress_array(forged, 2, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@needs_c_engine
def test_compress_memory_per_symbol():
    """Compressing a 3 MB solid stream grows peak RSS by at most 40 bytes
    per input symbol; a kernel sized by the input length took about 100."""
    script = textwrap.dedent("""
        import resource
        import rpim
        from rpim import _kernel
        assert _kernel.available()
        data = bytes([40, 90, 200]) * 2**20
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        grammar, final = rpim.compress(data)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert len(final) < 100
        print((after - before) * 1024 / len(data))
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(_kernel.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    per_symbol = float(result.stdout)
    assert per_symbol <= 40, f"{per_symbol:.1f} B per input symbol"


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
        assert expand(*outputs[0]) == data
        with pytest.raises(RuntimeError):
            _kernel.compress_array(np.frombuffer(data, np.uint8), 2, None)
    assert [w.category for w in caught] == [RuntimeWarning]
    expected = reference_compress(data)
    assert all(as_lists(out) == as_lists(expected) for out in outputs)
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
