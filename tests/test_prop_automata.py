"""Property tests: regular-language laws on the automata toolchain.

Beyond agreeing with Python's ``re`` (test_properties), the NFA must honor
the algebra its constructors claim: union is language-or, concat splits
words, star accepts powers, sampling only produces members, and rendering
round-trips through the parser.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.automata import PositionNFA, parse_regex, sample_word
from repro.automata import ast as rast

ALPHABET = "ab"


@st.composite
def regexes(draw, max_depth=3):
    def build(depth):
        if depth <= 0:
            return draw(
                st.sampled_from(
                    [rast.Epsilon()] + [rast.Symbol(c) for c in ALPHABET]
                )
            )
        kind = draw(st.integers(0, 3))
        if kind == 0:
            return draw(st.sampled_from([rast.Symbol(c) for c in ALPHABET]))
        if kind == 1:
            return rast.Concat((build(depth - 1), build(depth - 1)))
        if kind == 2:
            return rast.Union((build(depth - 1), build(depth - 1)))
        return rast.Star(build(depth - 1))

    return build(max_depth)


words = st.lists(st.sampled_from(ALPHABET), max_size=5)


@given(regexes(), regexes(), words)
@settings(max_examples=100, deadline=None)
def test_union_is_language_or(r1, r2, word):
    union = PositionNFA.from_regex(rast.Union((r1, r2)))
    either = PositionNFA.from_regex(r1).accepts(word) or PositionNFA.from_regex(
        r2
    ).accepts(word)
    assert union.accepts(word) == either


@given(regexes(), regexes(), words)
@settings(max_examples=100, deadline=None)
def test_concat_is_word_splitting(r1, r2, word):
    concat = PositionNFA.from_regex(rast.Concat((r1, r2)))
    nfa1 = PositionNFA.from_regex(r1)
    nfa2 = PositionNFA.from_regex(r2)
    splittable = any(
        nfa1.accepts(word[:i]) and nfa2.accepts(word[i:])
        for i in range(len(word) + 1)
    )
    assert concat.accepts(word) == splittable


@given(regexes(), st.integers(0, 3), st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_star_accepts_powers(regex, power, seed):
    star = PositionNFA.from_regex(rast.star(regex))
    rng = random.Random(seed)
    word = []
    for _ in range(power):
        word.extend(sample_word(regex, rng, alphabet=ALPHABET))
    assert star.accepts(word)


@given(regexes(), st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_sampled_words_are_members(regex, seed):
    word = sample_word(regex, random.Random(seed), alphabet=ALPHABET)
    assert PositionNFA.from_regex(regex).accepts(word)


@given(regexes(), words)
@settings(max_examples=100, deadline=None)
def test_render_parse_round_trip_preserves_language(regex, word):
    reparsed = parse_regex(str(regex))
    assert PositionNFA.from_regex(reparsed).accepts(word) == PositionNFA.from_regex(
        regex
    ).accepts(word)


@given(regexes(), words)
@settings(max_examples=60, deadline=None)
def test_epsilon_is_concat_identity(regex, word):
    with_eps = rast.Concat((rast.Epsilon(), regex))
    assert PositionNFA.from_regex(with_eps).accepts(word) == PositionNFA.from_regex(
        regex
    ).accepts(word)

def _structural_size(value):
    """``payload_size``'s generic rules, walked field by field: what a
    dataclass without its own ``payload_size`` is charged."""
    from dataclasses import fields, is_dataclass

    from repro.distributed.messages import payload_size

    if is_dataclass(value):
        return 2 + sum(_structural_size(getattr(value, f.name)) for f in fields(value))
    if isinstance(value, (tuple, list, set, frozenset)):
        return 2 + sum(map(_structural_size, value))
    return payload_size(value)


#: Labels of several byte lengths, and the wildcard, so label sizes vary.
_LABELED = st.sampled_from(
    [rast.Symbol("a"), rast.Symbol("bb"), rast.Symbol("café"), rast.Wildcard()]
)


@st.composite
def labeled_regexes(draw, max_depth=3):
    def build(depth):
        if depth <= 0:
            return draw(st.one_of(st.just(rast.Epsilon()), _LABELED))
        kind = draw(st.integers(0, 4))
        if kind == 0:
            return draw(_LABELED)
        if kind in (1, 2):
            cls = rast.Concat if kind == 1 else rast.Union
            return cls(tuple(build(depth - 1) for _ in range(draw(st.integers(2, 3)))))
        if kind == 3:
            return rast.Star(build(depth - 1))
        return rast.Epsilon()

    return build(max_depth)


@given(labeled_regexes(), st.sampled_from([0, "s", ("n", 7), "ü-node"]), st.integers(-3, 99))
@settings(max_examples=200, deadline=None)
def test_automaton_size_by_arithmetic_matches_the_structural_rule(regex, source, target):
    """What the coordinator broadcasts is sized by arithmetic over the
    Glushkov fields; the number is the generic dataclass walk's."""
    from repro.automata import QueryAutomaton
    from repro.automata.glushkov import analyze
    from repro.distributed.messages import payload_size

    automaton = QueryAutomaton(analyze(regex), source, target)
    assert automaton.analysis.payload_size() == _structural_size(automaton.analysis)
    assert payload_size(automaton) == automaton.payload_size() == _structural_size(automaton)
    automaton.compiled  # the memoized tables are not part of the size
    assert payload_size(automaton) == _structural_size(automaton)
