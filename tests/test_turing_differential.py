"""The search and run engine against the reference engine in ``oracles``.

Random small machines (1-2 tapes, deterministic and nondeterministic, with
loops, left moves from square 1, writes that grow the tape and, in one
variant, writes of the blank) must give
exactly the reference outcome, witness path included, for every step and
space bound.  The untraced search and run walk right-moving steps as a
finite automaton over a memo kept on the machine: every walk must give
exactly the reference's outcome without its trace, for every step and
space bound, and on the edge cases of the walk, also when the machine's
memo has served other words, bounds and modes before.
"""

import itertools
import pickle
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cyclogic import fixtures, harness, turing
from cyclogic.machinefile import format_machine
from cyclogic.turing import RunOutcome, Transition, make_machine
from oracles import brute_force_accepts, reference_run, reference_search

MAX_T = 7
MAX_SPACE = 5


@st.composite
def machines(draw, deterministic=None):
    """A machine and an input word.  Every (state, scanned) key, final
    states included, draws its own target list; an empty one leaves the
    key out of the table.  In one variant the machine may write the blank:
    ``make_machine`` builds such machines, and ``validate`` only flags them."""
    tapes = draw(st.integers(1, 2))
    work = [f"q{i}" for i in range(draw(st.integers(1, 3)))]
    states = work + ["qA", "qR"]
    inputs = draw(st.sampled_from([["a"], ["a", "b"]]))
    symbols = inputs + ["x", "_"]
    written = symbols if draw(st.booleans()) else symbols[:-1]
    if deterministic is None:
        deterministic = draw(st.booleans())
    targets = st.lists(
        st.builds(
            Transition,
            st.sampled_from(states),
            st.tuples(*[st.sampled_from(written)] * tapes),
            st.tuples(*[st.sampled_from("LR")] * tapes),
        ),
        max_size=1 if deterministic else 3,
    )
    transitions = {}
    for key in itertools.product(states, itertools.product(symbols, repeat=tapes)):
        if chosen := draw(targets):
            transitions[key] = chosen
    m = make_machine(
        states=states,
        tape_alphabet=symbols,
        blank="_",
        input_alphabet=inputs,
        transitions=transitions,
        initial="q0",
        accept="qA",
        reject="qR",
        tapes=tapes,
    )
    word = tuple(draw(st.lists(st.sampled_from(inputs), max_size=4)))
    return m, word


def assert_search_matches(m, word):
    for t in range(MAX_T + 1):
        want = reference_search(m, word, t)
        assert turing.accepts_within(m, word, t) == want, t
        untraced = turing.accepts_within(m, word, t, want_trace=False)
        assert untraced == replace(want, trace=None), t
        assert (want.verdict == "accepted") == brute_force_accepts(m, word, t), t
        for s in range(1, MAX_SPACE + 1):
            want = reference_search(m, word, t, space=s)
            assert turing.accepts_within_space(m, word, t, s) == want, (t, s)
            untraced = turing.accepts_within_space(m, word, t, s, want_trace=False)
            assert untraced == replace(want, trace=None), (t, s)


def assert_run_matches(m, word):
    for t in range(MAX_T + 1):
        want = reference_run(m, word, t)
        assert turing.run_deterministic(m, word, t, want_trace=True) == want, t
        assert turing.run_deterministic(m, word, t) == replace(want, trace=None), t


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(machines())
def test_search_matches_reference(case):
    assert_search_matches(*case)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(machines(deterministic=True))
def test_run_matches_reference(case):
    assert_run_matches(*case)


def assert_memo_across_bounds_matches(m, word):
    """The untraced search of one machine, each bound reusing the walk memo
    the ones before filled, against the reference and the traced search,
    which walks nothing, both without their traces."""
    for t in range(MAX_T + 1):
        want = replace(reference_search(m, word, t), trace=None)
        assert turing.accepts_within(m, word, t, want_trace=False) == want, t
        assert replace(turing.accepts_within(m, word, t), trace=None) == want, t


def assert_walk_matches(m, word):
    """For a machine whose every move is right: the untraced search, space-
    bounded search and run are decided by the walk alone, and equal the
    reference without its trace."""
    deterministic = turing.is_deterministic(m)
    for t in range(MAX_T + 1):
        want = replace(reference_search(m, word, t), trace=None)
        assert turing._walk(m, word, t, None, run=False) == want, t
        assert turing.accepts_within(m, word, t, want_trace=False) == want, t
        for s in range(1, MAX_SPACE + 1):
            want = replace(reference_search(m, word, t, space=s), trace=None)
            assert turing._walk(m, word, t, s, run=False) == want, (t, s)
            assert turing.accepts_within_space(m, word, t, s, want_trace=False) == want, (t, s)
        if deterministic:
            want = replace(reference_run(m, word, t), trace=None)
            assert turing._walk(m, word, t, None, run=True) == want, t
            assert turing.run_deterministic(m, word, t) == want, t


def right_moving(m):
    """``m`` with every move of every transition turned right."""
    return replace(m, transitions={
        key: tuple(replace(tr, moves=("R",) * len(tr.moves)) for tr in targets)
        for key, targets in m.transitions.items()
    })


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(machines())
def test_right_moving_walk_matches_reference(case):
    m, word = case
    assert_walk_matches(right_moving(m), word)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(machines(deterministic=True))
def test_memo_across_bounds_matches_the_reference(case):
    m, word = case
    assert_memo_across_bounds_matches(right_moving(m), word)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(machines())
def test_exact_under_colliding_digests(case):
    """With every digest term equal, each dedup-key match between different
    tapes is a collision that only the exact comparison can settle."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(turing, "hash", lambda _: 0, raising=False)
        assert_search_matches(*case)


def one_tape(transitions):
    return make_machine(
        states={q for q, _ in transitions} | {"qA", "qR"},
        tape_alphabet=["a", "b", "x", "_"],
        blank="_",
        input_alphabet=["a", "b"],
        transitions={(q, (s,)): [Transition(p, (w,), (mv,)) for p, w, mv in targets]
                     for (q, s), targets in transitions.items()},
        initial="q0",
        accept="qA",
        reject="qR",
    )


#: Two siblings in the same state at the same square differ only in the
#: symbol they wrote, and only the second one's symbol leads to acceptance.
SIBLINGS = one_tape({
    ("q0", "a"): [("q1", "a", "R"), ("q1", "b", "R")],
    ("q1", "_"): [("q2", "x", "L")],
    ("q2", "b"): [("qA", "b", "R")],
})

#: Deterministic loop that rewrites square 1 and comes back to the start
#: configuration after four steps.
REWRITING_LOOP = one_tape({
    ("q0", "a"): [("q1", "b", "R")],
    ("q1", "a"): [("q2", "a", "L")],
    ("q2", "b"): [("q3", "a", "R")],
    ("q3", "a"): [("q0", "a", "L")],
})


#: Deterministic, but its left move brings back the start configuration
#: after two steps: the search stops at the repeat, a run goes round.
BOUNCE = one_tape({
    ("q0", "a"): [("q1", "a", "R")],
    ("q1", "a"): [("q0", "a", "L")],
})


#: Two tapes: copies its first a to tape 2, then turns both heads left
#: and accepts on reading the a's back.
SECOND_TAPE_LEFT = make_machine(
    states=["q0", "q1", "qA", "qR"],
    tape_alphabet=["a", "_"],
    blank="_",
    input_alphabet=["a"],
    transitions={
        ("q0", ("a", "_")): [Transition("q1", ("a", "a"), ("R", "R"))],
        ("q1", ("a", "_")): [Transition("q1", ("a", "a"), ("L", "L"))],
        ("q1", ("a", "a")): [Transition("qA", ("a", "a"), ("R", "R"))],
    },
    initial="q0",
    accept="qA",
    reject="qR",
    tapes=2,
)


def test_a_left_move_keeps_the_search():
    assert turing._walk(BOUNCE, ("a", "a"), 5, None, run=False) == 1  # hands over
    assert turing.accepts_within(BOUNCE, "aa", 5, want_trace=False) == RunOutcome("dead-end", 1, 2)
    assert turing.run_deterministic(BOUNCE, "aa", 5) == RunOutcome("bound-exceeded", 5, 2)


def test_rejecting_at_the_bound_is_bound_exceeded():
    """The search skips the reject state, so a rejection on step t reads as
    the bound reached, and one before step t as a dead end."""
    wide, _ = harness.build_machine_pair("digit-sum-parity", 2, 4)
    word = ("1", "0")
    assert turing.run_deterministic(wide, word, 3) == RunOutcome("rejected", 3, 4)
    for t, verdict in ((3, "bound-exceeded"), (4, "dead-end")):
        outcome = turing.accepts_within(wide, word, t, want_trace=False)
        assert outcome == RunOutcome(verdict, 3, 4), t
        assert outcome == replace(reference_search(wide, word, t), trace=None), t


#: Deterministic and right-moving: reads its a's, then steps between q0
#: and q1 on the blanks forever.
BLANK_LOOP = one_tape({
    ("q0", "a"): [("q0", "a", "R")],
    ("q0", "_"): [("q1", "x", "R")],
    ("q1", "_"): [("q0", "x", "R")],
})

#: 2-tape and right-moving.  Its second head always scans the blank just
#: past the mark it wrote, so the (q1; a,x) row never fires: on "aa" no row
#: applies to the second step, and on "a" the second step rejects.
SECOND_TAPE_KEYED = make_machine(
    states=["q0", "q1", "qA", "qR"],
    tape_alphabet=["a", "x", "_"],
    blank="_",
    input_alphabet=["a"],
    transitions={
        ("q0", ("a", "_")): [Transition("q1", ("a", "x"), ("R", "R"))],
        ("q1", ("_", "_")): [Transition("qR", ("x", "x"), ("R", "R"))],
        ("q1", ("a", "x")): [Transition("qA", ("a", "x"), ("R", "R"))],
    },
    initial="q0",
    accept="qA",
    reject="qR",
    tapes=2,
)


@pytest.mark.parametrize("m, word, t, want", [
    (turing.scanner("qA", "a", {}, {}), "aa", 0, RunOutcome("accepted", 0, 1)),
    (turing.scanner("qA", "a", {}, {}), "aa", 3, RunOutcome("accepted", 0, 1)),
    (turing.scanner("qR", "a", {}, {}), "aa", 0, RunOutcome("bound-exceeded", 0, 1)),
    (turing.scanner("qR", "a", {}, {}), "aa", 3, RunOutcome("dead-end", 0, 1)),
    (fixtures.even_a_machine(), "", 0, RunOutcome("bound-exceeded", 0, 1)),
    (fixtures.even_a_machine(), "", 1, RunOutcome("accepted", 1, 2)),
    (turing.scanner("q0", "a", {}, {}), "", 0, RunOutcome("bound-exceeded", 0, 1)),
    (turing.scanner("q0", "a", {}, {}), "a", 3, RunOutcome("dead-end", 0, 1)),
    (SECOND_TAPE_KEYED, "aa", 3, RunOutcome("dead-end", 1, 2)),
    (SECOND_TAPE_KEYED, "a", 2, RunOutcome("bound-exceeded", 2, 3)),
    (SECOND_TAPE_KEYED, "a", 3, RunOutcome("dead-end", 2, 3)),
    (BLANK_LOOP, "aa", 1023, RunOutcome("bound-exceeded", 1023, 1024)),
    (BLANK_LOOP, "aa", 1024, RunOutcome("bound-exceeded", 1024, 1025)),
    (BLANK_LOOP, "", 1024, RunOutcome("bound-exceeded", 1024, 1025)),
], ids=[
    "initial-accept-t0", "initial-accept-t3", "initial-reject-t0", "initial-reject-t3",
    "empty-word-t0", "empty-word-t1", "empty-table-t0", "empty-table-t3",
    "second-tape-keyed-dies", "second-tape-keyed-rejects-at-t", "second-tape-keyed-rejects",
    "blank-loop-t1023", "blank-loop-t1024", "blank-loop-empty-word",
])
def test_walk_edge_cases(m, word, t, want):
    """The walk alone decides each case, on the memo that the cases before
    left on the machine, and the untraced search equals it."""
    word = tuple(word)
    assert turing._walk(m, word, t, None, run=False) == want
    assert turing.accepts_within(m, word, t, want_trace=False) == want
    assert replace(reference_search(m, word, t), trace=None) == want


#: Walks right over its a's, turns left on the first blank and accepts on
#: the last a: every step but the last two moves right.
RIGHT_THEN_LEFT = one_tape({
    ("q0", "a"): [("q0", "a", "R")],
    ("q0", "_"): [("q1", "x", "L")],
    ("q1", "a"): [("qA", "a", "R")],
})

#: Branches into both final states on its first step.
BOTH_FINALS = turing.scanner("q0", "a", {"q0": {"a": ("qR", "qA")}}, {})


def untraced(m, word, mode, t, s):
    if mode == "run":
        return turing.run_deterministic(m, word, t)
    if mode == "accept":
        return turing.accepts_within(m, word, t, want_trace=False)
    return turing.accepts_within_space(m, word, t, s, want_trace=False)


@pytest.mark.parametrize("m, word, mode, t, s, want", [
    (fixtures.even_a_machine(), "a", "run", 2, None, RunOutcome("rejected", 2, 3)),
    (fixtures.even_a_machine(), "a", "accept", 2, None, RunOutcome("bound-exceeded", 2, 3)),
    (fixtures.even_a_machine(), "a", "accept", 3, None, RunOutcome("dead-end", 2, 3)),
    (fixtures.even_a_machine(), "a", "space", 3, 2, RunOutcome("dead-end", 1, 2)),
    (fixtures.walk_right_machine(3), "aaa", "space", 9, 4, RunOutcome("accepted", 3, 4)),
    (fixtures.walk_right_machine(3), "aaa", "space", 9, 3, RunOutcome("dead-end", 2, 3)),
    (fixtures.walk_right_machine(3), "aaa", "space", 2, 3, RunOutcome("bound-exceeded", 2, 3)),
    (fixtures.walk_right_machine(3), "aaa", "space", 9, 1, RunOutcome("dead-end", 0, 1)),
    (RIGHT_THEN_LEFT, "aaa", "run", 9, None, RunOutcome("accepted", 5, 4)),
    (RIGHT_THEN_LEFT, "aaa", "accept", 9, None, RunOutcome("accepted", 5, 4)),
    (RIGHT_THEN_LEFT, "aaa", "space", 9, 4, RunOutcome("accepted", 5, 4)),
    (RIGHT_THEN_LEFT, "aaa", "accept", 3, None, RunOutcome("bound-exceeded", 3, 4)),
    (BOTH_FINALS, "a", "accept", 1, None, RunOutcome("accepted", 1, 2)),
    (BOTH_FINALS, "a", "space", 1, 1, RunOutcome("dead-end", 0, 1)),
    (BOTH_FINALS, "a", "space", 1, 2, RunOutcome("accepted", 1, 2)),
    (BOTH_FINALS, "a", "accept", 0, None, RunOutcome("bound-exceeded", 0, 1)),
    (SECOND_TAPE_KEYED, "a", "run", 9, None, RunOutcome("rejected", 2, 3)),
    (SECOND_TAPE_KEYED, "aa", "run", 9, None, RunOutcome("dead-end", 1, 2)),
    (SECOND_TAPE_KEYED, "aa", "accept", 9, None, RunOutcome("dead-end", 1, 2)),
    (SECOND_TAPE_KEYED, "aa", "space", 9, 5, RunOutcome("dead-end", 1, 2)),
    (turing.scanner("qA", "a", {}, {}), "a", "run", 0, None, RunOutcome("accepted", 0, 1)),
    (turing.scanner("qA", "a", {}, {}), "a", "space", 0, 1, RunOutcome("accepted", 0, 1)),
    (turing.scanner("qR", "a", {}, {}), "a", "run", 0, None, RunOutcome("rejected", 0, 1)),
    (turing.scanner("qR", "a", {}, {}), "a", "accept", 0, None,
     RunOutcome("bound-exceeded", 0, 1)),
    (turing.scanner("qR", "a", {}, {}), "a", "space", 0, 1, RunOutcome("bound-exceeded", 0, 1)),
], ids=[
    "reject-on-t-run", "reject-on-t-search", "reject-before-t-search", "reject-pruned",
    "space-k-plus-1-accepts", "space-k-prunes", "space-k-bound-first", "space-1",
    "left-move-run", "left-move-search", "left-move-space", "left-move-bound",
    "both-finals", "both-finals-space-1", "both-finals-space-2", "both-finals-t0",
    "second-tape-keyed-run-rejects", "second-tape-keyed-run-dies",
    "second-tape-keyed-search-dies", "second-tape-keyed-space-dies",
    "initial-accept-run-t0", "initial-accept-space-t0", "initial-reject-run-t0",
    "initial-reject-search-t0", "initial-reject-space-t0",
])
def test_engine_walk_edge_cases(m, word, mode, t, s, want):
    """The untraced engines on the edges of the walk: each outcome stated,
    and equal to the reference's without its trace."""
    word = tuple(word)
    assert untraced(m, word, mode, t, s) == want
    if mode == "run":
        assert replace(reference_run(m, word, t), trace=None) == want
    else:
        assert replace(reference_search(m, word, t, space=s), trace=None) == want


@pytest.mark.parametrize("mode", ["run", "accept", "space"])
def test_walk_hands_over_at_a_left_move_and_never_traces(mode, monkeypatch):
    """A left move makes the walk hand over the depth it fires at, and the
    engine steps on from there, scanning tapes on the last two steps only;
    a traced call never walks and scans from the start; an untraced one on
    a right-moving machine is decided by the walk."""
    walks = []
    scans = []

    def spy(*args, **kwargs):
        walks.append(walk(*args, **kwargs))
        return walks[-1]

    def counted(*args):
        scans.append(1)
        return scan(*args)

    walk, scan = turing._walk, turing._scan
    monkeypatch.setattr(turing, "_walk", spy)
    monkeypatch.setattr(turing, "_scan", counted)
    word = ("a",) * 3
    assert untraced(RIGHT_THEN_LEFT, word, mode, 9, 4) == RunOutcome("accepted", 5, 4)
    assert walks == [3]
    assert len(scans) == 2
    assert untraced(fixtures.walk_right_machine(3), word, mode, 9, 4).verdict == "accepted"
    assert walks[1:] == [RunOutcome("accepted", 3, 4)]
    assert len(scans) == 2
    if mode == "run":
        traced = turing.run_deterministic(RIGHT_THEN_LEFT, word, 9, want_trace=True)
    elif mode == "accept":
        traced = turing.accepts_within(RIGHT_THEN_LEFT, word, 9)
    else:
        traced = turing.accepts_within_space(RIGHT_THEN_LEFT, word, 9, 4)
    assert len(walks) == 2
    assert len(traced.trace) == 6
    assert len(scans) == 7


@pytest.mark.parametrize("m, word, resumed", [
    (RIGHT_THEN_LEFT, "aa", True),   # one tape, walked past the input
    (BOUNCE, "aa", False),           # one tape, turned inside the input
    (SIBLINGS, "a", False),          # two transitions fired on the walk
    (SECOND_TAPE_LEFT, "aa", True),  # two tapes, turned inside the input
])
def test_search_resumes_only_where_no_walked_configuration_recurs(m, word, resumed,
                                                                 monkeypatch):
    """The untraced search goes on from the walk's configuration only where
    it is the walk's one configuration and none before it can come back:
    otherwise its visited set would miss them.  Either way it equals the
    reference."""
    scans = []

    def counted(*args):
        scans.append(1)
        return scan(*args)

    scan = turing._scan
    monkeypatch.setattr(turing, "_scan", counted)
    word = tuple(word)
    walked = turing._walk(m, word, 9, None, run=False)
    assert walked > 0
    want = replace(reference_search(m, word, 9), trace=None)
    scans.clear()
    outcome = turing.accepts_within(m, word, 9, want_trace=False)
    assert outcome == want
    assert outcome.steps_used >= walked
    untraced_scans = len(scans)
    scans.clear()
    assert replace(turing.accepts_within(m, word, 9), trace=None) == outcome
    if resumed:
        assert untraced_scans < len(scans)
    else:
        assert untraced_scans == len(scans)


#: Writes the blank past its input on one branch, so two configurations
#: that show the same symbols differ in their tape lengths: <q3; a; 2> at
#: depth 1, and <q3; a_; 2> at depth 3, which steps on to a configuration
#: the other branch reached at depth 2.
BLANK_TWIN = one_tape({
    ("q0", "a"): [("q3", "a", "R"), ("q1", "a", "R")],
    ("q1", "_"): [("q2", "_", "L")],
    ("q2", "a"): [("q3", "a", "R")],
    ("q3", "_"): [("q4", "x", "R")],
})


@pytest.mark.parametrize("colliding", [False, True])
@pytest.mark.parametrize("m, word, verdict", [
    (SIBLINGS, "a", "accepted"),
    (REWRITING_LOOP, "aa", "dead-end"),
    (BLANK_TWIN, "a", "dead-end"),
])
def test_crafted_machines(m, word, verdict, colliding):
    with pytest.MonkeyPatch.context() as mp:
        if colliding:
            mp.setattr(turing, "hash", lambda _: 0, raising=False)
        assert turing.accepts_within(m, word, 10).verdict == verdict
        assert_search_matches(m, tuple(word))


def test_fixture_suite_matches_reference():
    for m in fixtures.fixture_suite().values():
        for word in ("", "a", "aa", "0", "00", "ab", "aab"):
            if set(word) <= m.input_alphabet:
                assert_search_matches(m, tuple(word))
                if turing.is_deterministic(m):
                    assert_run_matches(m, tuple(word))
                if turing.is_deterministic(m) and m == right_moving(m):
                    assert_memo_across_bounds_matches(m, tuple(word))
                if m == right_moving(m):
                    assert_walk_matches(m, tuple(word))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(machines())
def test_one_walker_serves_every_bound(case):
    """One machine's memo, filled by each call in turn, gives every bound
    and mode of ``assert_walk_matches`` the reference's outcome.  The same
    calls again work out no step: each is a lookup in the memo the first
    ones filled, which equals the memo they fill on a fresh machine."""
    m, word = case
    m = right_moving(m)
    assert_walk_matches(m, word)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(turing, "_fill", lambda *args: pytest.fail("a known step was worked out"))
        assert_walk_matches(m, word)
    fresh = replace(m)
    assert_walk_matches(fresh, word)
    assert fresh._memo == m._memo


#: Nondeterministic and right-moving: guesses an a followed by a b, dies
#: on a second a after the guess, and accepts at the end once a guess has
#: held.  On "abab..." its state sets, not single states, recur.
GUESS_AB = turing.scanner("q0", "ab", {
    "q0": {"a": ("q0", "q1"), "b": ("q0",)},
    "q1": {"a": ("qR",), "b": ("q2",)},
    "q2": {"a": ("q2",), "b": ("q2",)},
}, {"q2": "qA"})


@pytest.mark.parametrize("m", [*fixtures.fixture_suite().values(), GUESS_AB],
                         ids=[*fixtures.fixture_suite(), "guess-ab"])
def test_memo_holds_nothing_of_a_call(m):
    """One machine, called first on a long word with a large bound and then
    on short words with bounds around their length, without and with a
    space bound, as run and as search in turn: every outcome equals the one
    on a fresh copy of the machine, whose memo is empty."""
    m = replace(m)  # a memo of this test's calls only
    symbols = sorted(m.input_alphabet)
    long_word = tuple(symbols[i * i % len(symbols)] for i in range(40))
    short_words = [()] + [w for k in (1, 2, 3) for w in itertools.product(symbols, repeat=k)]
    calls = [(long_word, 200)] + [(w, t) for w in short_words for t in (0, 1, len(w), len(w) + 1)]
    deterministic = turing.is_deterministic(m)
    for k, (word, t) in enumerate(calls):
        modes = [("accept", None)] + [("space", s) for s in (1, len(word) + 1, len(word) + 2)]
        if deterministic:  # the run goes first on even calls, last on odd ones
            modes.insert(k % 2 * len(modes), ("run", None))
        for mode, s in modes:
            want = untraced(replace(m), word, mode, t, s)
            assert untraced(m, word, mode, t, s) == want, (word, t, mode, s)


def test_a_replaced_table_starts_a_fresh_memo():
    """A machine made by ``replace`` from a walked one decides by its own
    table, not by the memo of the machine it was made from."""
    m = fixtures.even_a_machine()
    swap = {"qA": "qR", "qR": "qA"}
    odd_table = {key: tuple(replace(tr, next_state=swap.get(tr.next_state, tr.next_state))
                            for tr in targets)
                 for key, targets in m.transitions.items()}
    verdicts = ("rejected", "accepted")
    for n in range(4):
        assert turing.run_deterministic(m, ("a",) * n, 9).verdict == verdicts[n % 2 == 0]
    odd = replace(m, transitions=odd_table)
    for n in range(4):
        word = ("a",) * n
        assert turing.run_deterministic(odd, word, 9).verdict == verdicts[n % 2 == 1]
        for t in range(MAX_T + 1):
            want = replace(reference_search(odd, word, t), trace=None)
            assert turing.accepts_within(odd, word, t, want_trace=False) == want, (n, t)


@pytest.mark.parametrize("m", [*fixtures.fixture_suite().values(), GUESS_AB],
                         ids=[*fixtures.fixture_suite(), "guess-ab"])
def test_a_walked_machine_is_the_same_machine(m):
    """Walks fill the memo, not a field: the machine still equals and prints
    as a fresh copy, and pickles, memo and all, to a machine that decides
    every word alike."""
    m, fresh = replace(m), replace(m)
    words = [w for k in range(4) for w in itertools.product(sorted(m.input_alphabet), repeat=k)]
    modes = ("accept", "space")
    outcomes = [untraced(m, w, mode, 5, 3) for w in words for mode in modes]
    assert "_memo" in vars(m)  # the walks made it
    assert m == fresh
    assert repr(m) == repr(fresh)
    assert format_machine(m) == format_machine(fresh)
    copy = pickle.loads(pickle.dumps(m))
    assert copy == m
    assert copy._memo == m._memo
    assert [untraced(copy, w, mode, 5, 3) for w in words for mode in modes] == outcomes
