"""Step semantics, bounded runs, and the search-vs-enumeration oracle."""

import itertools

import pytest

from cyclogic import fixtures, turing
from cyclogic.turing import Transition, make_machine
from oracles import brute_force_accepts, step_rule_violations


def total_machine():
    """Well-formed machine with a total transition table (no warnings)."""
    return make_machine(
        states=["q0", "qA", "qR"],
        tape_alphabet=["a", "_"],
        blank="_",
        input_alphabet=["a"],
        transitions={
            ("q0", ("a",)): (Transition("q0", ("a",), ("R",)),),
            ("q0", ("_",)): (Transition("qA", ("a",), ("R",)),),
        },
        initial="q0",
        accept="qA",
        reject="qR",
    )


def all_words(alphabet, max_len):
    for l in range(max_len + 1):
        yield from itertools.product(sorted(alphabet), repeat=l)


class TestValidate:
    def test_total_machine_is_clean(self):
        assert turing.validate(total_machine()) == []

    def test_writes_blank(self):
        m = make_machine(
            states=["q0", "qA", "qR"],
            tape_alphabet=["a", "_"],
            blank="_",
            input_alphabet=["a"],
            transitions={
                ("q0", ("a",)): (Transition("qA", ("_",), ("R",)),),
                ("q0", ("_",)): (Transition("qA", ("a",), ("R",)),),
            },
            initial="q0",
            accept="qA",
            reject="qR",
        )
        errors = [v for v in turing.validate(m) if v.severity == "error"]
        assert len(errors) == 1
        assert "writes blank" in errors[0].message

    def test_transition_keyed_on_final_state(self):
        m = make_machine(
            states=["q0", "qA", "qR"],
            tape_alphabet=["a", "_"],
            blank="_",
            input_alphabet=["a"],
            transitions={
                ("q0", ("a",)): (Transition("qA", ("a",), ("R",)),),
                ("q0", ("_",)): (Transition("qA", ("a",), ("R",)),),
                ("qA", ("a",)): (Transition("q0", ("a",), ("R",)),),
            },
            initial="q0",
            accept="qA",
            reject="qR",
        )
        errors = [v for v in turing.validate(m) if v.severity == "error"]
        assert len(errors) == 1
        assert "final state" in errors[0].message

    def test_partial_table_warns_only(self):
        findings = turing.validate(fixtures.even_a_machine())
        assert all(v.severity == "warning" for v in findings)
        assert len(findings) == 2  # (q0; x) and (q1; x) are unhandled

    def test_structural_errors(self):
        m = make_machine(
            states=["q0", "qA"],
            tape_alphabet=["a"],
            blank="_",
            input_alphabet=["a", "_"],
            transitions={("q0", ("a",)): ()},
            initial="q0",
            accept="qA",
            reject="qR",
        )
        messages = " | ".join(v.message for v in turing.validation_errors(m))
        assert "reject state" in messages
        assert "blank" in messages
        assert "empty target set" in messages

    def test_fixture_suite_has_no_errors(self):
        for name, m in fixtures.fixture_suite().items():
            assert turing.validation_errors(m) == [], name


class TestDeterminism:
    def test_examples(self):
        assert turing.is_deterministic(fixtures.even_a_machine())
        assert not turing.is_deterministic(fixtures.guess_bit_machine())

    def test_empty_table_is_vacuously_deterministic(self):
        assert turing.is_deterministic(fixtures.accept_at_start_machine())


class TestInitialDescription:
    def test_two_tape_layout(self):
        m = fixtures.copy_machine()
        desc = turing.initial_id(m, "aa")
        assert desc == turing.InstantaneousDescription("q0", (("a", "a"), ()), (1, 1))

    def test_empty_word(self):
        m = fixtures.even_a_machine()
        desc = turing.initial_id(m, "")
        assert desc.tapes == ((),)
        assert desc.heads == (1,)  # position 1 == len + 1 on the empty word

    def test_symbol_outside_input_alphabet(self):
        with pytest.raises(ValueError, match="input alphabet"):
            turing.initial_id(fixtures.even_a_machine(), "a$")


class TestScannedSymbols:
    def test_within_and_past_the_word(self):
        m = fixtures.even_a_machine()
        two = turing.InstantaneousDescription("q0", (("a", "a"),), (2,))
        assert turing.scanned_symbols(m, two) == ("a",)
        past = turing.InstantaneousDescription("q0", (("a", "a"),), (3,))
        assert turing.scanned_symbols(m, past) == ("_",)
        empty = turing.InstantaneousDescription("q0", ((),), (1,))
        assert turing.scanned_symbols(m, empty) == ("_",)


class TestSuccessors:
    def test_single_application(self):
        m = make_machine(
            states=["q0", "qA", "qR"],
            tape_alphabet=["a", "_"],
            blank="_",
            input_alphabet=["a"],
            transitions={("q0", ("a",)): (Transition("qA", ("a",), ("R",)),)},
            initial="q0",
            accept="qA",
            reject="qR",
        )
        start = turing.initial_id(m, "a")
        assert turing.successors(m, start) == [
            turing.InstantaneousDescription("qA", (("a",),), (2,))
        ]

    def test_left_from_square_one_dies(self):
        m = make_machine(
            states=["q0", "qA", "qR"],
            tape_alphabet=["a", "_"],
            blank="_",
            input_alphabet=["a"],
            transitions={("q0", ("a",)): (Transition("qA", ("a",), ("L",)),)},
            initial="q0",
            accept="qA",
            reject="qR",
        )
        assert turing.successors(m, turing.initial_id(m, "a")) == []

    def test_extension_on_the_blank_square(self):
        m = make_machine(
            states=["q0", "q1", "qA", "qR"],
            tape_alphabet=["x", "_"],
            blank="_",
            input_alphabet=[],
            transitions={("q0", ("_",)): (Transition("q1", ("x",), ("R",)),)},
            initial="q0",
            accept="qA",
            reject="qR",
        )
        start = turing.initial_id(m, "")
        assert turing.successors(m, start) == [
            turing.InstantaneousDescription("q1", (("x",),), (2,))
        ]

    def test_final_states_have_no_successors(self):
        m = fixtures.even_a_machine()
        accepting = turing.InstantaneousDescription("qA", (("a",),), (1,))
        rejecting = turing.InstantaneousDescription("qR", (("a",),), (1,))
        assert turing.successors(m, accepting) == []
        assert turing.successors(m, rejecting) == []

    def test_rule_invariants_on_reachable_graph(self):
        for name, m in fixtures.fixture_suite().items():
            word = next(iter(sorted(m.input_alphabet)), None)
            words = ["", word * 3] if word else [""]
            for w in words:
                frontier = [turing.initial_id(m, w)]
                seen = set(frontier)
                for _ in range(6):
                    nxt = []
                    for desc in frontier:
                        for child in turing.successors(m, desc):
                            assert step_rule_violations(m, desc, child) == [], name
                            if child not in seen:
                                seen.add(child)
                                nxt.append(child)
                    frontier = nxt


class TestDeterministicRun:
    def test_even_a_examples(self):
        m = fixtures.even_a_machine()
        out = turing.run_deterministic(m, "aa", 100)
        assert (out.verdict, out.steps_used) == ("accepted", 3)
        assert turing.run_deterministic(m, "a", 100).verdict == "rejected"

    def test_bound_zero(self):
        m = fixtures.even_a_machine()
        assert turing.run_deterministic(m, "a", 0).verdict == "bound-exceeded"

    def test_negative_bound_rejected(self):
        # the same refusal, message included, as the bounded searches
        with pytest.raises(ValueError, match=r"step bound must be >= 0, got -1"):
            turing.run_deterministic(fixtures.even_a_machine(), "aa", -1)

    @pytest.mark.parametrize("bound", [4.5, 4.0, True])
    @pytest.mark.parametrize(
        "search",
        [
            lambda m, bound: turing.run_deterministic(m, "aaaa", bound),
            lambda m, bound: turing.accepts_within(m, "aaaa", bound),
            lambda m, bound: turing.accepts_within_space(m, "aaaa", bound, 10),
            lambda m, bound: turing.accepts_within_space(m, "aaaa", 10, bound),
            lambda m, bound: turing.check_time_bound(m, ["aaaa"], lambda n: bound),
        ],
        ids=["run", "accepts", "space-steps", "space-cells", "time-bound"],
    )
    def test_non_integer_bound_rejected(self, search, bound):
        with pytest.raises(ValueError, match=r"bound must be an integer"):
            search(fixtures.even_a_machine(), bound)

    def test_trace_records_the_whole_run(self):
        m = fixtures.even_a_machine()
        out = turing.run_deterministic(m, "aa", 100, want_trace=True)
        assert len(out.trace) == out.steps_used + 1
        assert out.trace[0] == turing.initial_id(m, "aa")
        assert out.trace[-1].state == "qA"

    def test_requires_determinism(self):
        with pytest.raises(turing.NotDeterministic):
            turing.run_deterministic(fixtures.guess_bit_machine(), "0", 10)

    def test_dead_end(self):
        m = fixtures.walk_right_machine(3)
        assert turing.run_deterministic(m, "a", 100).verdict == "dead-end"


class TestBoundedAcceptance:
    def test_guess_bit_examples(self):
        m = fixtures.guess_bit_machine()
        hit = turing.accepts_within(m, "0", 2)
        assert (hit.verdict, hit.steps_used) == ("accepted", 2)
        assert [d.state for d in hit.trace] == ["q0", "q2", "qA"]
        assert turing.accepts_within(m, "0", 1).verdict != "accepted"

    def test_witness_ends_accepting(self):
        for m in (fixtures.even_a_machine(), fixtures.guess_bit_machine()):
            word = "aa" if "a" in m.input_alphabet else "0"
            out = turing.accepts_within(m, word, 10)
            if out.verdict == "accepted":
                assert out.trace[-1].state == m.accept
                assert len(out.trace) == out.steps_used + 1

    def test_agrees_with_deterministic_run(self):
        for m in (fixtures.even_a_machine(), fixtures.real_time_scanner()):
            alphabet = sorted(m.input_alphabet)
            for w in all_words(alphabet, 6):
                for t in (0, 1, 3, 8):
                    bfs = turing.accepts_within(m, w, t, want_trace=False)
                    det = turing.run_deterministic(m, w, t)
                    assert (bfs.verdict == "accepted") == (det.verdict == "accepted")

    def test_monotone_in_bound(self):
        for name, m in fixtures.fixture_suite().items():
            alphabet = sorted(m.input_alphabet)
            for w in all_words(alphabet, 3):
                accepted_at = [
                    turing.accepts_within(m, w, t, want_trace=False).verdict == "accepted"
                    for t in range(9)
                ]
                for earlier, later in zip(accepted_at, accepted_at[1:]):
                    assert not (earlier and not later), (name, w)

    def test_matches_brute_force_enumeration(self):
        for name, m in fixtures.fixture_suite().items():
            alphabet = sorted(m.input_alphabet)
            for w in all_words(alphabet, 4):
                for t in range(9):
                    bfs = turing.accepts_within(m, w, t, want_trace=False)
                    assert (bfs.verdict == "accepted") == brute_force_accepts(m, w, t), (
                        name, w, t,
                    )

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            turing.accepts_within(fixtures.even_a_machine(), "a", -1)


class TestSpaceBoundedAcceptance:
    def test_walker_examples(self):
        m = fixtures.walk_right_machine(3)
        assert turing.accepts_within_space(m, "aaa", 10, 4).verdict == "accepted"
        assert turing.accepts_within_space(m, "aaa", 10, 3).verdict != "accepted"

    def test_space_one_boundary(self):
        m = fixtures.accept_at_start_machine()
        out = turing.accepts_within_space(m, "a", 5, 1)
        assert (out.verdict, out.steps_used) == ("accepted", 0)

    def test_space_bound_validation(self):
        with pytest.raises(ValueError):
            turing.accepts_within_space(fixtures.even_a_machine(), "a", 5, 0)

    def test_space_acceptance_implies_time_acceptance(self):
        for name, m in fixtures.fixture_suite().items():
            alphabet = sorted(m.input_alphabet)
            for w in all_words(alphabet, 3):
                for t in (2, 5, 8):
                    for s in (1, 2, 4):
                        spaced = turing.accepts_within_space(m, w, t, s, want_trace=False)
                        if spaced.verdict == "accepted":
                            timed = turing.accepts_within(m, w, t, want_trace=False)
                            assert timed.verdict == "accepted", (name, w, t, s)

    def test_whole_witness_respects_the_bound(self):
        m = fixtures.walk_right_machine(3)
        out = turing.accepts_within_space(m, "aaa", 10, 4)
        assert all(max(d.heads) <= 4 for d in out.trace)


class TestTimeBound:
    def test_real_time_fixture(self):
        m = fixtures.real_time_scanner()
        words = [w for w in all_words(("a", "b"), 5) if w]
        report = turing.check_time_bound(m, words, lambda l: l + 1)
        assert report.holds
        tight = turing.check_time_bound(m, words, lambda l: l - 1)
        assert not tight.holds
        assert any(not row.accepted for row in tight.rows)

    def test_empty_sample(self):
        report = turing.check_time_bound(fixtures.even_a_machine(), [], lambda l: l)
        assert report.rows == ()
        assert report.holds

    def test_rows_record_bounds(self):
        m = fixtures.even_a_machine()
        report = turing.check_time_bound(m, ["aa"], lambda l: l + 1)
        row = report.rows[0]
        assert (row.length, row.bound, row.accepted) == (2, 3, True)

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            turing.check_time_bound(fixtures.even_a_machine(), ["a"], lambda l: -1)
