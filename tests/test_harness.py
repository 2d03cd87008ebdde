"""Machine pairs, language equivalence, and the step-count experiment."""

import csv
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cyclogic import harness, logic, radix, turing
from documents import assert_refused_or_read_back, perturbed


def wide_input(word):
    return tuple(str(d) for d in word.digits)


def binary_input(word):
    return tuple(str(d) for d in radix.rebase(word, 2).digits)


def accepts(machine, symbols, cap):
    out = turing.accepts_within(machine, symbols, cap, want_trace=False)
    return out.verdict == "accepted", out.steps_used


def family_predicate(family, l):
    if family == "scan-accept":
        return lambda w: len(w.digits) == l
    if family == "digit-sum-parity":
        return lambda w: sum(w.digits) % 2 == 0
    return lambda w: any(d != 0 for d in w.digits)


class TestMachinePairs:
    def test_unknown_family(self):
        with pytest.raises(harness.UnknownFamily):
            harness.build_machine_pair("mystery", 1, 2)

    def test_alphabet_cap(self):
        with pytest.raises(harness.AlphabetTooLarge):
            harness.build_machine_pair("scan-accept", 1, 2**11)

    def test_parity_needs_power_of_two_base(self):
        with pytest.raises(ValueError, match="power-of-two"):
            harness.build_machine_pair("digit-sum-parity", 1, 3)

    def test_pairs_validate(self):
        for family, b in (("scan-accept", 6), ("digit-sum-parity", 8), ("guessed-digit", 5)):
            wide, binary = harness.build_machine_pair(family, 2, b)
            assert turing.validation_errors(wide) == []
            assert turing.validation_errors(binary) == []

    @pytest.mark.parametrize("family, wide_states, binary_states, wide_marks, binary_marks", [
        ("scan-accept", {"w0", "w1", "w2"}, {"s"}, {"x"}, {"x"}),
        ("digit-sum-parity", {"p0", "p1"}, {"t0p0", "t0p1", "t1p0", "t1p1"}, {"x"}, {"x"}),
        ("guessed-digit", {"g"}, {"g"}, set(), set()),
    ])
    def test_derived_states_and_alphabets(
        self, family, wide_states, binary_states, wide_marks, binary_marks
    ):
        wide, binary = harness.build_machine_pair(family, 2, 4)
        for m, states, marks, digits in (
            (wide, wide_states, wide_marks, {"0", "1", "2", "3"}),
            (binary, binary_states, binary_marks, {"0", "1"}),
        ):
            assert m.states == states | {"qA", "qR"}
            assert m.input_alphabet == digits
            assert m.tape_alphabet == digits | marks | {"_"}
            assert (m.blank, m.accept, m.reject, m.tapes) == ("_", "qA", "qR", 1)

    def test_scan_accept_is_real_time(self):
        wide, _ = harness.build_machine_pair("scan-accept", 2, 4)
        for digits in itertools.product(range(4), repeat=2):
            ok, steps = accepts(wide, tuple(str(d) for d in digits), 10)
            assert ok and steps == 3
        # words of any other length are dead ends
        assert not accepts(wide, ("1",), 10)[0]
        assert not accepts(wide, ("1", "1", "1"), 10)[0]

    def test_parity_pair_matches_arithmetic_on_single_bits(self):
        wide, binary = harness.build_machine_pair("digit-sum-parity", 1, 2)
        for digits in ((0,), (1,)):
            w = radix.RadixWord(2, digits)
            expected = sum(digits) % 2 == 0
            assert accepts(wide, wide_input(w), 10)[0] == expected
            assert accepts(binary, binary_input(w), 10)[0] == expected

    def test_guessed_digit_is_nondeterministic(self):
        wide, binary = harness.build_machine_pair("guessed-digit", 2, 4)
        assert not turing.is_deterministic(wide)
        assert not turing.is_deterministic(binary)

    def test_guessed_digit_minimal_witness_is_first_nonzero(self):
        wide, _ = harness.build_machine_pair("guessed-digit", 3, 4)
        ok, steps = accepts(wide, ("0", "0", "2"), 10)
        assert ok and steps == 3
        ok, steps = accepts(wide, ("1", "0", "2"), 10)
        assert ok and steps == 1

    @pytest.mark.parametrize("family", harness.FAMILIES)
    def test_language_equivalence_exhaustive(self, family):
        for l in (1, 2):
            bases = (2, 4, 8, 16) if family == "digit-sum-parity" else range(2, 17)
            for b in bases:
                wide, binary = harness.build_machine_pair(family, l, b)
                predicate = family_predicate(family, l)
                cap = 4 * l * max(1, b.bit_length()) + 4
                for digits in itertools.product(range(b), repeat=l):
                    w = radix.RadixWord(b, digits)
                    wide_ok = accepts(wide, wide_input(w), cap)[0]
                    binary_ok = accepts(binary, binary_input(w), cap)[0]
                    assert wide_ok == binary_ok == predicate(w), (family, l, b, digits)

    @pytest.mark.parametrize("family", harness.FAMILIES)
    def test_language_equivalence_sampled_beyond(self, family):
        import random

        rng = random.Random(99)
        cases = [(3, 32), (4, 64)] if family == "digit-sum-parity" else [(3, 20), (4, 33)]
        for l, b in cases:
            wide, binary = harness.build_machine_pair(family, l, b)
            predicate = family_predicate(family, l)
            cap = 4 * l * max(1, b.bit_length()) + 4
            for _ in range(40):
                w = radix.RadixWord(b, tuple(rng.randrange(b) for _ in range(l)))
                wide_ok = accepts(wide, wide_input(w), cap)[0]
                binary_ok = accepts(binary, binary_input(w), cap)[0]
                assert wide_ok == binary_ok == predicate(w), (family, l, b, w)


class TestExperimentSpec:
    def good(self, **overrides):
        base = dict(
            lengths=(1, 2),
            base_rule="square",
            words_per_length=3,
            seed=11,
            machine_family="scan-accept",
            step_cap=64,
        )
        base.update(overrides)
        return base

    def test_square_rule(self):
        spec = harness.ExperimentSpec(**self.good())
        assert spec.base_for(1) == 2
        assert spec.base_for(2) == 16
        assert spec.base_for(3) == 512

    def test_fixed_rule(self):
        spec = harness.ExperimentSpec(**self.good(base_rule=8))
        assert spec.base_for(1) == spec.base_for(3) == 8

    @pytest.mark.parametrize(
        "overrides",
        [
            {"lengths": ()},
            {"lengths": (0,)},
            {"words_per_length": 0},
            {"step_cap": 0},
            {"base_rule": "cube"},
            {"base_rule": 1},
        ],
    )
    def test_invariants(self, overrides):
        with pytest.raises(ValueError):
            harness.ExperimentSpec(**self.good(**overrides))

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"lengths": (1, 2.0)}, "every length must be an integer, got 2.0"),
            ({"lengths": (True,)}, "every length must be an integer, got True"),
            ({"base_rule": 2.5}, "base_rule must be an integer, got 2.5"),
            ({"base_rule": True}, "base_rule must be an integer, got True"),
            ({"words_per_length": True}, "words_per_length must be an integer, got True"),
            ({"seed": 1.0}, "seed must be an integer, got 1.0"),
            ({"step_cap": 2.5}, "step_cap must be an integer, got 2.5"),
            ({"step_cap": "9"}, "step_cap must be an integer, got '9'"),
            ({"machine_family": 7}, "machine_family must be a string, got 7"),
        ],
    )
    def test_field_types_checked_by_the_spec(self, overrides, message):
        # a library caller gets the refusal a spec document gets
        fields = self.good(**overrides)
        with pytest.raises(ValueError) as direct:
            harness.ExperimentSpec(**fields)
        assert str(direct.value) == message
        with pytest.raises(ValueError) as parsed:
            harness.spec_from_obj(dict(fields, lengths=list(fields["lengths"])))
        assert str(parsed.value) == message

    @pytest.mark.parametrize("lengths", [5, [1, 2], "12", None, range(1, 3)])
    def test_lengths_container_checked_by_the_spec(self, lengths):
        # a list would build a frozen spec that cannot be hashed
        with pytest.raises(ValueError) as direct:
            harness.ExperimentSpec(**self.good(lengths=lengths))
        assert str(direct.value) == f"lengths must be a tuple, got {lengths!r}"
        hash(harness.ExperimentSpec(**self.good(lengths=(1, 2))))

    def test_obj_round_trip(self):
        spec = harness.ExperimentSpec(**self.good())
        assert harness.spec_from_obj(harness.spec_to_obj(spec)) == spec

    def test_missing_and_unknown_fields(self):
        obj = harness.spec_to_obj(harness.ExperimentSpec(**self.good()))
        missing = dict(obj)
        del missing["seed"]
        with pytest.raises(ValueError, match="missing"):
            harness.spec_from_obj(missing)
        extra = dict(obj, surprise=1)
        with pytest.raises(ValueError, match="unknown"):
            harness.spec_from_obj(extra)


class TestRunExperiment:
    def scan_spec(self, **overrides):
        base = dict(
            lengths=(1, 2),
            base_rule="square",
            words_per_length=5,
            seed=20260809,
            machine_family="scan-accept",
            step_cap=64,
        )
        base.update(overrides)
        return harness.ExperimentSpec(**base)

    def test_rows_agree_and_walk_in_real_time(self):
        report = harness.run_experiment(self.scan_spec())
        assert len(report.rows) == 10
        for row in report.rows:
            assert row.agree
            assert not row.capped
            assert row.steps_wide == row.length + 1

    def test_binary_side_walks_the_cubic_encoding(self):
        report = harness.run_experiment(self.scan_spec())
        for row in report.rows:
            assert row.steps_binary == row.length**3 + 1

    def test_deterministic_for_fixed_seed(self):
        a = harness.run_experiment(self.scan_spec())
        b = harness.run_experiment(self.scan_spec())
        assert a == b

    def test_seed_changes_sampling(self):
        a = harness.run_experiment(self.scan_spec(words_per_length=8))
        b = harness.run_experiment(self.scan_spec(words_per_length=8, seed=999))
        assert [r.word for r in a.rows] != [r.word for r in b.rows]

    def test_summary_note_is_verbatim(self):
        report = harness.run_experiment(self.scan_spec())
        assert report.summary.note == harness.BOUND_NOTE

    def test_capped_rows_are_flagged_not_dropped(self):
        spec = harness.ExperimentSpec(
            lengths=(2,),
            base_rule="square",
            words_per_length=4,
            seed=5,
            machine_family="digit-sum-parity",
            step_cap=1,
        )
        report = harness.run_experiment(spec)
        assert len(report.rows) == 4
        assert all(row.capped for row in report.rows)
        assert report.summary.fitted_exponent is None

    def test_parity_rows_agree_even_when_rejected(self):
        spec = harness.ExperimentSpec(
            lengths=(1, 2),
            base_rule="square",
            words_per_length=10,
            seed=3,
            machine_family="digit-sum-parity",
            step_cap=64,
        )
        report = harness.run_experiment(spec)
        assert all(row.agree for row in report.rows)
        rejected = [r for r in report.rows if r.steps_wide is None]
        for row in rejected:
            assert row.steps_binary is None and not row.capped


def emitted(report):
    """The report's JSON and CSV texts."""
    texts = []
    for fmt in ("json", "csv"):
        buf = io.StringIO()
        harness.emit_report(report, fmt, buf)
        texts.append(buf.getvalue())
    return texts


class TestEngineChoice:
    """Every machine goes through the untraced search, and right-moving ones
    are decided by its walk, over a memo kept across the words of a length;
    the reports must equal those of a search that walks nothing."""

    CASES = [(family, rule) for family in harness.FAMILIES for rule in ("square", 2, 3, 4, 16)
             if not (family == "digit-sum-parity" and rule == 3)]  # parity refuses base 3

    @pytest.mark.parametrize("family, base_rule", CASES)
    def test_rows_equal_the_searched_rows(self, family, base_rule, monkeypatch):
        # the experiment workload draws fixed-base lengths up to 64
        lengths = (1, 2, 3) if base_rule == "square" else (1, 2, 3, 6, 64)
        caps = {*range(1, 7), *(l + k for l in lengths for k in (1, 2)), 1024}
        if base_rule == "square":  # around the binary twins' l**3 + 1 steps
            caps |= {l**3 + k for l in lengths for k in (0, 1, 2)}
        else:  # around l digit fields of the binary twins, then the blank
            caps |= {l * (base_rule - 1).bit_length() + k for l in lengths for k in (0, 1, 2)}
        for cap in sorted(caps):
            spec = harness.ExperimentSpec(lengths=lengths, base_rule=base_rule, words_per_length=4,
                                          seed=cap, machine_family=family, step_cap=cap)
            report = harness.run_experiment(spec)
            with monkeypatch.context() as mp:
                # a walk that hands over at once: the search from step 0
                mp.setattr(turing, "_walk", lambda *args, **kwargs: 0)
                searched = harness.run_experiment(spec)
            assert report == searched, cap
            assert emitted(report) == emitted(searched), cap

    @pytest.mark.parametrize("family", harness.FAMILIES)
    def test_each_word_is_searched_once_on_each_machine(self, family, monkeypatch):
        """Two searches a word, on the two machines built for its length."""
        machines = []

        def counted(m, *args, **kwargs):
            machines.append(m)
            return search(m, *args, **kwargs)

        search = harness.accepts_within
        monkeypatch.setattr(harness, "accepts_within", counted)
        lengths, words = (1, 2, 3), 5
        harness.run_experiment(harness.ExperimentSpec(lengths, 4, words, 7, family, 1024))
        assert len(machines) == 2 * len(lengths) * words
        assert len({id(m) for m in machines}) == 2 * len(lengths)


class TestExponentFit:
    def test_exact_cubic(self):
        slope = harness.fit_exponent([(2, 8), (4, 64)])
        assert slope == pytest.approx(3.0, abs=1e-12)

    def test_degenerate_inputs(self):
        assert harness.fit_exponent([]) is None
        assert harness.fit_exponent([(3, 9), (3, 9), (3, 10)]) is None

    @given(st.lists(st.tuples(st.integers(1, 10**4), st.integers(1, 10**6)),
                    min_size=2, max_size=30))
    def test_matches_the_centred_closed_form(self, points):
        if len({x for x, _ in points}) < 2:
            assert harness.fit_exponent(points) is None
            return
        xs = [math.log(x) for x, _ in points]
        ys = [math.log(y) for _, y in points]
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        closed = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                  / sum((x - mx) ** 2 for x in xs))
        # relative to max(1, |slope|): near a zero slope the closed form's own
        # rounding (about 1e-15 absolute) dominates any relative measure
        assert math.isclose(harness.fit_exponent(points), closed,
                            rel_tol=1e-12, abs_tol=1e-12)

    def test_cli_import_leaves_numpy_out(self):
        src = Path(__file__).resolve().parent.parent / "src"
        code = "import sys, cyclogic.cli; print('numpy' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, check=True,
        )
        assert result.stdout.strip() == "False"


@st.composite
def reports(draw):
    """Reports of random small specs: every family, fixed and square bases,
    and step caps low enough to cap some rows."""
    family = draw(st.sampled_from(harness.FAMILIES))
    bases = ["square", 2, 4, 16] + ([] if family == "digit-sum-parity" else [3, 10])
    spec = harness.ExperimentSpec(
        lengths=tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))),
        base_rule=draw(st.sampled_from(bases)),
        words_per_length=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**32)),
        machine_family=family,
        step_cap=draw(st.integers(1, 40)),
    )
    return harness.run_experiment(spec)


class TestReports:
    def sample(self):
        spec = harness.ExperimentSpec(
            lengths=(1, 2),
            base_rule="square",
            words_per_length=3,
            seed=8,
            machine_family="scan-accept",
            step_cap=64,
        )
        return harness.run_experiment(spec)

    def test_csv_layout(self):
        report = self.sample()
        buf = io.StringIO()
        harness.emit_report(report, "csv", buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "l,b,word,steps_wide,steps_binary,agree,capped"
        assert len(lines) == 1 + len(report.rows)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert radix.parse_word(rows[1][2]) == report.rows[0].word

    def test_csv_null_and_boolean_fields(self):
        row = harness.StepRow(1, 2, radix.RadixWord(2, (0,)), None, 3, False, True)
        buf = io.StringIO()
        harness.emit_report(harness.StepReport((row,), self.sample().summary), "csv", buf)
        assert buf.getvalue() == (
            "l,b,word,steps_wide,steps_binary,agree,capped\r\n"
            "1,2,b:2|0,,3,false,true\r\n"
        )

    def test_json_round_trip(self):
        report = self.sample()
        buf = io.StringIO()
        harness.emit_report(report, "json", buf)
        assert harness.report_from_obj(json.loads(buf.getvalue())) == report

    @pytest.mark.parametrize("family", harness.FAMILIES)
    @pytest.mark.parametrize("base_rule, step_cap", [("square", 64), (4, 64), (4, 3)])
    def test_real_reports_round_trip(self, family, base_rule, step_cap):
        spec = harness.ExperimentSpec((1, 2, 3), base_rule, 4, 5, family, step_cap)
        obj = json.loads(json.dumps(harness.report_to_obj(harness.run_experiment(spec))))
        assert harness.report_to_obj(harness.report_from_obj(obj)) == obj

    @pytest.mark.parametrize("row, summary", [
        ({"l": 1.0, "b": True, "steps_wide": "x", "agree": 1, "capped": 0}, {}),
        ({"l": 1.0}, {}),
        ({"l": True}, {}),
        ({"b": True}, {}),
        ({"b": 2.0}, {}),
        ({"l": 2}, {}),  # not the word's digit count
        ({"b": 4}, {}),  # not the word's base
        ({"word": 7}, {}),
        ({"steps_wide": "x"}, {}),
        ({"steps_binary": 1.5}, {}),
        ({"steps_wide": False}, {}),
        ({"agree": 1}, {}),
        ({"agree": None}, {}),
        ({"capped": 0}, {}),
        ({"agree": False}, {}),  # both searches accepted
        ({}, {"note": "exponent at most 3"}),
        ({}, {"fitted_exponent": "?"}),
        ({}, {"max_ratio": 2}),
        ({}, {"exponent_at_most_3": 1}),
    ])
    def test_from_obj_rejects_outside_input(self, row, summary):
        obj = harness.report_to_obj(self.sample())
        assert (obj["rows"][0]["l"], obj["rows"][0]["b"], obj["rows"][0]["agree"]) == (1, 2, True)
        obj["rows"][0].update(row)
        obj["summary"].update(summary)
        with pytest.raises(ValueError):
            harness.report_from_obj(obj)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_perturbed_documents_are_refused_or_read_back(self, data):
        report = data.draw(reports())
        doc = json.loads(json.dumps(harness.report_to_obj(report)))
        assert harness.report_from_obj(doc) == report
        assert_refused_or_read_back(harness.report_from_obj, harness.report_to_obj,
                                    data.draw(perturbed(doc)))

    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(reports())
    def test_csv_carries_the_json_rows(self, report):
        buf = io.StringIO()
        harness.emit_report(report, "csv", buf)
        header, *lines = csv.reader(io.StringIO(buf.getvalue()))
        rows = harness.report_to_obj(report)["rows"]
        assert header == list(rows[0])
        assert header[-1] == "capped"

        def field(value):  # null is empty, booleans are lowercase
            if value is None:
                return ""
            return ("true" if value else "false") if isinstance(value, bool) else str(value)

        assert lines == [[field(v) for v in row.values()] for row in rows]

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            harness.emit_report(self.sample(), "xml", io.StringIO())

    def test_summary_line_contains_the_note(self):
        line = harness.summary_line(self.sample())
        assert harness.BOUND_NOTE in line
        assert "fitted exponent" in line


@pytest.mark.parametrize("refused, message", [
    (lambda: harness.build_machine_pair("scan-accept", 0, 4), "length must be >= 1, got 0"),
    (lambda: harness.build_machine_pair("scan-accept", 2, 1), "base must be >= 2, got 1"),
    (lambda: radix.rebased_length(-1, 4), "length must be >= 0, got -1"),
    (lambda: logic.TruthConvention(2), "true_exponent must be 0 or 1"),
], ids=["pair-length-0", "pair-base-1", "rebased-length-negative", "truth-exponent-2"])
def test_library_refusals(refused, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        refused()
