"""Command-line contract: outputs, exit codes 0/1/2, JSON round trips."""

import itertools
import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cyclogic import cli, fixtures, harness, logic, machinefile, radix, turing
from cyclogic.cli import main
from documents import assert_refused_or_read_back, perturbed
from oracles import decimal_value, naive_value, reference_enumeration
from test_turing_differential import machines


@pytest.fixture
def even_a_file(tmp_path):
    path = tmp_path / "even_a.tm"
    path.write_text(fixtures.EVEN_A_FILE)
    return str(path)


@pytest.fixture
def guess_file(tmp_path):
    path = tmp_path / "guess.tm"
    path.write_text(fixtures.GUESS_BIT_FILE)
    return str(path)


def scan_spec_obj(**overrides):
    obj = {
        "lengths": [1, 2],
        "base_rule": "square",
        "words_per_length": 3,
        "seed": 77,
        "machine_family": "scan-accept",
        "step_cap": 64,
    }
    obj.update(overrides)
    return obj


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(scan_spec_obj()))
    return str(path)


class TestTable:
    def test_complementation_table(self, capsys):
        assert main(["table", "--n", "2", "--kind", "unary", "--index", "1,1"]) == 0
        out = capsys.readouterr().out
        assert "z2^0\tz2^1" in out
        assert "z2^1\tz2^0" in out
        assert "classification: negation" in out
        assert "catalog label: complementation (agrees)" in out

    def test_or_table_flagged_against_catalog(self, capsys):
        assert main(["table", "--n", "2", "--kind", "binary", "--index", "0,0,0,0"]) == 0
        out = capsys.readouterr().out
        assert "classification: or" in out
        assert "catalog label: nand (disagrees)" in out

    def test_wrong_index_arity_is_a_usage_error(self, capsys):
        assert main(["table", "--n", "2", "--kind", "unary", "--index", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no partial domain output

    def test_json_round_trip(self, capsys):
        assert main(["table", "--n", "3", "--kind", "binary",
                     "--index", "0,1,2,0,1,2,0,1,2", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        idx, table = cli.table_from_obj(obj)
        expected_idx = logic.BinaryIndex(3, ((0, 1, 2), (0, 1, 2), (0, 1, 2)))
        assert idx == expected_idx
        assert table == logic.binary_from_index(expected_idx)

    @pytest.mark.parametrize("obj", [
        {"modulus": 2, "kind": "unary", "index": [0, 0], "outputs": [0, 2]},
        {"modulus": 2, "kind": "unary", "index": [0, 0], "outputs": [0, -1]},
        {"modulus": 2, "kind": "unary", "index": [0, 0], "outputs": [0]},
        {"modulus": 2, "kind": "binary", "index": [[0, 0], [0, 0]],
         "outputs": [[0, 0], [0, 2]]},
        {"modulus": 2, "kind": "binary", "index": [[0, 0], [0, 0]],
         "outputs": [[0, 0]]},
        {"modulus": 2, "kind": "binary", "index": [[0, 0], [0, 0]],
         "outputs": [[0, 0], [0, 0, 0]]},
        {"modulus": 1, "kind": "unary", "index": [0], "outputs": [0]},
        # documents table_to_obj never writes
        {"modulus": 2, "kind": "ternary", "index": [[0, 0], [0, 0]],
         "outputs": [[0, 1], [0, 0]]},
        {"modulus": 2, "kind": [], "index": [0, 0], "outputs": [0, 1]},
        {"modulus": 2, "kind": {}, "index": [[0, 0], [0, 0]], "outputs": [[0, 1], [0, 0]]},
        {"modulus": 2, "kind": "unary", "index": [True, 0], "outputs": [1, 1]},
        {"modulus": 2, "kind": "unary", "index": [0.0, 0], "outputs": [0, 1]},
        {"modulus": 2, "kind": "unary", "index": [0, 0], "outputs": [0, True]},
        {"modulus": 2.0, "kind": "unary", "index": [0, 0], "outputs": [0, 1]},
        {"modulus": 2, "kind": "unary", "index": [[0], [0]], "outputs": [0, 1]},
        {"modulus": 2, "kind": "unary", "index": 0, "outputs": [0, 1]},
        {"modulus": 2, "kind": "binary", "index": [0, 0, 0, 0], "outputs": [0, 1, 0, 0]},
        {"modulus": 2, "kind": "unary", "index": [0, 0], "outputs": [1, 0]},
        {"modulus": 2, "kind": "binary", "index": [[0, 0], [0, 0]],
         "outputs": [[0, 1], [0, 0]]},
    ])
    def test_from_obj_rejects_outside_input(self, obj):
        with pytest.raises(ValueError):
            cli.table_from_obj(obj)

    def test_json_includes_catalog_fields_for_arity_two(self, capsys):
        assert main(["table", "--n", "2", "--kind", "binary",
                     "--index", "0,0,0,0", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["classification"] == "or"
        assert obj["catalog_label"] == "nand"
        assert obj["catalog_agrees"] is False
        idx = logic.BinaryIndex(2, ((0, 0), (0, 0)))
        assert cli.table_from_obj(obj) == (idx, logic.binary_from_index(idx))


@st.composite
def tables(draw):
    """A random index at n = 2..4 and its table."""
    n = draw(st.integers(2, 4))
    row = st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(tuple)
    if draw(st.booleans()):
        idx = logic.UnaryIndex(n, draw(row))
        return idx, logic.unary_from_index(idx)
    idx = logic.BinaryIndex(n, tuple(draw(row) for _ in range(n)))
    return idx, logic.binary_from_index(idx)


def write_table(pair):
    return cli.table_to_obj(*pair)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_table_reader_refuses_or_reads_back(data):
    pair = data.draw(tables())
    doc = json.loads(json.dumps(write_table(pair)))
    assert cli.table_from_obj(doc) == pair
    assert_refused_or_read_back(cli.table_from_obj, write_table, data.draw(perturbed(doc)))


class TestClassify:
    def test_classification_only(self, capsys):
        assert main(["classify", "--n", "2", "--kind", "unary", "--index", "1,1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("negation")

    def test_not_boolean_is_a_domain_error(self, capsys):
        assert main(["classify", "--n", "3", "--kind", "unary", "--index", "0,0,0"]) == 1
        assert "not boolean" in capsys.readouterr().err

    @pytest.mark.parametrize("true_exponent", ["0", "1"])
    def test_table_json_carries_the_classify_json_fields(self, capsys, true_exponent):
        indexes = [("unary", flat) for flat in itertools.product((0, 1), repeat=2)]
        indexes += [("binary", flat) for flat in itertools.product((0, 1), repeat=4)]
        for kind, flat in indexes:
            argv = ["--n", "2", "--kind", kind, "--index", ",".join(map(str, flat)),
                    "--true-exponent", true_exponent, "--json"]
            assert main(["table", *argv]) == 0
            table_obj = json.loads(capsys.readouterr().out)
            assert main(["classify", *argv]) == 0
            classify_obj = json.loads(capsys.readouterr().out)
            fields = ("classification", "catalog_label", "catalog_agrees")
            assert list(classify_obj) == list(fields)
            assert {k: table_obj[k] for k in fields} == classify_obj


def assert_same_text(got: str, want: str) -> None:
    """Byte equality of two long outputs, reported at the first difference
    (pytest's full diff of megabyte strings takes minutes)."""
    if got != want:
        at = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w),
                  min(len(got), len(want)))
        start = max(at - 60, 0)
        pytest.fail(f"at char {at}: got {got[start : at + 60]!r}, want {want[start : at + 60]!r}")


class TestEnumerate:
    def test_distinct_only_binary(self, capsys):
        assert main(["enumerate", "--n", "2", "--kind", "binary", "--distinct-only"]) == 0
        assert capsys.readouterr().out.strip() == "16 16"

    def test_distinct_only_unary(self, capsys):
        assert main(["enumerate", "--n", "3", "--kind", "unary", "--distinct-only"]) == 0
        assert capsys.readouterr().out.strip() == "27 27"

    def test_distinct_only_past_the_int_to_str_limit(self, capsys):
        argv = ["enumerate", "--n", "60", "--kind", "binary", "--distinct-only",
                "--allow-large"]
        assert main(argv) == 0
        total, distinct = capsys.readouterr().out.split()
        assert total == distinct == radix.decimal_text(60**3600)
        assert len(total) == 6402
        assert main(argv + ["--json"]) == 0
        assert capsys.readouterr().out == f'{{"total": {total}, "distinct": {total}}}\n'

    def test_distinct_only_json(self, capsys):
        argv = ["enumerate", "--n", "2", "--kind", "unary", "--distinct-only", "--json"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == {"total": 4, "distinct": 4}

    def test_guard_without_override(self, capsys):
        assert main(["enumerate", "--n", "4", "--kind", "binary"]) == 1
        assert "enumeration" in capsys.readouterr().err

    def test_streaming_output(self, capsys):
        assert main(["enumerate", "--n", "2", "--kind", "unary"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert lines[0] == "0,0\t0,1"

    def test_json_stream_parses_back(self, capsys):
        for kind, n in [("unary", 2), ("unary", 5), ("binary", 3)]:
            assert main(["enumerate", "--n", str(n), "--kind", kind, "--json"]) == 0
            objs = json.loads(capsys.readouterr().out)
            family = logic.enumerate_unary(n) if kind == "unary" else logic.enumerate_binary(n)
            assert [cli.table_from_obj(o) for o in objs] == list(family)

    def test_text_form_streams(self, capsys, monkeypatch):
        """Past the guard the text form writes each line as its table comes:
        3 lines of the 4^16 tables are written before the stream is stopped."""
        class Stop(Exception):
            pass

        written, render = [], cli._enumeration_line

        def line(index, outputs):
            if len(written) == 3:
                raise Stop
            written.append(render(index, outputs))
            return written[-1]

        monkeypatch.setattr(cli, "_enumeration_line", line)
        with pytest.raises(Stop):
            main(["enumerate", "--n", "4", "--kind", "binary", "--allow-large"])

        def flat(rows):
            return ",".join(str(e) for row in rows for e in row)

        first = itertools.islice(logic.enumerate_binary(4, allow_large=True), 3)
        assert written == [f"{flat(idx.matrix)}\t{flat(t.outputs)}" for idx, t in first]
        assert capsys.readouterr().out.splitlines() == written

    def test_failed_guard_leaves_no_file(self, capsys, tmp_path):
        path = tmp_path / "family.txt"
        for extra in ([], ["--json"], ["--distinct-only"]):
            assert main(["enumerate", "--n", "9", "--kind", "unary",
                         "--output", str(path)] + extra) == 1
            assert not path.exists()
        assert "enumeration" in capsys.readouterr().err

    def test_output_file_sink(self, capsys, tmp_path):
        path = tmp_path / "family.txt"
        assert main(["enumerate", "--n", "2", "--kind", "unary",
                     "--output", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert len(path.read_text().splitlines()) == 4

    @pytest.mark.parametrize("kind, n", [("unary", n) for n in range(2, 7)]
                             + [("binary", 2), ("binary", 3)])
    def test_matches_the_reference_enumeration(self, capsys, kind, n):
        documents = reference_enumeration(kind, n)

        def flat(cells):
            return ",".join(str(e) for e in (cells if kind == "unary" else sum(cells, [])))

        argv = ["enumerate", "--n", str(n), "--kind", kind]
        assert main(argv) == 0
        assert_same_text(capsys.readouterr().out, "".join(
            f"{flat(d['index'])}\t{flat(d['outputs'])}\n" for d in documents))
        assert main(argv + ["--json"]) == 0
        assert_same_text(capsys.readouterr().out, json.dumps(documents) + "\n")

    def test_output_file_equals_stdout(self, capsys, tmp_path):
        argv = ["enumerate", "--n", "3", "--kind", "binary", "--json"]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        path = tmp_path / "family.json"
        assert main(argv + ["--output", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_text(encoding="utf-8") == stdout

    def test_enumerate_builds_no_table_objects(self, capsys, monkeypatch):
        for idx, table in logic.enumerate_binary(2):
            rebuilt = logic.BinaryIndex(2, idx.matrix)
            assert (idx, table) == (rebuilt, logic.binary_from_index(rebuilt))
        assert [idx.flat for idx, _ in logic.enumerate_binary(2)] == list(
            itertools.product(range(2), repeat=4))

        def refuse(*args, **kwargs):
            raise AssertionError("enumerate built a per-table object")

        for name in ("UnaryIndex", "BinaryIndex", "UnaryTable", "BinaryTable"):
            monkeypatch.setattr(logic, name, refuse)
        monkeypatch.setattr(cli, "table_to_obj", refuse)
        for argv in (["--n", "3", "--kind", "binary"],
                     ["--n", "3", "--kind", "binary", "--json"],
                     ["--n", "4", "--kind", "unary", "--json"]):
            assert main(["enumerate"] + argv) == 0
            assert capsys.readouterr().out


class TestTm:
    def test_run_even_a(self, capsys, even_a_file):
        assert main(["tm", even_a_file, "--word", "aa", "--mode", "run"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "accepted 3"

    def test_accept_with_trace(self, capsys, guess_file):
        assert main(["tm", guess_file, "--word", "0", "--mode", "accept",
                     "-t", "2", "--trace"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "accepted 2"
        assert lines[1:] == ["<q0; 0; 1>", "<q2; 0; 2>", "<qA; 0x; 3>"]

    def test_validation_violation(self, capsys, tmp_path):
        path = tmp_path / "blank.tm"
        path.write_text(fixtures.WRITES_BLANK_FILE)
        assert main(["tm", str(path), "--word", "a"]) == 1
        captured = capsys.readouterr()
        assert "writes blank" in captured.err
        assert captured.out == ""

    def test_unparsable_file(self, capsys, tmp_path):
        path = tmp_path / "broken.tm"
        path.write_text("states q0\nwhatnow\n")
        assert main(["tm", str(path), "--word", "a"]) == 2

    def test_non_utf8_file_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.tm"
        path.write_bytes(b"\xff" + fixtures.EVEN_A_FILE.encode())
        assert main(["tm", str(path), "--word", "a"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: cannot read machine file: 'utf-8' codec")

    def test_missing_file(self, capsys):
        assert main(["tm", "/no/such/file.tm", "--word", "a"]) == 2

    @pytest.mark.parametrize("mode", ["run", "accept"])
    def test_negative_step_bound_is_a_domain_error(self, capsys, even_a_file, mode):
        assert main(["tm", even_a_file, "--word", "aa", "--mode", mode, "--steps", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: step bound must be >= 0, got -1\n"

    def test_accept_space(self, capsys, even_a_file):
        assert main(["tm", even_a_file, "--word", "aa", "--mode", "accept-space",
                     "-t", "10", "-s", "4"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "accepted 3"
        assert main(["tm", even_a_file, "--word", "aa", "--mode", "accept-space",
                     "-t", "10"]) == 2  # --space is required in this mode

    def test_multichar_symbols_split_on_whitespace(self, capsys, tmp_path):
        wide, _ = harness.build_machine_pair("scan-accept", 2, 16)
        path = tmp_path / "scan16.tm"
        path.write_text(machinefile.format_machine(wide))
        assert main(["tm", str(path), "--word", "10 3", "--mode", "accept", "--json"]) == 0
        expected = turing.accepts_within(wide, ("10", "3"), 10_000, want_trace=False)
        assert json.loads(capsys.readouterr().out) == cli.outcome_to_obj(expected)
        assert expected.verdict == "accepted" and expected.steps_used == 3

    def test_json_outcome_round_trip(self, capsys, even_a_file):
        assert main(["tm", even_a_file, "--word", "aa", "--mode", "accept",
                     "-t", "5", "--trace", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        outcome = cli.outcome_from_obj(obj)
        assert outcome.verdict == "accepted"
        assert outcome.steps_used == 3
        assert outcome.trace[-1].state == "qA"


class TestOutcomeDocuments:
    def test_fixture_outcomes_round_trip(self):
        verdicts = set()
        for name, m in fixtures.fixture_suite().items():
            runs = [turing.accepts_within,
                    lambda m, w, t, want_trace: turing.accepts_within_space(m, w, t, 2, want_trace)]
            if turing.is_deterministic(m):
                runs.append(turing.run_deterministic)
            for l in range(4):
                for w in itertools.product(sorted(m.input_alphabet), repeat=l):
                    for t, run, want_trace in itertools.product(range(6), runs, (False, True)):
                        outcome = run(m, w, t, want_trace=want_trace)
                        obj = json.loads(json.dumps(cli.outcome_to_obj(outcome)))
                        assert cli.outcome_from_obj(obj) == outcome, (name, w, t)
                        verdicts.add(outcome.verdict)
        assert verdicts == {"accepted", "rejected", "dead-end", "bound-exceeded"}

    VALID = {"verdict": "accepted", "steps_used": 2, "max_head_position": 2,
             "trace": [{"state": "q0", "tapes": [["a", "b"]], "heads": [1]}]}

    @pytest.mark.parametrize("outcome, desc", [
        ({"verdict": "maybe", "steps_used": 1.5, "max_head_position": True, "trace": None}, {}),
        ({"verdict": "maybe"}, {}),
        ({"verdict": ["accepted"]}, {}),
        ({"steps_used": 1.5}, {}),
        ({"steps_used": True}, {}),
        ({"steps_used": "2"}, {}),
        ({"max_head_position": True}, {}),
        ({"max_head_position": None}, {}),
        ({"trace": "ab"}, {}),
        ({}, {"tapes": ["ab"]}),
        ({}, {"tapes": [["a", 1]]}),
        ({}, {"tapes": "ab"}),
        ({}, {"state": 0}),
        ({}, {"state": None}),
        ({}, {"heads": [1.0]}),
        ({}, {"heads": [False]}),
        ({}, {"heads": 1}),
    ])
    def test_from_obj_rejects_outside_input(self, outcome, desc):
        obj = {**self.VALID, "trace": [{**self.VALID["trace"][0], **desc}], **outcome}
        with pytest.raises(ValueError):
            cli.outcome_from_obj(obj)

    def test_valid_document_is_read(self):
        outcome = cli.outcome_from_obj(self.VALID)
        assert outcome.trace[0].tapes == (("a", "b"),)
        assert cli.outcome_to_obj(outcome) == self.VALID


@st.composite
def outcomes(draw):
    """Runs and searches of the differential tests' random machines, traced and
    untraced, with the outcome's machine and word."""
    m, word = draw(machines())
    t, want_trace = draw(st.integers(0, 7)), draw(st.booleans())
    mode = draw(st.sampled_from(["accept", "accept-space", "run"]))
    if mode == "run" and turing.is_deterministic(m):
        outcome = turing.run_deterministic(m, word, t, want_trace=want_trace)
    elif mode == "accept-space":
        s = draw(st.integers(1, 5))
        outcome = turing.accepts_within_space(m, word, t, s, want_trace=want_trace)
    else:
        outcome = turing.accepts_within(m, word, t, want_trace=want_trace)
    return m, word, outcome


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_outcome_reader_refuses_or_reads_back(data):
    _, _, outcome = data.draw(outcomes())
    doc = json.loads(json.dumps(cli.outcome_to_obj(outcome)))
    assert cli.outcome_from_obj(doc) == outcome
    assert_refused_or_read_back(cli.outcome_from_obj, cli.outcome_to_obj,
                                data.draw(perturbed(doc)))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_id_reader_refuses_or_reads_back(data):
    m, word, outcome = data.draw(outcomes())
    desc = data.draw(st.sampled_from([turing.initial_id(m, word), *(outcome.trace or ())]))
    doc = json.loads(json.dumps(cli.id_to_obj(desc)))
    assert cli.id_from_obj(doc) == desc
    assert_refused_or_read_back(cli.id_from_obj, cli.id_to_obj, data.draw(perturbed(doc)))


class TestEncode:
    def test_value(self, capsys):
        assert main(["encode", "b:16|3,10", "value"]) == 0
        assert capsys.readouterr().out.strip() == "163"

    def test_value_past_the_int_to_str_limit(self, capsys):
        digits = [(d * 0x9E3779B97F4A7C15 + 12345) % 2**64 for d in range(3000)]
        spec = f"b:{2**64}|{','.join(map(str, digits))}"
        assert main(["encode", spec, "value"]) == 0
        text = capsys.readouterr().out.strip()
        assert len(text) > 4300
        assert decimal_value(text) == naive_value(digits, 2**64)
        assert main(["encode", spec, "value", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out, parse_int=decimal_value)
        assert obj == {"word": spec, "action": "value", "result": naive_value(digits, 2**64)}

    def test_rebase(self, capsys):
        assert main(["encode", "b:16|3,10", "rebase", "2"]) == 0
        assert capsys.readouterr().out.strip() == "b:2|1,1,0,0,0,1,0,1"

    def test_digit_out_of_range_is_a_domain_error(self, capsys):
        assert main(["encode", "b:16|3,17", "value"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "out of range" in captured.err

    def test_malformed_spec_is_a_usage_error(self, capsys):
        assert main(["encode", "16|3,10", "value"]) == 2

    def test_shift_and_check(self, capsys):
        assert main(["encode", "b:16|3,10", "shift", "1", "7"]) == 0
        assert capsys.readouterr().out.strip() == "b:16|3,1"
        assert main(["encode", "b:16|3,10", "check", "b:2|1,1,0,0,0,1,0,1", "256"]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_action_arity_usage_error(self, capsys):
        assert main(["encode", "b:16|3,10", "rebase"]) == 2

    def test_json(self, capsys):
        assert main(["encode", "b:16|3,10", "value", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj == {"word": "b:16|3,10", "action": "value", "result": 163}
        assert radix.word_value(radix.parse_word(obj["word"])) == obj["result"]


class TestExperiment:
    def test_csv_report(self, capsys, tmp_path, spec_file):
        out_path = tmp_path / "report.csv"
        assert main(["experiment", spec_file, "--format", "csv",
                     "--output", str(out_path)]) == 0
        summary = capsys.readouterr().out
        assert harness.BOUND_NOTE in summary
        lines = out_path.read_text().splitlines()
        assert lines[0] == "l,b,word,steps_wide,steps_binary,agree,capped"
        assert len(lines) == 7
        assert all(",true," in line for line in lines[1:])

    def test_json_report_round_trip(self, capsys, tmp_path, spec_file):
        out_path = tmp_path / "report.json"
        assert main(["experiment", spec_file, "--format", "json",
                     "--output", str(out_path)]) == 0
        report = harness.report_from_obj(json.loads(out_path.read_text()))
        spec = harness.load_spec(spec_file)
        assert report == harness.run_experiment(spec)

    def test_empty_lengths_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scan_spec_obj(lengths=[])))
        assert main(["experiment", str(path)]) == 2

    @pytest.mark.parametrize("doc", [
        [1, 2],
        scan_spec_obj(lengths=3),
        scan_spec_obj(lengths=["a"]),
        scan_spec_obj(lengths=[1, True]),
        scan_spec_obj(base_rule=2.5),
        scan_spec_obj(base_rule=None),
        scan_spec_obj(words_per_length=2.7),
        scan_spec_obj(seed=True),
        scan_spec_obj(step_cap="64"),
        scan_spec_obj(machine_family=["scan-accept"]),
        scan_spec_obj(machine_family={"a": 1}),
    ])
    def test_mistyped_spec_is_a_usage_error(self, capsys, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out_path = tmp_path / "report.csv"
        assert main(["experiment", str(path), "--output", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: bad experiment spec: ")
        assert not out_path.exists()

    def test_capped_rows_still_exit_zero(self, capsys, tmp_path):
        path = tmp_path / "capped.json"
        path.write_text(json.dumps(scan_spec_obj(
            machine_family="digit-sum-parity", lengths=[2], step_cap=1)))
        out_path = tmp_path / "report.csv"
        assert main(["experiment", str(path), "--output", str(out_path)]) == 0
        lines = out_path.read_text().splitlines()
        assert all(line.endswith(",true") for line in lines[1:])  # capped column

    def test_byte_identical_reruns(self, capsys, tmp_path, spec_file):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(["experiment", spec_file, "--output", str(first)]) == 0
        out_a = capsys.readouterr().out
        assert main(["experiment", spec_file, "--output", str(second)]) == 0
        out_b = capsys.readouterr().out
        assert first.read_bytes() == second.read_bytes()
        assert out_a == out_b

    def test_unknown_family_is_a_domain_error(self, capsys, tmp_path):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(scan_spec_obj(machine_family="mystery")))
        assert main(["experiment", str(path)]) == 1


@pytest.mark.parametrize("target", ["missing-dir/out", "existing-dir"])
@pytest.mark.parametrize("argv", [
    ["enumerate", "--n", "2", "--kind", "unary"],
    ["experiment", "SPEC"],
], ids=["enumerate", "experiment"])
def test_unwritable_output_is_a_usage_error(capsys, tmp_path, spec_file, argv, target):
    (tmp_path / "existing-dir").mkdir()
    before = sorted(tmp_path.rglob("*"))
    argv = [spec_file if a == "SPEC" else a for a in argv]
    assert main(argv + ["--output", str(tmp_path / target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: cannot write output file: ")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("failure, raised, code", [
    (RuntimeError("writer failed"), RuntimeError, None),
    (KeyboardInterrupt(), KeyboardInterrupt, None),
    (OSError(28, "No space left on device"), None, 2),
], ids=["error", "interrupt", "disk-full"])
@pytest.mark.parametrize("command", ["enumerate", "experiment"])
def test_failed_write_keeps_the_old_file(capsys, monkeypatch, tmp_path, spec_file,
                                         command, failure, raised, code):
    """A command that fails while writing ``--output`` leaves the old file's
    bytes and no temporary file behind."""
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    path = out_dir / "report"
    path.write_bytes(b"old bytes\r\n")
    if command == "enumerate":
        argv = ["enumerate", "--n", "2", "--kind", "unary"]
        calls = itertools.count()

        def line(*_):  # the first line is written, the second fails
            if next(calls):
                raise failure
            return "0,0\t0,1"
        monkeypatch.setattr(cli, "_enumeration_line", line)
    else:
        argv = ["experiment", spec_file]

        def report(_report, _fmt, sink):  # part of a report, then the failure
            print("partial", file=sink)
            raise failure
        monkeypatch.setattr(harness, "emit_report", report)
    argv += ["--output", str(path)]
    if raised is None:
        assert main(argv) == code
        assert capsys.readouterr().err == (
            f"usage error: cannot write output file: [Errno 28] No space left on device: "
            f"{str(path)!r}\n")
    else:
        with pytest.raises(raised):
            main(argv)
    assert path.read_bytes() == b"old bytes\r\n"
    assert list(out_dir.iterdir()) == [path]


@pytest.mark.parametrize("argv", [
    ["enumerate", "--n", "3", "--kind", "unary"],
    ["enumerate", "--n", "2", "--kind", "binary", "--json"],
    ["experiment", "SPEC", "--format", "csv"],
    ["experiment", "SPEC", "--format", "json"],
])
def test_output_file_replaces_the_old_one_with_the_stdout_bytes(capsys, tmp_path, spec_file,
                                                                 argv):
    """``--output`` writes what stdout gets (less the experiment's summary
    line) over a longer old file, through a symbolic link, keeping the mode."""
    argv = [spec_file if a == "SPEC" else a for a in argv]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    if argv[0] == "experiment":
        stdout = stdout[: stdout.rstrip("\n").rindex("\n") + 1]
    real = tmp_path / "real"
    real.write_bytes(b"x" * (len(stdout) + 100))
    real.chmod(0o640)
    link = tmp_path / "link"
    link.symlink_to(real)
    assert main(argv + ["--output", str(link)]) == 0
    assert link.is_symlink()
    assert real.read_bytes() == stdout.encode()
    assert stat.S_IMODE(real.stat().st_mode) == 0o640


def test_output_to_a_pipe_or_a_linked_file_is_written_in_place(capsys, tmp_path):
    """A target that renaming would replace by another kind of file -- a
    pipe, a file with a second hard link -- is written where it stands, and
    no temporary file is made beside it."""
    argv = ["enumerate", "--n", "2", "--kind", "unary"]
    assert main(argv) == 0
    stdout = capsys.readouterr().out.encode()
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    read = []
    reader = threading.Thread(target=lambda: read.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main(argv + ["--output", str(fifo)]) == 0
    reader.join(10)
    assert read == [stdout]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    linked = tmp_path / "linked"
    linked.write_bytes(b"old bytes\n")
    (tmp_path / "other-name").hardlink_to(linked)
    assert main(argv + ["--output", str(linked)]) == 0
    assert (tmp_path / "other-name").read_bytes() == stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "linked", "other-name"]


def test_a_directory_target_is_refused_before_any_line(capsys, monkeypatch, tmp_path):
    lines = []
    monkeypatch.setattr(cli, "_enumeration_line", lambda *_: lines.append(1) or "0\t0")
    argv = ["enumerate", "--n", "2", "--kind", "unary", "--output", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"usage error: cannot write output file: [Errno 21] Is a directory: {str(tmp_path)!r}\n")
    assert lines == []
    assert list(tmp_path.iterdir()) == []


def test_interrupt_exits_130_without_a_traceback(capsys, monkeypatch):
    def interrupted(argv=None):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "main", interrupted)
    with pytest.raises(SystemExit) as exited:
        cli.entry()
    assert exited.value.code == 130
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("n", ["1", "0", "-2"])
@pytest.mark.parametrize("argv", [
    ["table", "--kind", "unary", "--index", "0"],
    ["classify", "--kind", "binary", "--index", "0"],
    ["enumerate", "--kind", "binary"],
], ids=["table", "classify", "enumerate"])
def test_an_arity_below_two_is_one_domain_error(capsys, argv, n):
    """Every command refuses the arity first, before it counts index entries."""
    assert main(argv + ["--n", n]) == 1
    assert capsys.readouterr() == ("", f"error: arity too small: need n >= 2, got {n}\n")


class TestParser:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_byte_identical_table_output(self, capsys):
        argv = ["table", "--n", "2", "--kind", "binary", "--index", "1,0,0,1"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


#: For each command, argv words that parse, so that a flag appended after
#: them is left over for the top-level parser.
VALID_ARGS = {
    "table": ["--n", "2", "--kind", "unary", "--index", "1,1"],
    "classify": ["--n", "2", "--kind", "binary", "--index", "0,0,0,0"],
    "enumerate": ["--n", "2", "--kind", "unary"],
    "tm": ["x.tm"],
    "encode": ["b:2|1", "value"],
    "experiment": ["spec.json"],
}
#: For each command, argv words with one value outside its option's choices.
BAD_CHOICE = {
    "table": ["--n", "2", "--kind", "ternary", "--index", "1,1"],
    "classify": ["--n", "2", "--kind", "unary", "--index", "1,1", "--true-exponent", "2"],
    "enumerate": ["--n", "2", "--kind", "ternary"],
    "tm": ["x.tm", "--mode", "walk"],
    "encode": ["b:2|1", "negate"],
    "experiment": ["spec.json", "--format", "xml"],
}
TOP_USAGE = "usage: cyclogic [-h] {table,classify,enumerate,tm,encode,experiment} ...\n"


def parse_outcome(parser, argv, capsys):
    """What a parser does with argv: exit code, stdout, stderr, namespace."""
    try:
        namespace, code = vars(parser.parse_args(argv)), None
    except SystemExit as exc:
        namespace, code = None, exc.code
    out, err = capsys.readouterr()
    return code, out, err, namespace


class TestSplitParser:
    """``main`` builds a parser holding only the command it is given; that
    parser must print, exit and parse as the full one does."""

    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("command", cli._COMMANDS)
    @pytest.mark.parametrize("case", ["help", "missing", "bad-choice", "unknown-flag",
                                      "help-after-separator", "parses"])
    def test_split_parser_is_byte_identical_to_the_full_one(self, capsys, command, case):
        argv = [command] + {
            "help": ["-h"],
            "missing": [],
            "bad-choice": BAD_CHOICE[command],
            "unknown-flag": VALID_ARGS[command] + ["--nope"],
            "help-after-separator": VALID_ARGS[command] + ["--", "-h"],
            "parses": VALID_ARGS[command],
        }[case]
        split = parse_outcome(cli.build_parser(command), argv, capsys)
        full = parse_outcome(cli.build_parser(), argv, capsys)
        assert split == full
        code, out, err, namespace = split
        if case == "help":
            assert (code, err) == (0, "") and out.startswith(f"usage: cyclogic {command} [-h]")
        elif case == "parses":
            assert namespace["func"] is cli._COMMANDS[command][2]
        elif case == "help-after-separator":  # a word, not the help flag
            assert out == ""
        else:
            assert (code, out) == (2, "")
        if case == "unknown-flag":
            assert err == TOP_USAGE + "cyclogic: error: unrecognized arguments: --nope\n"

    def test_main_builds_only_the_named_command(self, capsys, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda *only: built.append(only) or build(*only))
        for argv in (["encode", "b:2|1", "value"], ["-h"], ["frobnicate"], [], ["--", "tm"]):
            main(argv)
        assert built == [("encode",), (None,), (None,), (None,), (None,)]

    def test_no_command_prints_the_usage(self, capsys):
        assert main([]) == 2
        assert capsys.readouterr() == (
            "", TOP_USAGE + "cyclogic: error: the following arguments are required: command\n")

    def test_help_lists_every_command(self, capsys):
        assert main(["-h"]) == 0
        assert capsys.readouterr() == (TOP_USAGE + """
roots-of-unity logic tables, Turing machine runs, radix encodings, and step-
count experiments

positional arguments:
  {table,classify,enumerate,tm,encode,experiment}
    table               print one generated truth table
    classify            classification only
    enumerate           stream a whole function family
    tm                  run a machine from a description file
    encode              radix word operations
    experiment          run a step-count experiment

options:
  -h, --help            show this help message and exit
""", "")

    def test_unknown_command_names_the_argument(self, capsys):
        assert main(["tm-long"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        # the list of choices after this prefix is quoted differently by
        # later Python versions
        assert err.startswith(
            TOP_USAGE + "cyclogic: error: argument command: invalid choice: 'tm-long' (")


def modules_after(code: str) -> dict:
    """Run ``code`` in a fresh interpreter with the package on its path; the
    names of the package's loaded modules, and whatever ``code`` assigned
    to ``result``."""
    src = Path(__file__).resolve().parent.parent / "src"
    script = (f"import json, sys\nresult = None\n{code}\n"
              "print(json.dumps({'modules': sorted(m for m in sys.modules "
              "if m.startswith('cyclogic')), 'result': result}))")
    done = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


class TestImportSet:
    """A command loads only the modules it uses."""

    @pytest.mark.parametrize("argv", [
        None,
        ["tm", "{tm}", "--word", "aaaa", "--mode", "accept"],
        ["tm", "{tm}", "--word", "aa", "--mode", "run", "--json"],
        ["encode", "b:16|3,10", "rebase", "2"],
        ["encode", "b:16|3,10", "value", "--json"],
    ], ids=["import", "tm-accept", "tm-run", "encode-rebase", "encode-value"])
    def test_cli_leaves_logic_and_harness_unloaded(self, argv):
        tm = Path(__file__).resolve().parent.parent / "demos" / "machines" / "even_a.tm"
        code = "import cyclogic.cli"
        if argv is not None:
            argv = [str(tm) if word == "{tm}" else word for word in argv]
            code += f"\nresult = cyclogic.cli.main({argv!r})"
        done = modules_after(code)
        assert done["result"] in (None, 0)
        assert "cyclogic.cli" in done["modules"]
        assert not {"cyclogic.logic", "cyclogic.harness"} & set(done["modules"])

    @pytest.mark.parametrize("argv, module", [
        (["table", "--n", "2", "--kind", "unary", "--index", "1,1"], "cyclogic.logic"),
        (["experiment", "demos/specs/scan_accept.json"], "cyclogic.harness"),
    ])
    def test_a_command_loads_what_it_uses(self, argv, module):
        root = Path(__file__).resolve().parent.parent
        done = modules_after(f"import os, cyclogic.cli\nos.chdir({str(root)!r})\n"
                             f"result = cyclogic.cli.main({argv!r})")
        assert done["result"] == 0
        assert module in done["modules"]

    def test_every_export_is_its_home_modules_object(self):
        code = """
import cyclogic
loaded_by_import = sorted(m for m in sys.modules if m.startswith('cyclogic.'))
from cyclogic import logic, radix, turing, machinefile, harness
star = {}
exec('from cyclogic import *', star)
mismatched = []
for name in cyclogic.__all__:
    homes = [m for m in (logic, radix, turing, machinefile, harness) if name in vars(m)]
    value = vars(homes[0])[name] if homes else vars(cyclogic)[name]
    if not all(vars(m)[name] is value for m in homes) \\
            or getattr(cyclogic, name) is not value or star[name] is not value:
        mismatched.append(name)
result = [loaded_by_import, mismatched, sorted(set(star) - {'__builtins__'}) == sorted(cyclogic.__all__)]
"""
        loaded_by_import, mismatched, star_is_all = modules_after(code)["result"]
        assert loaded_by_import == []
        assert mismatched == []
        assert star_is_all
