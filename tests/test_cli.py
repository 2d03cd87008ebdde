"""Command-line contract: outputs, exit codes 0/1/2, JSON round trips."""

import itertools
import json

import pytest

from cyclogic import cli, fixtures, harness, logic, radix
from cyclogic.cli import main
from oracles import decimal_value, naive_value


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

    def test_guard_without_override(self, capsys):
        assert main(["enumerate", "--n", "4", "--kind", "binary"]) == 1
        assert "enumeration" in capsys.readouterr().err

    def test_streaming_output(self, capsys):
        assert main(["enumerate", "--n", "2", "--kind", "unary"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert lines[0] == "0,0\t0,1"

    def test_json_stream_parses_back(self, capsys):
        assert main(["enumerate", "--n", "2", "--kind", "unary", "--json"]) == 0
        objs = json.loads(capsys.readouterr().out)
        tables = [cli.table_from_obj(o)[1] for o in objs]
        assert tables == [t for _, t in logic.enumerate_unary(2)]

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

    def test_json_outcome_round_trip(self, capsys, even_a_file):
        assert main(["tm", even_a_file, "--word", "aa", "--mode", "accept",
                     "-t", "5", "--trace", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        outcome = cli.outcome_from_obj(obj)
        assert outcome.verdict == "accepted"
        assert outcome.steps_used == 3
        assert outcome.trace[-1].state == "qA"


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
