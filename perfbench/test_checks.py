"""Each checker accepts the program's real output and fails a corrupted one.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from run import invoke  # noqa: E402
from spans import Tracer  # noqa: E402

from cyclogic import cli, harness, logic, radix  # noqa: E402


def cyclogic(argv):
    _, code, out, err = invoke(cli, argv)
    return code, out, err


def assert_detects(check, result, corrupt):
    code, out, err = result
    assert check(code, out, err) is None
    bad = corrupt(out)
    assert bad != out
    assert check(code, bad, err) is not None
    assert check(1, out, "error: boom") is not None


def test_experiment(tmp_path):
    for family in workloads.FAMILIES:
        for rule, lengths in (("square", [1, 2]), (16, [2, 5]), (4, [3, 9])):
            spec = {"lengths": lengths, "base_rule": rule, "words_per_length": 3,
                    "seed": 11, "machine_family": family, "step_cap": 256}
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(spec))
            check = lambda *r: checks.check_experiment(spec, harness.BOUND_NOTE, *r)
            result = cyclogic(["experiment", str(path), "--format", "json"])

            def corrupt(out, field="steps_binary"):
                body, _, line = out.rstrip("\n").rpartition("\n")
                report = json.loads(body)
                row = next(r for r in report["rows"] if r[field] is not None)
                row[field] += 1
                return json.dumps(report) + "\n" + line + "\n"

            assert_detects(check, result, corrupt)
            assert_detects(check, result, lambda out: corrupt(out, "steps_wide"))
            assert_detects(check, result, lambda out: out.replace('"agree": true', '"agree": false', 1))
            assert_detects(check, result, lambda out: out.replace("T^6", "T^5"))


def test_tm(tmp_path):
    machines = workloads.write_machines(str(tmp_path))
    for name, symbols, modes in workloads.TM_CASES:
        for mode in modes:
            for n in (7, 8):
                argv = ["tm", machines[name], "--word", symbols[-1] * n, "--mode", mode,
                        "--steps", "64", "--json", "--space", str(n + 2)]
                check = lambda *r: checks.check_tm(name, mode, n, *r)
                result = cyclogic(argv)
                assert_detects(check, result, lambda out: out.replace(f": {n + 1},", f": {n},"))
                assert_detects(check, result, lambda out: out.replace('"verdict": "', '"verdict": "x'))


def bump_first_digit(out):
    head, _, body = out.strip().partition("|")
    digits = body.split(",")
    digits[0] = str((int(digits[0]) + 1) % 2)
    return f"{head}|{','.join(digits)}"


def test_rebase():
    wide = workloads.WIDE
    for digits in ([5, 0, 7], [0, 0, 0], [2**64 - 1] * 5):
        value = checks.shift_add(digits, 64)
        text = f"b:{wide}|{','.join(map(str, digits))}"
        for new_base in (2, 10):
            check = lambda *r: checks.check_rebase(value, len(digits), wide, new_base, *r)
            result = cyclogic(["encode", text, "rebase", str(new_base)])
            assert_detects(check, result, lambda out: out.strip() + ",0")
            assert_detects(check, result, bump_first_digit)
    text = "b:10|" + ",".join("3141592653589793") + ",1"
    value = checks.decimal_to_int("1" + "3141592653589793"[::-1])
    check = lambda *r: checks.check_rebase(value, 17, 10, wide, *r)
    assert_detects(check, cyclogic(["encode", text, "rebase", str(wide)]),
                   lambda out: out.strip()[:-1] + "2")
    # a length-l word in base 2**(l*l) keeps l**3 bits
    check = lambda *r: checks.check_rebase(1, 2, 16, 2, *r)
    assert_detects(check, cyclogic(["encode", "b:16|1,0", "rebase", "2"]),
                   lambda out: out.strip().rsplit(",", 1)[0])


def test_value():
    digits = [3, 1, 4, 1, 5]
    value = checks.shift_add(digits, 64)
    text = f"b:{workloads.WIDE}|{','.join(map(str, digits))}"
    check = lambda *r: checks.check_value(value, *r)
    assert_detects(check, cyclogic(["encode", text, "value"]),
                   lambda out: out.strip()[:-1] + str((int(out.strip()[-1]) + 1) % 10))
    # The known defect is reported as such, and only for values past the limit.
    big = [7] * 300
    code, out, err = cyclogic(["encode", f"b:{workloads.WIDE}|{','.join(map(str, big))}", "value"])
    assert checks.check_value(checks.shift_add(big, 64), code, out, err) == checks.KNOWN_DEFECT
    assert checks.check_value(value, code, out, err) not in (None, checks.KNOWN_DEFECT)


def test_enumerate():
    for kind, n in (("unary", 3), ("binary", 2)):
        check = lambda *r: checks.check_distinct(kind, n, *r)
        assert_detects(check, cyclogic(["enumerate", "--n", str(n), "--kind", kind, "--distinct-only"]),
                       lambda out: out.replace(" ", " 1"))
        check = lambda *r: checks.check_enum_json(kind, n, *r)
        result = cyclogic(["enumerate", "--n", str(n), "--kind", kind, "--json"])

        def corrupt(out):
            items = json.loads(out)
            items[-1]["outputs"] = items[0]["outputs"]
            return json.dumps(items)

        assert_detects(check, result, corrupt)
        assert_detects(check, result, lambda out: json.dumps(json.loads(out)[:-1]))


def test_tracer_spans_and_self_time():
    tracer = Tracer(cli, harness, radix, logic)
    original = logic.enumerate_unary
    tracer.install(0, False)
    try:
        code, _, _ = cyclogic(["enumerate", "--n", "4", "--kind", "unary", "--distinct-only"])
    finally:
        tracer.uninstall()
    assert code == 0 and logic.enumerate_unary is original
    names = [span[0] for span in tracer.spans]
    assert names == ["cli", "logic.report", "logic.enumerate"]
    assert [span[3] for span in tracer.spans] == [-1, 0, 1]
    metrics = tracer.layer_metrics()
    assert metrics["logic.tables"][0] == 4**4
    assert 0 < metrics["logic.report.self_s"][0] < metrics["logic.report.busy_s"][0]
    assert metrics["cli.calls"][0] == 1
