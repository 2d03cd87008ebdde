"""The benchmark tracer (perfbench/spans.py) patches the package's
functions by name; a rename that drops one of them must fail here rather
than in a traced benchmark run."""

import json
from pathlib import Path

from cyclogic import cli, fixtures, harness, logic, radix

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Tracer

    modules = (cli, harness, radix, logic)
    before = [dict(vars(m)) for m in modules]
    tracer = Tracer(*modules)  # looks up every patched name
    tracer.install(0, False)
    try:
        patched = [name for m, old in zip(modules, before)
                   for name, value in vars(m).items() if old.get(name) is not value]
        assert patched, "install patched nothing"
    finally:
        tracer.uninstall()
    for m, old in zip(modules, before):
        assert all(vars(m)[name] is value for name, value in old.items()), m.__name__


def test_one_op_of_each_kind_shows_every_layer(monkeypatch, tmp_path):
    """A refactor that moves a layer's work out of the patched names leaves
    that layer's metrics at 0 in traced runs; here it fails instead."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import NAME, Tracer

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"lengths": [1, 2], "base_rule": 4, "words_per_length": 2,
                                "seed": 1, "machine_family": "scan-accept", "step_cap": 64}))
    machine = tmp_path / "even_a.tm"
    machine.write_text(fixtures.EVEN_A_FILE)
    ops = [
        ["experiment", str(spec)],
        ["tm", str(machine), "--word", "aa", "--mode", "run"],
        ["tm", str(machine), "--word", "aa", "--mode", "accept"],
        ["encode", "b:16|3,10", "rebase", "2"],
        ["encode", "b:16|3,10", "value"],
    ]
    tracer = Tracer(cli, harness, radix, logic)
    for op, argv in enumerate(ops):
        tracer.install(op, False)
        try:
            assert cli.main(argv) == 0, argv
        finally:
            tracer.uninstall()
    assert {span[NAME] for span in tracer.spans} >= {
        "harness.experiment", "harness.build", "harness.fit", "harness.emit",
        "turing.search", "turing.run", "turing.validate", "machinefile.parse",
        "radix.rebase", "radix.value",
    }
