"""The benchmark tracer (perfbench/spans.py) patches the package's
functions by name; a rename that drops one of them must fail here rather
than in a traced benchmark run."""

from pathlib import Path

from cyclogic import cli, harness, logic, radix

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
