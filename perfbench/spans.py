"""Per-layer spans, recorded from outside the program.

The tracer swaps wrappers in for the layers' public functions under the
names that ``cli``, ``harness``, ``radix`` and ``logic`` call them by, for
the duration of one op, then puts the originals back.  A span records its
name, start, end, parent span and op id; spans stay in memory until the
run ends.  A span's self time is its busy time minus its children's.

Generators (``logic.enumerate_*``) get one span per call whose busy time
sums the time spent producing each item, so iteration done by the caller
is attributed to the layer that does the work.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter, defaultdict
from time import perf_counter

# span fields
NAME, START, END, PARENT, OP, BUSY = range(6)


class Tracer:
    def __init__(self, cli, harness, radix, logic) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.op = -1
        self.op_wants_trace = False
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        targets = [
            (cli, "main", "cli", self._after_main),
            (cli, "parse_machine_file", "machinefile.parse", None),
            (cli, "validate", "turing.validate", None),
            (cli, "run_deterministic", "turing.run", self._after_turing),
            (cli, "accepts_within", "turing.search", self._after_search),
            (cli, "accepts_within_space", "turing.search", self._after_search),
            (harness, "accepts_within", "turing.search", self._after_search),
            (harness, "run_experiment", "harness.experiment", self._after_experiment),
            (harness, "build_machine_pair", "harness.build", None),
            (harness, "emit_report", "harness.emit", None),
            (harness, "fit_exponent", "harness.fit", self._after_fit),
            (harness, "rebase", "radix.rebase", self._after_rebase),
            (harness, "format_word", "radix.text", None),
            (harness, "parse_word", "radix.text", None),
            (radix, "rebase", "radix.rebase", self._after_rebase),
            (radix, "word_value", "radix.value", None),
            (radix, "format_word", "radix.text", None),
            (radix, "parse_word", "radix.text", None),
            (logic, "distinctness_report", "logic.report", None),
        ]
        self._wrappers = [
            (module, attr, self._wrap(name, getattr(module, attr), after))
            for module, attr, name, after in targets
        ]
        self._wrappers += [
            (logic, attr, self._wrap_iter("logic.enumerate", getattr(logic, attr)))
            for attr in ("enumerate_unary", "enumerate_binary")
        ]

    # -- installing ---------------------------------------------------------

    def install(self, op: int, wants_trace: bool) -> None:
        self.op, self.op_wants_trace = op, wants_trace
        for module, attr, wrapper in self._wrappers:
            self._originals.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    # -- spans --------------------------------------------------------------

    def _wrap(self, name, fn, after):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, perf_counter(), 0.0, parent, self.op, 0.0]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                span[BUSY] = span[END] - span[START]
                self._stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _wrap_iter(self, name, fn):
        make = self._wrap(name, fn, None)

        def traced(*args, **kwargs):
            idx = len(self.spans)
            return self._timed_items(idx, make(*args, **kwargs))

        return traced

    def _timed_items(self, idx, items):
        span = self.spans[idx]
        while True:
            self._stack.append(idx)
            start = perf_counter()
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                span[END] = perf_counter()
                span[BUSY] += span[END] - start
                self._stack.pop()
            self.counts["logic.tables"] += 1
            yield item

    # -- counters taken from results ---------------------------------------

    def _after_main(self, code) -> None:
        self.counts["cli.exit_nonzero"] += code != 0

    def _after_turing(self, outcome) -> None:
        self.counts["turing.steps"] += outcome.steps_used

    def _after_search(self, outcome) -> None:
        self._after_turing(outcome)
        if outcome.trace is not None and not self.op_wants_trace:
            self.counts["turing.witness_unused"] += 1

    def _after_experiment(self, report) -> None:
        self.counts["harness.rows"] += len(report.rows)
        self.counts["harness.capped"] += sum(r.capped for r in report.rows)

    def _after_fit(self, fitted) -> None:
        self.counts["harness.fit_none"] += fitted is None

    def _after_rebase(self, word) -> None:
        self.counts["radix.digits_out"] += len(word.digits)

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        calls: Counter[str] = Counter()
        busy: defaultdict[str, float] = defaultdict(float)
        child_busy = [0.0] * len(self.spans)
        for span in self.spans:
            calls[span[NAME]] += 1
            busy[span[NAME]] += span[BUSY]
            if span[PARENT] >= 0:
                child_busy[span[PARENT]] += span[BUSY]
        own: defaultdict[str, float] = defaultdict(float)
        for span, children in zip(self.spans, child_busy):
            own[span[NAME]] += span[BUSY] - children
        c = self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        turing_busy = busy["turing.run"] + busy["turing.search"]
        return {
            "turing.run.calls": (calls["turing.run"], "count"),
            "turing.run.busy_s": (busy["turing.run"], "s"),
            "turing.search.calls": (calls["turing.search"], "count"),
            "turing.search.busy_s": (busy["turing.search"], "s"),
            "turing.validate.busy_s": (busy["turing.validate"], "s"),
            "turing.steps": (c["turing.steps"], "count"),
            "turing.steps_per_busy_s": (ratio(c["turing.steps"], turing_busy), "1/s"),
            "turing.witness_unused_ratio": (
                ratio(c["turing.witness_unused"], calls["turing.search"]), "ratio"),
            "harness.experiments": (calls["harness.experiment"], "count"),
            "harness.self_s": (own["harness.experiment"], "s"),
            "harness.build.calls": (calls["harness.build"], "count"),
            "harness.build.busy_s": (busy["harness.build"], "s"),
            "harness.emit.busy_s": (busy["harness.emit"], "s"),
            "harness.fit.busy_s": (busy["harness.fit"], "s"),
            "harness.rows": (c["harness.rows"], "count"),
            "harness.capped_ratio": (ratio(c["harness.capped"], c["harness.rows"]), "ratio"),
            "harness.fit_none_ratio": (
                ratio(c["harness.fit_none"], calls["harness.fit"]), "ratio"),
            "radix.rebase.calls": (calls["radix.rebase"], "count"),
            "radix.rebase.busy_s": (busy["radix.rebase"], "s"),
            "radix.rebase.self_s": (own["radix.rebase"], "s"),
            "radix.value.calls": (calls["radix.value"], "count"),
            "radix.value.busy_s": (busy["radix.value"], "s"),
            "radix.text.busy_s": (busy["radix.text"], "s"),
            "radix.digits_out": (c["radix.digits_out"], "count"),
            "logic.report.calls": (calls["logic.report"], "count"),
            "logic.report.busy_s": (busy["logic.report"], "s"),
            "logic.report.self_s": (own["logic.report"], "s"),
            "logic.tables": (c["logic.tables"], "count"),
            "logic.enumerate.busy_s": (busy["logic.enumerate"], "s"),
            "logic.tables_per_busy_s": (
                ratio(c["logic.tables"], busy["logic.enumerate"]), "1/s"),
            "cli.calls": (calls["cli"], "count"),
            "cli.busy_s": (busy["cli"], "s"),
            "cli.self_s": (own["cli"], "s"),
            "cli.exit_nonzero": (c["cli.exit_nonzero"], "count"),
            "machinefile.parse.calls": (calls["machinefile.parse"], "count"),
            "machinefile.parse.busy_s": (busy["machinefile.parse"], "s"),
        }

    def write_spans(self, path: str) -> None:
        """One JSON object per line; a span's id is its line number from 0."""
        keys = ("name", "start", "end", "parent", "op", "busy")
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
