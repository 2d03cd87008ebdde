"""cyclogic: exact roots-of-unity logic, Turing machines, radix encodings.

The library keeps all logic arithmetic on residue exponents (never floats),
simulates multi-tape deterministic and nondeterministic machines with
time- and space-bounded acceptance, re-encodes words between digit bases
with exact big-integer values, and measures step-count growth between
wide-alphabet machines and their binary twins.

Every name in ``__all__`` is imported from its submodule on first use, so
importing the package, or ``cyclogic.cli`` for one command, loads only the
submodules that are used.
"""

import importlib

__version__ = "0.1.0"

#: Each submodule the package re-exports from, with the names it exports.
_EXPORTS = {
    "logic": (
        "BinaryIndex", "BinaryTable", "EnumerationTooLarge", "LabelCheck",
        "LogicValue", "TruthConvention", "UnaryIndex", "UnaryTable",
        "apply_binary", "apply_unary", "binary_from_index", "catalog_label",
        "check_label", "classify_binary", "classify_unary", "cyclic_shift",
        "distinctness_report", "enumerate_binary", "enumerate_unary",
        "exponent_product", "label_report", "make_value", "to_complex",
        "unary_from_index",
    ),
    "radix": (
        "RadixWord", "exponent_identity_check", "format_word", "parse_word",
        "rebase", "rebased_length", "symbol_shift", "word_value",
    ),
    "turing": (
        "InstantaneousDescription", "NotDeterministic", "RunOutcome",
        "TimeBoundReport", "TimeBoundRow", "Transition", "TuringMachine",
        "Violation", "accepts_within", "accepts_within_space",
        "check_time_bound", "initial_id", "is_deterministic", "make_machine",
        "run_deterministic", "scanned_symbols", "successors", "validate",
    ),
    "machinefile": ("MachineFileError", "format_machine", "parse_machine", "parse_machine_file"),
    "harness": (
        "BOUND_NOTE", "ExperimentSpec", "StepReport", "StepRow", "StepSummary",
        "build_machine_pair", "emit_report", "load_spec", "report_from_obj",
        "report_to_obj", "run_experiment",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    """Import an exported name's submodule, or one of those submodules, on
    first use (PEP 562), so ``import cyclogic.cli`` loads only what the
    command line needs."""
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
