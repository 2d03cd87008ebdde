"""cyclogic: exact roots-of-unity logic, Turing machines, radix encodings.

The library keeps all logic arithmetic on residue exponents (never floats),
simulates multi-tape deterministic and nondeterministic machines with
time- and space-bounded acceptance, re-encodes words between digit bases
with exact big-integer values, and measures step-count growth between
wide-alphabet machines and their binary twins.
"""

from .logic import (
    BinaryIndex,
    BinaryTable,
    EnumerationTooLarge,
    LabelCheck,
    LogicValue,
    TruthConvention,
    UnaryIndex,
    UnaryTable,
    apply_binary,
    apply_unary,
    binary_from_index,
    catalog_label,
    check_label,
    classify_binary,
    classify_unary,
    cyclic_shift,
    distinctness_report,
    enumerate_binary,
    enumerate_unary,
    exponent_product,
    label_report,
    make_value,
    to_complex,
    unary_from_index,
)
from .radix import (
    RadixWord,
    exponent_identity_check,
    format_word,
    parse_word,
    rebase,
    rebased_length,
    symbol_shift,
    word_value,
)
from .turing import (
    InstantaneousDescription,
    NotDeterministic,
    RunOutcome,
    TimeBoundReport,
    TimeBoundRow,
    Transition,
    TuringMachine,
    Violation,
    accepts_within,
    accepts_within_space,
    check_time_bound,
    initial_id,
    is_deterministic,
    make_machine,
    run_deterministic,
    scanned_symbols,
    successors,
    validate,
)
from .machinefile import MachineFileError, format_machine, parse_machine, parse_machine_file
from .harness import (
    BOUND_NOTE,
    ExperimentSpec,
    StepReport,
    StepRow,
    StepSummary,
    build_machine_pair,
    emit_report,
    load_spec,
    report_from_obj,
    report_to_obj,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryIndex", "BinaryTable", "EnumerationTooLarge", "LabelCheck",
    "LogicValue", "TruthConvention", "UnaryIndex", "UnaryTable",
    "apply_binary", "apply_unary", "binary_from_index", "catalog_label",
    "check_label", "classify_binary", "classify_unary", "cyclic_shift",
    "distinctness_report", "enumerate_binary", "enumerate_unary",
    "exponent_product", "label_report", "make_value", "to_complex",
    "unary_from_index",
    "RadixWord", "exponent_identity_check", "format_word", "parse_word",
    "rebase", "rebased_length", "symbol_shift", "word_value",
    "InstantaneousDescription", "NotDeterministic", "RunOutcome",
    "TimeBoundReport", "TimeBoundRow", "Transition", "TuringMachine",
    "Violation", "accepts_within", "accepts_within_space",
    "check_time_bound", "initial_id", "is_deterministic", "make_machine",
    "run_deterministic", "scanned_symbols", "successors", "validate",
    "MachineFileError", "format_machine", "parse_machine", "parse_machine_file",
    "BOUND_NOTE", "ExperimentSpec", "StepReport", "StepRow", "StepSummary",
    "build_machine_pair", "emit_report", "load_spec", "report_from_obj",
    "report_to_obj", "run_experiment",
    "__version__",
]
