"""The top-level export list, and the reference allocator's independence."""

import ast
from pathlib import Path

import omegalib

EXPORTS = [
    "AllocatorState", "Dyadic", "DominationWitness", "DyadicDecomposition",
    "InsufficientMass", "Interval", "InvalidSequence", "InvariantReport",
    "LengthMismatch", "MachineTable", "MeasureViolation", "NonPositiveInput",
    "OmegalibError", "PrefixSetStage", "RationalSeq", "SequenceExhausted",
    "StageOutOfRange", "TargetTooShort", "TestStage", "UnderlongString",
    "allocate", "allocate_all", "antichain_measure", "as_fraction",
    "build_test", "ceil_neg_log2", "chaitin_transform",
    "chaitin_transform_table", "check_domination", "check_invariants",
    "combine_universal", "complexity", "complexity_test_stage", "compose",
    "compression_requests", "dyadic_decompose", "extend_prefix",
    "extract_witness", "interleave_requests",
    "measure_of_lengths", "new_allocator", "omega_approx",
    "omega_rep_compose", "pow2_neg",
    "stage_membership", "to_machine",
]


def test_all_is_pinned():
    assert omegalib.__all__ == EXPORTS


def test_every_exported_name_resolves():
    missing = [name for name in omegalib.__all__ if not hasattr(omegalib, name)]
    assert missing == []


def test_oracle_imports_nothing_from_omegalib():
    source = Path(omegalib.__file__).with_name("kc_oracle.py").read_text()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, ast.unparse(node)
            assert not (node.module or "").startswith("omegalib"), ast.unparse(node)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                assert not alias.name.startswith("omegalib"), ast.unparse(node)
