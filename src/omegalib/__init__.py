"""Exact-arithmetic toolkit for prefix-free codes, halting-probability
approximants, computably enumerable reals, domination tests and levelled
null covers.  Everything computes with exact dyadic and rational numbers;
no floating point is involved anywhere in the library proper."""

from .errors import (InsufficientMass, InvalidSequence, LengthMismatch,
                     MeasureViolation, NonPositiveInput, OmegalibError,
                     SequenceExhausted, StageOutOfRange, TargetTooShort,
                     UnderlongString)
from .exact import (Dyadic, Interval, as_fraction, ceil_neg_log2,
                    measure_of_lengths, pow2_neg)
from .codespace import (AllocatorState, InvariantReport, allocate,
                        allocate_all, check_invariants, extend_prefix,
                        new_allocator)
from .ce_real import (DyadicDecomposition, RationalSeq, dyadic_decompose,
                      to_machine)
from .machines import (MachineTable, chaitin_transform,
                       chaitin_transform_table, combine_universal, complexity,
                       compose, omega_approx)
from .solovay import (DominationWitness, TestStage, build_test,
                      check_domination, extract_witness, interleave_requests,
                      omega_rep_compose)
from .mltest import (PrefixSetStage, antichain_measure, complexity_test_stage,
                     compression_requests, stage_membership)

__version__ = "0.1.0"

__all__ = [
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
    "extract_witness", "interleave_requests", "measure_of_lengths",
    "new_allocator", "omega_approx", "omega_rep_compose", "pow2_neg",
    "stage_membership", "to_machine",
]
