"""omegalab: a desk-scale laboratory for halting probabilities and
program-size complexity on a self-delimiting binary machine."""

from .sexpr import (
    DanglingQuote,
    IllegalCharacter,
    SExpr,
    SExprError,
    UnbalancedParens,
    parse,
    parse_one,
    print_canonical,
    print_program,
)
from .evaluator import (
    AbortOverrun,
    Halted,
    MalformedProgram,
    Outcome,
    OutOfTime,
    evaluate,
)
from .machine import (
    BinaryProgram,
    DEFAULT_BUDGET,
    MACHINE_VERSION,
    RunResult,
    config_hash,
    decode_program,
    encode_program,
    encode_text,
    load_program,
    prefix_free_violation,
    run_program,
    save_program,
)
from .dyadic import DyadicRational
from .dovetail import (
    Census,
    CorruptFile,
    HaltingDecision,
    Record,
    StageCapExceeded,
    VersionMismatch,
    advance,
    decide_halting_via_omega,
    enumerate_programs,
    load_census,
    new_census,
    omega_lower_bound,
    save_census,
)
from .complexity import (
    ComplexityEstimate,
    InvalidWitness,
    NotABitString,
    RandomnessReport,
    h_joint_upper,
    h_relative_upper,
    h_upper,
    literal_witness,
    mutual_info_estimate,
    pair_overhead_bits,
    pair_programs,
    randomness_report,
)
from .incompleteness import (
    DiagonalTable,
    OmegaBitClaims,
    TheoryRun,
    diagonal_table,
    digit_program_output,
    omega_bit_claims,
    run_theory,
)

__version__ = "0.1.0"
