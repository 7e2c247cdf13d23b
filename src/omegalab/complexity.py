"""Upper-bound estimators for program-size information measures.

True program-size complexity is uncomputable, so everything here is an
explicit upper bound carried by a witness program: the smallest program
found (in the searched range) that halts validly with the requested value.
A literal quoting witness always exists, so every query returns a bound.
Searches reuse the dovetailer's census, which already maps enumerated
programs to their halting values.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import sexpr
# parseable_texts_upto is unused here; the benchmark tracer patches it by name.
from .dovetail import Census, STATUS_HALTED_VALID, parseable_texts_upto
from .evaluator import program_head
from .machine import BinaryProgram, encode_program, run_program
from .sexpr import QUOTE_ATOM, SExpr

# Wrapper whose two nested runs consume two self-delimiting programs laid
# end to end in the data and join their values into a pair.
PAIR_WRAPPER_TEXT = "(join (run-remaining) (join (run-remaining) ()))"
# Wrapper that pairs one embedded program's value with itself.
DUP_WRAPPER_TEXT = "((lambda (v) (join v (join v ()))) (run-remaining))"
# Both texts are canonical, so their heads are the encoded wrappers.
_PAIR_HEAD = program_head(PAIR_WRAPPER_TEXT)
_DUP_HEAD = program_head(DUP_WRAPPER_TEXT)

DEFAULT_SEARCH_BUDGET = 1 << 16


class NotABitString(ValueError):
    """randomness_report subject was not a list of 0/1 atoms."""


class InvalidWitness(ValueError):
    """A supplied witness program did not halt validly under the budget."""


@dataclass(frozen=True, slots=True)
class ComplexityEstimate:
    """An upper bound together with the program that realizes it."""

    subject: SExpr
    bound_bits: int
    witness: BinaryProgram
    search_exhausted_to: int
    budget_used: int


def literal_witness(x: SExpr) -> BinaryProgram:
    """The always-available bound: quote the value, no data bits."""
    return encode_program(((QUOTE_ATOM, x),))


def _census_winner(census: Census | None, value_text: str) -> str | None:
    """Smallest enumerated program recorded as halting validly with the
    value; census insertion order is enumeration order, so the first hit
    wins ties."""
    if census is None:
        return None
    best = None
    for record in census.records.values():
        if record.status == STATUS_HALTED_VALID and record.value_text == value_text:
            if best is None or len(record.bits) < len(best):
                best = record.bits
    return best


def _value_text(program: BinaryProgram, budget: int) -> str | None:
    """Canonical text of the program's value if it halts validly, else None."""
    result = run_program(program, budget)
    return sexpr.print_canonical(result.outcome.value) if result.valid_halt else None


def _estimate(
    subject: SExpr,
    census: Census | None,
    budget: int,
    constructed: tuple[BinaryProgram, ...] = (),
) -> ComplexityEstimate:
    """Smallest known witness: the census search, the always-available
    literal, and any explicitly constructed candidates (which are only
    admitted after a verifying run)."""
    value_text = sexpr.print_canonical(subject)
    witness = literal_witness(subject)
    found = _census_winner(census, value_text)
    if found is not None and len(found) < len(witness.bits):
        witness = BinaryProgram(found)
    for candidate in constructed:
        if (
            len(candidate.bits) < len(witness.bits)
            and _value_text(candidate, budget) == value_text
        ):
            witness = candidate
    witness_text = _value_text(witness, budget)
    if witness_text is None:
        raise InvalidWitness(f"witness does not halt validly: {witness.hex}")
    if witness_text != value_text:
        raise InvalidWitness("witness value does not match the subject")
    searched = census.enrolled_bits if census is not None else 0
    return ComplexityEstimate(subject, len(witness.bits), witness, searched, budget)


def h_upper(
    x: SExpr,
    census: Census | None = None,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> ComplexityEstimate:
    """Upper bound on the information content of x."""
    return _estimate(x, census, budget)


def _joint(
    x: SExpr, y: SExpr, census: Census | None, budget: int
) -> tuple[ComplexityEstimate, ComplexityEstimate, ComplexityEstimate]:
    """The plain bounds of x and y, then the bound of the pair (x y)."""
    ex = h_upper(x, census, budget)
    ey = h_upper(y, census, budget)
    constructed = [BinaryProgram(_PAIR_HEAD + ex.witness.bits + ey.witness.bits)]
    if x == y:
        constructed.append(BinaryProgram(_DUP_HEAD + ex.witness.bits))
    return ex, ey, _estimate((x, y), census, budget, tuple(constructed))


def h_joint_upper(
    x: SExpr,
    y: SExpr,
    census: Census | None = None,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> ComplexityEstimate:
    """Upper bound on computing the pair (x y) in one program.

    Besides the census search and the literal, the pairing of the two
    plain witnesses is always a candidate (computing the objects together
    is never forced to cost more than a constant over computing them
    separately), and for x == y so is the duplicating wrapper.
    """
    return _joint(x, y, census, budget)[2]


def mutual_info_estimate(
    x: SExpr,
    y: SExpr,
    census: Census | None = None,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> int:
    """Signed bit count: bound(x) + bound(y) - bound(x, y).

    This identity over the three reported bounds holds by construction; it
    says how much the search gained by computing the objects together.
    The plain bounds are the ones the joint query computed.
    """
    ex, ey, exy = _joint(x, y, census, budget)
    return ex.bound_bits + ey.bound_bits - exy.bound_bits


def pair_overhead_bits() -> int:
    """Exact encoded size of the pairing wrapper, a constant of this
    machine's encoding."""
    return len(_PAIR_HEAD)


def pair_programs(
    p: BinaryProgram,
    q: BinaryProgram,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> BinaryProgram:
    """One program that halts validly with the pair of p's and q's values.

    The result is the pairing wrapper over the concatenated bits, so its
    size is always pair_overhead_bits() + |p| + |q|.
    """
    for witness in (p, q):
        if not run_program(witness, budget).valid_halt:
            raise InvalidWitness(f"not a validly halting program: {witness.hex}")
    return BinaryProgram(_PAIR_HEAD + p.bits + q.bits)


def h_relative_upper(
    x: SExpr,
    wy: BinaryProgram,
    census: Census | None = None,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> ComplexityEstimate:
    """Upper bound on computing x given a witness program wy for y.

    The bound comes from two candidates: wy itself, when its value already
    is x (ties go to wy), and the plain bound h_upper(x).  Programs that run
    a prefix over wy's bits are not searched.  Only the literal forms
    (read-bit) and (run-remaining) read the tape, so a prefix reads none of
    wy before it spends the 10 characters of (read-bit), and the relay
    (run-remaining) only reproduces wy's value at 128 bits more than wy.
    """
    given = _value_text(wy, budget)
    if given is None:
        raise InvalidWitness(f"not a validly halting program: {wy.hex}")
    plain = _estimate(x, census, budget)
    if given == sexpr.print_canonical(x) and len(wy.bits) <= plain.bound_bits:
        return ComplexityEstimate(
            x, len(wy.bits), wy, plain.search_exhausted_to, budget
        )
    return plain


@dataclass(frozen=True, slots=True)
class RandomnessReport:
    """Compressibility of an n-bit string at the exhausted search range."""

    length: int
    bound_bits: int
    literal_bits: int
    overhead_bits: int
    deficiency_bits: int
    compressible: bool
    witness: BinaryProgram
    search_exhausted_to: int
    note: str


COMPRESSIBLE_NOTE = "compressible at this search scale"
INCOMPRESSIBLE_NOTE = "incompressible at exhausted search range"


def randomness_report(
    x: SExpr,
    census: Census | None = None,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> RandomnessReport:
    """Report how far search compressed a list of 0/1 atoms.

    overhead is the literal witness's size beyond the string length n, so
    the deficiency n - (bound - overhead) is exactly the number of bits the
    best found witness saves over quoting the string.  Nothing here claims
    true randomness; an unbeaten literal only means incompressible at the
    exhausted range.
    """
    if type(x) is not tuple or any(a not in ("0", "1") for a in x):
        raise NotABitString(f"not a list of 0/1 atoms: {x!r}")
    n = len(x)
    estimate = _estimate(x, census, budget)
    literal_bits = len(literal_witness(x).bits)
    overhead = literal_bits - n
    deficiency = n - (estimate.bound_bits - overhead)
    compressible = estimate.bound_bits < literal_bits
    return RandomnessReport(
        n,
        estimate.bound_bits,
        literal_bits,
        overhead,
        deficiency,
        compressible,
        estimate.witness,
        estimate.search_exhausted_to,
        COMPRESSIBLE_NOTE if compressible else INCOMPRESSIBLE_NOTE,
    )
