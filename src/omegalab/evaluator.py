"""Budgeted, total-semantics evaluator with a bit-tape input channel.

A program is a sequence of top-level expressions, every one but the last a
``define`` form.  Evaluation is metered: each evaluator entry for any
subexpression costs exactly one step, and exhausting the step budget is an
ordinary outcome, not an error.  All anomalies are outcome values; no
program text that parses can raise.  The tape is a plain string over 0/1,
read from its first bit; ``evaluate`` checks it on entry, as it checks the
budget, so ``(run-remaining)`` only ever scans 0/1 bits.

Total semantics, chosen for a two-valued halting census:
  * unbound atoms evaluate to themselves,
  * ``head``/``tail`` of an atom yield the atom / the empty list,
  * missing operands read as ``()``, extra operands are ignored,
  * applying a non-function value yields that value.

Form names (``define if = ' quote head car tail cdr join atom? lambda
read-bit display run-remaining``) are reserved: dispatch happens before
lookup, so bindings never shadow them.

The machine is an explicit-control evaluator (Abelson and Sussman, SICP
section 5.4): a register holds the expression to evaluate next, and a work
stack holds only what is needed later, the later operands of a form and
the tasks that take the operands' values off a value stack.  The first
subexpression of a form is evaluated in place from the register, with no
task pushed for it: an application's operator, the first operand of an
operand form, an ``if`` condition and the branch it chose, a value
``define``'s expression, a program's first form and a called closure's
body.  Forms are dispatched by one lookup from the head atom to the form
kind.  Nothing recurses on the host stack, so deep recursion in evaluated
programs cannot overflow it; configured step caps are the only depth
limit.  ``=`` falls back to an iterative comparison for values nested
too deeply for Python's own.  An environment is a plain ``(bindings,
parent)`` pair, so a run or a closure call makes a dict and a tuple, not
an object.

``head``, ``tail`` and ``join`` take constant time, as car, cdr and cons do
in LISP.  Inside a run, a list built by ``join`` or ``tail`` is a view of a
shared store (see ``_materialise``); a quoted list stays a tuple until the
first ``tail`` or ``join`` on it copies it into a store once.  Views are
turned into tuples only for ``=``, ``display`` and the final value, so every
value that leaves ``evaluate`` is a plain expression of atoms and tuples.

This module also owns the fixed binary program format, because
``(run-remaining)`` reads embedded programs from the tape: 8 bits per
character of program text, the separator byte 0x00, then raw data bits.
``program_head`` writes the text part (``program_heads`` many at once,
``head_hex`` in hex) and ``scan_program`` reads it back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Optional, Union

from .sexpr import (
    QUOTE_ATOM,
    SExpr,
    TEXT_CHARS,
    parse_program_cached,
)


@dataclass(frozen=True, slots=True)
class Halted:
    value: SExpr
    bits_consumed: int
    steps: int
    emitted: tuple = ()


@dataclass(frozen=True, slots=True)
class AbortOverrun:
    """The program asked for a bit beyond the end of its tape."""

    steps: int
    emitted: tuple = ()


@dataclass(frozen=True, slots=True)
class OutOfTime:
    emitted: tuple = ()


@dataclass(frozen=True, slots=True)
class MalformedProgram:
    reason: str


Outcome = Union[Halted, AbortOverrun, OutOfTime, MalformedProgram]

# Every run ends in one of these; they are built through their slot
# setters, not the frozen constructor.
_new = object.__new__
_set_halted_value = Halted.value.__set__
_set_halted_bits = Halted.bits_consumed.__set__
_set_halted_steps = Halted.steps.__set__
_set_halted_emitted = Halted.emitted.__set__
_set_abort_steps = AbortOverrun.steps.__set__
_set_abort_emitted = AbortOverrun.emitted.__set__
_set_timeout_emitted = OutOfTime.emitted.__set__


def _halted(value: SExpr, bits_consumed: int, steps: int, emitted: tuple) -> Halted:
    outcome = _new(Halted)
    _set_halted_value(outcome, value)
    _set_halted_bits(outcome, bits_consumed)
    _set_halted_steps(outcome, steps)
    _set_halted_emitted(outcome, emitted)
    return outcome


def _aborted(steps: int, emitted: tuple) -> AbortOverrun:
    outcome = _new(AbortOverrun)
    _set_abort_steps(outcome, steps)
    _set_abort_emitted(outcome, emitted)
    return outcome


def _out_of_time(emitted: tuple) -> OutOfTime:
    outcome = _new(OutOfTime)
    _set_timeout_emitted(outcome, emitted)
    return outcome


# MalformedProgram reasons.
NO_SEPARATOR = "NoSeparator"
BAD_CHAR = "BadChar"
PARSE_FAIL = "ParseFail"
NON_DEFINE_FORM = "NonDefineForm"
EMPTY_PROGRAM = "EmptyProgram"

_MALFORMED_NO_SEPARATOR = MalformedProgram(NO_SEPARATOR)
_MALFORMED_BAD_CHAR = MalformedProgram(BAD_CHAR)
_MALFORMED_PARSE_FAIL = MalformedProgram(PARSE_FAIL)


def program_head(text: str) -> str:
    """The bits of a program text in the binary format: 8 bits per
    character, then the separator byte.

    A character wider than one byte raises UnicodeEncodeError, a
    ValueError.
    """
    # One integer conversion for the whole text.  The leading 0x01 byte
    # keeps the text's leading zero bits; its "0b1" is cut off.
    raw = b"\x01" + text.encode("latin-1") + b"\x00"
    return bin(int.from_bytes(raw, "big"))[3:]


def program_heads(texts: Collection[str]) -> list[str]:
    """``program_head`` of each text, cut from one conversion of them all:
    a text's head ends in the separator byte that joins it to the next."""
    bits = program_head("\x00".join(texts))
    # One pass: each slice starts where the last ended, and its stop moves
    # the end on by the head's 8 bits per character and separator byte.
    end = 0
    return [bits[end : (end := end + 8 * n + 8)] for n in map(len, texts)]


def head_hex(text: str) -> str:
    """``program_head(text)`` in hex: the text's bytes, then the separator
    byte, with no conversion to bits."""
    return text.encode("latin-1").hex() + "00"


def max_text_chars(n_bits: int) -> int:
    """Length of the longest program text whose head fits in n_bits."""
    return n_bits // 8 - 1


def head_bits(n_chars: int) -> int:
    """Length of the head of a program text of n_chars characters."""
    return 8 * n_chars + 8


def scan_program(
    bits: str, cursor: int
) -> Union[tuple[tuple[SExpr, ...], str, int], MalformedProgram]:
    """Read 8-bit characters from cursor up to the separator byte and parse
    them.

    Returns (expressions, text, cursor after the separator), or the
    MalformedProgram for the first failure in this order: no byte-aligned
    separator, a byte outside the text alphabet, a text that does not parse
    to at least one expression.
    """
    at = bits.find("00000000", cursor)
    while at >= 0 and (at - cursor) % 8:
        at = bits.find("00000000", at + 1)
    if at < 0:
        return _MALFORMED_NO_SEPARATOR
    n = (at - cursor) // 8
    text = int(bits[cursor:at] or "0", 2).to_bytes(n, "big").decode("latin-1")
    if not TEXT_CHARS.issuperset(text):
        return _MALFORMED_BAD_CHAR
    exprs = parse_program_cached(text)
    if exprs is None:
        return _MALFORMED_PARSE_FAIL
    return exprs, text, at + 8


# An environment is a (bindings, parent) pair, looked up innermost first;
# the global environment's parent is None.
Env = tuple[dict, Optional["Env"]]


class Closure:
    """A lambda value: its source parameters and body plus the defining
    environment, a ``(bindings, parent)`` pair.  A call binds the
    parameters in a new pair whose parent is that environment.

    A closure equals whatever equals its source ``("lambda", params,
    body)``: another closure with the same parameters and body, whatever
    its environment, or that plain expression.  A closure inside a list is
    rendered as that source when the list is turned into a tuple.
    """

    __slots__ = ("params", "body", "env")

    def __init__(self, params: tuple, body: SExpr, env: Env):
        self.params = params
        self.body = body
        self.env = env

    def __eq__(self, other) -> bool:
        if type(other) is Closure:
            return self.params == other.params and self.body == other.body
        return ("lambda", self.params, self.body) == other


# A run-time list built by join or tail: a view [store, n, deep, built].
# The store is a Python list holding the view's n items last-first, so the
# head is store[n - 1] and the tail is the same store with n - 1.  Views of
# one store share it: join appends to the store when the view is its tip
# (len(store) == n), shares when the next item already is the one joined,
# and copies the n items otherwise, so store[:n] never changes once a view
# has it.  deep is true when a view or closure may sit among the n items;
# built holds the view's tuple once one is made.  No other value is a
# Python list, and no view leaves ``evaluate``.
Value = Union[str, tuple, Closure, list]


def _defines_then_body(program: tuple) -> bool:
    """Whether every top-level form but the last is a define form."""
    return all(type(form) is tuple and form and form[0] == "define"
               for form in program[:-1])


def _plain(value: Value) -> SExpr:
    """A value as a plain expression: views become tuples and closures
    read back as their (lambda (params) body) source."""
    if type(value) is list:
        return _materialise(value)
    if type(value) is Closure:
        return ("lambda", value.params, value.body)
    return value


def _flat_items(store: list, n: int) -> tuple:
    # The view's items in list order, in one C-level copy.  A tip is
    # reversed in place and back, so no temporary list the size of the
    # value is made.
    if len(store) == n:
        store.reverse()
        items = tuple(store)
        store.reverse()
        return items
    return tuple(store[n - 1 :: -1])


def _materialise(view: list) -> tuple:
    """The tuple a view stands for, with nested views turned into tuples
    and closures rendered as their source.

    The walk is iterative, and each view keeps its tuple once built: a
    value shared along many paths, such as a list doubled n times, is
    walked once per node, not once per path.
    """
    if view[3] is not None:
        return view[3]
    if not view[2]:
        view[3] = _flat_items(view[0], view[1])
        return view[3]
    stack: list[list] = [[view, view[1], []]]
    while stack:
        frame = stack[-1]
        node, left, acc = frame
        if left:
            frame[1] = left - 1
            child = node[0][left - 1]
            if type(child) is list:
                if child[3] is not None:
                    acc.append(child[3])
                elif not child[2]:
                    child[3] = _flat_items(child[0], child[1])
                    acc.append(child[3])
                else:
                    stack.append([child, child[1], []])
            elif type(child) is Closure:
                acc.append(("lambda", child.params, child.body))
            else:
                acc.append(child)
        else:
            stack.pop()
            node[3] = tuple(acc)
            if stack:
                stack[-1][2].append(node[3])
    return view[3]


def _view_equal(a: Value, b: Value) -> bool:
    """``a = b`` where a or b is a view.  Lengths are compared first, and
    two views of one store with one length are the same list, so neither
    case builds a tuple."""
    if type(a) is Closure:
        a = ("lambda", a.params, a.body)
    if type(b) is Closure:
        b = ("lambda", b.params, b.body)
    if type(a) is str or type(b) is str:
        return False
    if (a[1] if type(a) is list else len(a)) != (b[1] if type(b) is list else len(b)):
        return False
    if type(a) is list and type(b) is list and a[0] is b[0]:
        return True
    return _equal(_plain(a), _plain(b))


def _equal(a: SExpr, b: SExpr) -> bool:
    """``a == b``, by ``_deep_equal`` for values too deep for that."""
    try:
        return a == b
    except RecursionError:
        return _deep_equal(a, b)


def _deep_equal(a: Value, b: Value) -> bool:
    """``a == b`` without host recursion, for values too deeply nested for
    tuple comparison; closures compare as their source."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if type(x) is Closure:
            x = ("lambda", x.params, x.body)
        if type(y) is Closure:
            y = ("lambda", y.params, y.body)
        if type(x) is tuple and type(y) is tuple:
            if len(x) != len(y):
                return False
            stack.extend(zip(x, y))
        elif x != y:
            return False
    return True


# Work-stack opcodes.  A task is a tuple whose first item is its opcode:
# _EV evaluates a later operand; the others take their operands' values
# from the value stack.
_EV = 0
_CALL = 1
_BRANCH = 2
_EQ = 3
_JOIN = 4
_HEAD = 5
_TAIL = 6
_ATOMQ = 7
_DISPLAY = 8
_DROP = 9
_BIND = 10

# Form kinds that are no opcode.
_QUOTE = 11
_IF = 12
_READ_BIT = 13
_RUN_REMAINING = 14
_LAMBDA = 15
_DEFINE = 16

# Form name -> form kind: the one lookup that dispatches a form.  A form
# of kind up to _DISPLAY evaluates its operands left to right, then runs
# its kind as an opcode on their values: two operands up to _JOIN, one
# after.
_FORMS = {
    "=": _EQ,
    "join": _JOIN,
    "head": _HEAD,
    "car": _HEAD,
    "tail": _TAIL,
    "cdr": _TAIL,
    "atom?": _ATOMQ,
    "display": _DISPLAY,
    QUOTE_ATOM: _QUOTE,
    "quote": _QUOTE,
    "if": _IF,
    "read-bit": _READ_BIT,
    "run-remaining": _RUN_REMAINING,
    "lambda": _LAMBDA,
    "define": _DEFINE,
}

# Tasks built once: each operand form's opcode task.
_OPCODE_TASKS = tuple((op,) for op in range(_DISPLAY + 1))
_DROP_TASK = (_DROP,)

_MISS = object()


def _push_sequence(work: list, exprs: tuple, env: Env) -> SExpr:
    """Push the tasks that evaluate exprs[1:] in order in env, dropping the
    value of every form but the last, and return exprs[0], which the caller
    evaluates in place."""
    for i in range(len(exprs) - 1, 0, -1):
        work.append((_EV, exprs[i], env))
        work.append(_DROP_TASK)
    return exprs[0]


def _global_env(env: Env) -> Env:
    while env[1] is not None:
        env = env[1]
    return env


def evaluate(program: tuple[SExpr, ...], tape: str, budget: int) -> Outcome:
    """Run a program against a tape under a step budget.

    The tape is a string over 0/1, read from its first bit; any other
    character raises ValueError on entry, as a budget below 1 does.
    Deterministic in (program, tape, budget).  The result is one of the four
    outcome values; see the module docstring for the semantics.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if tape.strip("01"):
        raise ValueError("tape bits must be a string over 0/1")
    if not program:
        return MalformedProgram(EMPTY_PROGRAM)
    if len(program) > 1 and not _defines_then_body(program):
        return MalformedProgram(NON_DEFINE_FORM)

    cursor = 0
    nbits = len(tape)
    steps = 0
    emitted: list = []
    vals: list = []
    work: list = []
    # The register: the expression to evaluate next, in env.
    env = ({}, None)
    # A one-form program skips the _push_sequence call: a one-step run
    # costs about 12% less (1,070 against 1,200 ns for (' x), Python 3.11
    # on a 2-core x86-64 host).
    expr = _push_sequence(work, program, env) if len(program) > 1 else program[0]

    while True:
        # Evaluate the register's expression; every entry costs one step.
        steps += 1
        if steps > budget:
            return _out_of_time(tuple(emitted))
        if type(expr) is str:
            e = env
            while e is not None:
                v = e[0].get(expr, _MISS)
                if v is not _MISS:
                    vals.append(v)
                    break
                e = e[1]
            else:
                vals.append(expr)
        elif not expr:
            vals.append(())
        else:
            head = expr[0]
            kind = _FORMS.get(head) if type(head) is str else None
            if kind is None:
                # Application: the operator in place, then the operands
                # left to right.
                argc = len(expr) - 1
                work.append((_CALL, argc))
                for i in range(argc, 0, -1):
                    work.append((_EV, expr[i], env))
                expr = head
                continue
            if kind <= _DISPLAY:
                work.append(_OPCODE_TASKS[kind])
                if kind <= _JOIN:
                    work.append((_EV, expr[2] if len(expr) > 2 else (), env))
                expr = expr[1] if len(expr) > 1 else ()
                continue
            if kind == _IF:
                if len(expr) < 4:
                    expr = (*expr, (), (), ())
                work.append((_BRANCH, expr[2], expr[3], env))
                expr = expr[1]
                continue
            if kind == _QUOTE:
                vals.append(expr[1] if len(expr) > 1 else ())
            elif kind == _READ_BIT:
                if cursor >= nbits:
                    return _aborted(steps, tuple(emitted))
                vals.append(tape[cursor])
                cursor += 1
            elif kind == _RUN_REMAINING:
                scanned = scan_program(tape, cursor)
                if type(scanned) is MalformedProgram:
                    return _aborted(steps, tuple(emitted))
                inner, _, cursor = scanned
                if not _defines_then_body(inner):
                    return _aborted(steps, tuple(emitted))
                env = ({}, None)
                expr = _push_sequence(work, inner, env)
                continue
            elif kind == _LAMBDA:
                spec = expr[1] if len(expr) > 1 else ()
                params = (
                    tuple(p for p in spec if type(p) is str)
                    if type(spec) is tuple
                    else ()
                )
                vals.append(Closure(params, expr[2] if len(expr) > 2 else (), env))
            else:  # _DEFINE
                root = _global_env(env)
                if (
                    len(expr) > 1
                    and type(expr[1]) is tuple
                    and expr[1]
                    and type(expr[1][0]) is str
                ):
                    name = expr[1][0]
                    params = tuple(p for p in expr[1][1:] if type(p) is str)
                    root[0][name] = Closure(
                        params, expr[2] if len(expr) > 2 else (), root
                    )
                    vals.append(name)
                elif len(expr) > 2 and type(expr[1]) is str:
                    work.append((_BIND, expr[1], root))
                    expr = expr[2]
                    continue
                elif len(expr) == 2 and type(expr[1]) is str:
                    root[0][expr[1]] = ()
                    vals.append(expr[1])
                else:
                    vals.append(())

        # A value is on the value stack: run tasks until one names the
        # next expression to evaluate.
        while work:
            task = work.pop()
            op = task[0]
            if op == _EV:
                expr = task[1]
                env = task[2]
                break
            if op == _CALL:
                argc = task[1]
                if argc:
                    args = vals[-argc:]
                    del vals[-argc:]
                else:
                    args = []
                fn = vals.pop()
                if type(fn) is Closure:
                    params = fn.params
                    if len(args) < len(params):
                        args += [()] * (len(params) - len(args))
                    expr = fn.body
                    env = (dict(zip(params, args)), fn.env)
                    break
                vals.append(fn)
            elif op == _BRANCH:
                expr = task[1] if vals.pop() != "false" else task[2]
                env = task[3]
                break
            elif op == _EQ:
                b = vals.pop()
                a = vals[-1]
                if type(a) is list or type(b) is list:
                    same = _view_equal(a, b)
                else:
                    # Inline, not _equal: a call per = is measurable here.
                    try:
                        same = a == b
                    except RecursionError:
                        same = _deep_equal(a, b)
                vals[-1] = "true" if same else "false"
            elif op == _JOIN:
                y = vals.pop()
                x = vals[-1]
                deep = type(x) is list or type(x) is Closure
                if type(y) is list:
                    store = y[0]
                    n = y[1]
                    if len(store) == n:
                        store.append(x)
                    elif store[n] is not x:
                        store = store[:n]
                        store.append(x)
                    vals[-1] = [store, n + 1, deep or y[2], None]
                elif type(y) is tuple and y:
                    store = list(y)
                    store.reverse()
                    store.append(x)
                    vals[-1] = [store, len(store), deep, None]
                else:
                    vals[-1] = [[x], 1, deep, None]
            elif op == _HEAD:
                v = vals[-1]
                if type(v) is list:
                    vals[-1] = v[0][v[1] - 1]
                elif type(v) is tuple:
                    vals[-1] = v[0] if v else ()
            elif op == _TAIL:
                v = vals[-1]
                if type(v) is list:
                    n = v[1] - 1
                    vals[-1] = [v[0], n, v[2], None] if n else ()
                elif type(v) is tuple and len(v) > 1:
                    store = list(v)
                    store.reverse()
                    vals[-1] = [store, len(v) - 1, False, None]
                else:
                    vals[-1] = ()
            elif op == _ATOMQ:
                vals[-1] = "true" if type(vals[-1]) is str else "false"
            elif op == _DISPLAY:
                emitted.append(_plain(vals[-1]))
            elif op == _DROP:
                vals.pop()
            else:  # _BIND
                task[2][0][task[1]] = vals[-1]
                vals[-1] = task[1]
        else:
            return _halted(_plain(vals.pop()), cursor, steps, tuple(emitted))
