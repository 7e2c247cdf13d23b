"""A deliberately naive reference evaluator: the oracle for ``evaluate``.

It follows the semantics table of the spec (``PAPER.md``) form by form,
with host recursion, dict environments and no attention to speed.
Closures are plain objects compared by identity, and every value is
rendered to a closure-free expression before each ``=``, each ``display``
and at the end, so closures compare and print as their
``(lambda (params) body)`` source.  Every entry into a subexpression costs
one step.  Host recursion limits it to shallow programs and small inputs.
"""

from omegalab.evaluator import (
    EMPTY_PROGRAM,
    NON_DEFINE_FORM,
    AbortOverrun,
    Halted,
    MalformedProgram,
    OutOfTime,
)
from omegalab.sexpr import TEXT_CHARS, SExprError, parse


class _OutOfTime(Exception):
    pass


class _Overrun(Exception):
    pass


class RefClosure:
    def __init__(self, params, body, env):
        self.params = params
        self.body = body
        self.env = env


def render(value):
    if isinstance(value, RefClosure):
        return ("lambda", value.params, value.body)
    if isinstance(value, tuple):
        return tuple(render(v) for v in value)
    return value


def _is_define(form):
    return isinstance(form, tuple) and len(form) > 0 and form[0] == "define"


def _root(env):
    while env[1] is not None:
        env = env[1]
    return env


class _Run:
    def __init__(self, bits, budget):
        self.bits = bits
        self.cursor = 0
        self.budget = budget
        self.steps = 0
        self.emitted = []

    def sequence(self, forms, env):
        value = ()
        for form in forms:
            value = self.eval(form, env)
        return value

    def eval(self, expr, env):
        self.steps += 1
        if self.steps > self.budget:
            raise _OutOfTime
        if isinstance(expr, str):
            e = env
            while e is not None:
                if expr in e[0]:
                    return e[0][expr]
                e = e[1]
            return expr  # unbound atoms evaluate to themselves
        if expr == ():
            return ()

        def arg(i):  # missing operands read as ()
            return expr[i] if len(expr) > i else ()

        op = expr[0]
        if op in ("'", "quote"):
            return arg(1)
        if op == "if":
            cond = self.eval(arg(1), env)
            return self.eval(arg(3) if cond == "false" else arg(2), env)
        if op == "=":
            a = render(self.eval(arg(1), env))
            b = render(self.eval(arg(2), env))
            return "true" if a == b else "false"
        if op in ("head", "car"):
            v = self.eval(arg(1), env)
            if isinstance(v, tuple):
                return v[0] if v else ()
            return v
        if op in ("tail", "cdr"):
            v = self.eval(arg(1), env)
            return v[1:] if isinstance(v, tuple) else ()
        if op == "join":
            x = self.eval(arg(1), env)
            y = self.eval(arg(2), env)
            return (x,) + y if isinstance(y, tuple) else (x,)
        if op == "atom?":
            return "true" if isinstance(self.eval(arg(1), env), str) else "false"
        if op == "display":
            v = self.eval(arg(1), env)
            self.emitted.append(render(v))
            return v
        if op == "read-bit":
            if self.cursor >= len(self.bits):
                raise _Overrun
            self.cursor += 1
            return self.bits[self.cursor - 1]
        if op == "run-remaining":
            return self.sequence(self.embedded_program(), ({}, None))
        if op == "lambda":
            spec = arg(1)
            params = (
                tuple(p for p in spec if isinstance(p, str))
                if isinstance(spec, tuple)
                else ()
            )
            return RefClosure(params, arg(2), env)
        if op == "define":
            root = _root(env)
            if len(expr) > 1 and isinstance(expr[1], tuple) and expr[1] and isinstance(expr[1][0], str):
                name = expr[1][0]
                params = tuple(p for p in expr[1][1:] if isinstance(p, str))
                root[0][name] = RefClosure(params, arg(2), root)
                return name
            if len(expr) > 1 and isinstance(expr[1], str):
                root[0][expr[1]] = self.eval(expr[2], env) if len(expr) > 2 else ()
                return expr[1]
            return ()
        # Application: operator, then operands left to right.
        fn = self.eval(op, env)
        args = [self.eval(a, env) for a in expr[1:]]
        if not isinstance(fn, RefClosure):
            return fn  # applying a non-function yields it
        bindings = {p: args[i] if i < len(args) else () for i, p in enumerate(fn.params)}
        return self.eval(fn.body, (bindings, fn.env))

    def embedded_program(self):
        """Decode 8-bit characters up to the 0x00 byte; any failure aborts."""
        chars = []
        while True:
            byte = self.bits[self.cursor : self.cursor + 8]
            if len(byte) < 8:
                raise _Overrun
            self.cursor += 8
            if byte == "00000000":
                break
            chars.append(chr(int(byte, 2)))
        text = "".join(chars)
        if not set(text) <= TEXT_CHARS:
            raise _Overrun
        try:
            forms = parse(text)
        except SExprError:
            raise _Overrun from None
        if not forms or not all(_is_define(f) for f in forms[:-1]):
            raise _Overrun
        return forms


def reference_evaluate(program, tape, budget):
    """Same contract as ``omegalab.evaluator.evaluate``."""
    program = tuple(program)
    if not program:
        return MalformedProgram(EMPTY_PROGRAM)
    if not all(_is_define(f) for f in program[:-1]):
        return MalformedProgram(NON_DEFINE_FORM)
    run = _Run(tape, budget)
    try:
        value = run.sequence(program, ({}, None))
    except _OutOfTime:
        return OutOfTime(tuple(run.emitted))
    except _Overrun:
        return AbortOverrun(run.steps, tuple(run.emitted))
    return Halted(render(value), run.cursor, run.steps, tuple(run.emitted))
