"""Cross-check ``evaluate`` against the naive reference evaluator.

Both must agree on the outcome type and on value, ``bits_consumed``,
``steps`` and ``emitted``, for fuzzed programs, closure-heavy fuzzed
programs and the benchmark's list shapes at small sizes.
"""

import random

import pytest

from conftest import ATOM_POOL, IN_SET_TEXT, random_expr, random_sexpr, random_tape
from omegalab.evaluator import evaluate
from omegalab.machine import encode_text
from omegalab.sexpr import parse
from reference_evaluator import reference_evaluate

BUDGETS = (1, 7, 40, 300, 4096)


def plain(value):
    """Whether every node of value is an atom or a tuple, walked without
    host recursion."""
    stack = [value]
    while stack:
        node = stack.pop()
        if type(node) is tuple:
            stack.extend(node)
        elif type(node) is not str:
            return False
    return True


def assert_agree(program, tape, budget):
    got = evaluate(program, tape, budget)
    want = reference_evaluate(program, tape, budget)
    # A Closure equals its source, so a result that leaked one would still
    # compare equal; neither it nor a run-time list view may leave a run.
    assert plain(getattr(got, "value", ())), program
    assert plain(getattr(got, "emitted", ())), program
    assert got == want, (program, tape, budget)


def random_closure_expr(rng, depth):
    """Expressions that make closures values: bare lambdas, lambdas joined
    into lists, compared with each other and with quoted lambda source,
    displayed, taken apart and applied."""
    params = ("p", "q")

    def sub():
        return random_closure_expr(rng, depth - 1)

    def lam(body):
        return ("lambda", (rng.choice(params),), body)

    if depth == 0:
        return rng.choice([
            lam(rng.choice(params + ("x",))),
            ("'", ("lambda", ("p",), "p")),
            ("'", random_sexpr(rng, 1)),
            rng.choice(ATOM_POOL + list(params)),
            ("read-bit",),
        ])
    roll = rng.randrange(11)
    if roll == 0:
        return lam(sub())
    if roll == 1:
        return ("join", lam(sub()), sub())
    if roll == 2:
        return ("join", sub(), sub())
    if roll == 3:
        return ("=", sub(), sub())
    if roll == 4:
        return ("display", sub())
    if roll == 5:
        return (rng.choice(["head", "tail"]), sub())
    if roll == 6:
        return (lam(sub()), sub())
    if roll == 7:
        return (("head", sub()), sub())
    if roll == 8:
        return ("if", sub(), sub(), sub())
    if roll == 9:
        return ("atom?", sub())
    return random_expr(rng, depth - 1)


@pytest.mark.parametrize("depth", [3, 4, 5])
def test_agrees_on_fuzzed_programs(depth):
    rng = random.Random(100 + depth)
    for _ in range(1500):
        assert_agree((random_expr(rng, depth),), random_tape(rng), rng.choice(BUDGETS))


@pytest.mark.parametrize("depth", [2, 3, 4, 5])
def test_agrees_on_fuzzed_closure_programs(depth):
    rng = random.Random(200 + depth)
    for _ in range(1500):
        program = (random_closure_expr(rng, depth),)
        if rng.random() < 0.3:
            program = (("define", ("f", "p"), random_closure_expr(rng, depth - 1)),
                       ("f", random_closure_expr(rng, depth - 1)))
        assert_agree(program, random_tape(rng), rng.choice(BUDGETS))


REVERSE = "(define (rev l a) (if (= l ()) a (rev (tail l) (join (head l) a)))) (rev (' {items}) ())"
MAP = (
    "(define (map f l) (if (= l ()) () (join (f (head l)) (map f (tail l)))))"
    " (define (compose f g) (lambda (x) (f (g x))))"
    " (map (compose (lambda (x) (join x ())) (lambda (y) (join y (' (z))))) (' {items}))"
)
# map over a list of closures, then apply each and compare with lambda source
CLOSURE_LIST = (
    "(define (map f l) (if (= l ()) () (join (f (head l)) (map f (tail l)))))"
    " (define (k v) (lambda (u) v))"
    " (define fs (display (map k (' {items}))))"
    " (join (= fs (map k (' {items}))) (map (lambda (g) (g 0)) fs))"
)
IN_SET = IN_SET_TEXT + "(in-set? (' {member}) (' {items}))"
# Lists that share storage inside the evaluator: l, m and k are views of
# one store, m and k joined onto l in turn, so l is no longer its tip.
SHARED = (
    "(define l (join (' a) (' {items})))"
    " (define m (join (' b) l))"
    " (define k (join (' c) m))"
    " (define (pair x y) (join x (join y ())))"
)
SHARED_LISTS = [
    # two different heads joined onto one list
    SHARED + "(pair (join (' x) (tail l)) (join (' y) (tail l)))",
    # a join onto an older view after its store has grown, and one that
    # repeats the head already stored next
    SHARED + "(join (join (' d) l) (pair k (join (' b) l)))",
    # = between views of one store at different and at equal lengths
    SHARED + "(join (= m l) (join (= (tail m) l) (pair (= (tail k) m) (= k l))))",
    SHARED + "(pair (= (join (' b) l) m) (= (join (' d) l) m))",
    # views nested inside a displayed list, next to a closure
    SHARED + "(tail (display (join l (pair (tail k) (join (lambda (q) q) l)))))",
    SHARED + "(display (pair (display (pair l l)) (head (display (pair m (tail m))))))",
]


@pytest.mark.parametrize("n", [0, 1, 2, 5, 13, 40])
def test_agrees_on_list_shapes(n):
    rng = random.Random(n)
    items = "(" + " ".join(rng.choice("abcxyz") for _ in range(n)) + ")"
    texts = [
        REVERSE.format(items=items),
        MAP.format(items=items),
        CLOSURE_LIST.format(items=items),
        IN_SET.format(member="absent", items=items),
        IN_SET.format(member="c", items=items),
        *(text.format(items=items) for text in SHARED_LISTS),
    ]
    for text in texts:
        program = parse(text)
        for budget in (10**6, 12 * n + 9):
            assert_agree(program, "", budget)


def test_agrees_on_run_remaining():
    inner = encode_text("(join (read-bit) (lambda (q) q))").bits
    for tape in ("", inner, inner + "1", inner[:-3], "0" * 8 + inner, "1" * 16 + "00000000"):
        for text in ("(run-remaining)", "(display (join (run-remaining) (read-bit)))"):
            for budget in (1, 3, 4096):
                assert_agree(parse(text), tape, budget)


def assert_agree_at_every_budget(program, tape):
    """Agreement at every budget from 1 to one past the steps a run takes,
    or up to 300 for a run that takes more, so that each step in turn is
    the one that runs out of time."""
    full = reference_evaluate(program, tape, 300)
    steps = getattr(full, "steps", 299)
    for budget in range(1, steps + 2):
        assert_agree(program, tape, budget)


# Forms whose first subexpression is evaluated in place, with missing and
# extra operands, the car/cdr/quote aliases, and applications of closures
# with 0 and with 8 or more operands and of values that are no closure.
EDGE_PROGRAMS = [
    "(car (quote (a b)))",
    "(cdr (quote (a b c)))",
    "(join (car a) (join (cdr a) (join (car) (cdr))))",
    "(join (quote) (join (quote a b) ()))",
    "(if c)",
    "(if)",
    "(if false)",
    "(if (' false) a)",
    "(if c a b extra)",
    "(join)",
    "(join a)",
    "(join a b c)",
    "(join (=) (join (= a) (= a a b)))",
    "(join (head) (join (tail) (join (atom?) (display))))",
    "(join (head (' (a b)) c) (atom? a b))",
    "(display (' (x y)) (' z))",
    "((lambda () (' zero)))",
    "((lambda))",
    "((lambda x x) a)",
    "((lambda (a b c d e f g) (join g (join a ()))) 1 2 3 4 5 6 7)",
    "((lambda (a b c d e f g h) (join h (join a ()))) 1 2 3 4 5 6 7 8)",
    "((lambda (a b c d e f g h i) (join i (join h (join a ())))) 1 2 3 4 5 6 7 8 9)",
    "((lambda (a b c d e f g h i j) j) 1 2 3 4 5 6 7 8)",
    "((lambda (a) a) 1 2 3 4 5 6 7 8 9 10)",
    "(a b c)",
    "(a 1 2 3 4 5 6 7 8 9)",
    "((' x) y)",
    "(() a)",
    "((join a ()) b)",
    "((if true (lambda (q) (join q q)) x) (' (r)))",
    "((head (' (lambda (q) q))) z)",
    "(define x (' (1 2))) (join x x)",
    "(define x) (join x x)",
    "(define) (define x (read-bit)) x",
    "(define (1) x) (define x (display a)) (join x (1))",
    "(define (f) (' nullary)) (define (g a b c d e f h i) i) (join (f) (g 1 2 3 4 5 6 7 8))",
    "(define (f x) (if (= x ()) done (f (tail x)))) (define y (f (' (1 2 3)))) y",
    "(define x (define y (' z))) (join x y)",
    "(define (loop) (loop)) (loop)",
]


@pytest.mark.parametrize("text", EDGE_PROGRAMS)
def test_agrees_on_edge_forms_at_every_budget(text):
    program = parse(text)
    for tape in ("", "1", "01"):
        assert_agree_at_every_budget(program, tape)


def test_agrees_on_run_remaining_sequences_at_every_budget():
    inner = encode_text(
        "(define x (read-bit)) (define (f y) (join y x)) (f (run-remaining))"
    ).bits
    innermost = encode_text("(define z) (join z (read-bit))").bits
    for tape in (inner + innermost + "1" + "0", inner + innermost, inner + "0"):
        for text in (
            "(run-remaining)",
            "(define a (run-remaining)) (join a a)",
            "(join (run-remaining) (read-bit))",
        ):
            assert_agree_at_every_budget(parse(text), tape)


def random_edge_expr(rng, depth):
    """Expressions over every form, with operand counts from none to more
    than the form takes, and applications of 0 to 10 operands."""
    if depth == 0:
        return rng.choice(ATOM_POOL + ["p", "q", "f", ("read-bit",), ("'", "x"), ()])
    form = rng.choice([
        "'", "quote", "if", "=", "join", "head", "car", "tail", "cdr",
        "atom?", "display", "lambda", "apply", "apply", "apply",
    ])
    if form == "lambda":
        params = tuple(rng.sample(["p", "q", "r", "s"], rng.randrange(0, 4)))
        return ("lambda", params, random_edge_expr(rng, depth - 1))
    if form in ("'", "quote"):
        return (form,) + tuple(random_sexpr(rng, 1) for _ in range(rng.randrange(0, 3)))
    if form == "apply":
        operator = rng.choice([
            "f", "x", ("lambda", ("p", "q"), "q"),
            ("lambda", tuple("abcdefghij"[: rng.randrange(0, 11)]), "i"),
            random_edge_expr(rng, depth - 1),
        ])
        argc = rng.choice([0, 1, 2, 7, 8, 9, 10])
        return (operator,) + tuple(random_edge_expr(rng, depth - 1) for _ in range(argc))
    return (form,) + tuple(
        random_edge_expr(rng, depth - 1) for _ in range(rng.randrange(0, 5))
    )


def random_edge_program(rng, depth):
    defines = []
    for _ in range(rng.randrange(0, 4)):
        defines.append(rng.choice([
            ("define", "x", random_edge_expr(rng, depth - 1)),
            ("define", "x"),
            ("define",),
            ("define", ("1",), "x"),
            ("define", ("f", "p", "q"), random_edge_expr(rng, depth - 1)),
            ("define", ("f",), random_edge_expr(rng, depth - 1)),
        ]))
    return (*defines, random_edge_expr(rng, depth))


@pytest.mark.parametrize("seed", range(4))
def test_agrees_on_fuzzed_edge_programs_at_every_budget(seed):
    rng = random.Random(300 + seed)
    for _ in range(150):
        assert_agree_at_every_budget(random_edge_program(rng, 3), random_tape(rng))
