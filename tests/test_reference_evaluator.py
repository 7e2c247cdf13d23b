"""Cross-check ``evaluate`` against the naive reference evaluator.

Both must agree on the outcome type and on value, ``bits_consumed``,
``steps`` and ``emitted``, for fuzzed programs, closure-heavy fuzzed
programs and the benchmark's list shapes at small sizes.
"""

import random

import pytest

from conftest import ATOM_POOL, IN_SET_TEXT, random_expr, random_sexpr, random_tape
from omegalab.evaluator import BitTape, evaluate
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
    got = evaluate(program, BitTape(tape), budget)
    want = reference_evaluate(program, BitTape(tape), budget)
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
