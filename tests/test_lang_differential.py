"""Seeded differential test: the compiled interpreter against a
tree-walking oracle (``tests/oracles/lang.py``).

Each seed builds a random program in the design-file language with
stdlib ``random``: defuns and macros (formals and locals that shadow
globals, macros read back through ``subcell``), arithmetic and
comparisons of two and of more operands, ``cond``, ``do``,
``assign``/``setq`` on plain and indexed keys, ``prog``/``and``/``or``/
``quote`` and ``print``.  Its globals hold parameter-file aliases: a
chain, a cycle, one whose target a procedure frame binds, and one
naming a cell.  Some forms are malformed, in taken and in untaken
branches, and some reads are unbound.  Both evaluators run the same
text with the same globals; their values, printed output, and error
type and text must agree.
"""

import random

import pytest
from oracles import lang as oracle

from repro.core.cell import CellDefinition, CellTable
from repro.core.operators import Rsg
from repro.lang import Alias, Environment, Interpreter
from repro.lang.parser import parse_program

SEEDS = range(400)
MAX_DEPTH = 12

GLOBAL_INTS = ("g1", "g2", "g3")
#: a name some frames bind and the global alias ``alf`` points at
FRAME_NAME = "fv"
TEMPS = ("t1", "t2")
UNBOUND = ("nope",)
LOOP_VARIABLES = ("i", "j", "k")


def builtins():
    return {"twice": lambda value: value * 2}


def global_bindings(rng):
    bindings = {name: rng.randint(-3, 5) for name in GLOBAL_INTS}
    bindings.update({
        ("v", (1,)): rng.randint(0, 4),
        ("v", (2,)): "two",
        ("v", (1, 1)): rng.randint(0, 4),
        ("v", (1, 2)): rng.randint(0, 4),
        ("v", (2, 1)): rng.randint(0, 4),
        ("v", (2, 2)): rng.randint(0, 4),
        "word": "s",
        "al1": Alias("g1"),       # one step
        "al2": Alias("al1"),      # a chain
        "cyc1": Alias("cyc2"),    # a cycle
        "cyc2": Alias("cyc1"),
        "alf": Alias(FRAME_NAME),  # re-enters at the reading frame
        "ct": Alias("tile"),      # the cell table
    })
    if rng.random() < 0.75:
        bindings[FRAME_NAME] = rng.randint(6, 9)
    return bindings


class ProgramWriter:
    """Writes one random program as design-file text."""

    def __init__(self, rng):
        self.rng = rng
        self.functions = []  # (name, arity) callable from later code
        self.macros = []     # (name, arity, bound names)

    # -- helpers ---------------------------------------------------------
    def pick(self, options):
        return self.rng.choice(options)

    def chance(self, p):
        return self.rng.random() < p

    def readable(self, scope, numeric=False):
        names = list(scope["names"]) + list(GLOBAL_INTS) + ["al1", "al2", "alf"]
        if not numeric:
            names += ["ct", "word"]
        if self.chance(0.03):
            names.append(self.pick(UNBOUND + ("cyc1", "cyc2")))
        return names

    def writable(self, scope):
        names = [n for n in scope["names"] if n not in scope["loops"]]
        return names + list(TEMPS) + list(GLOBAL_INTS[:1])

    def index(self, scope, depth):
        roll = self.rng.random()
        if roll < 0.02:
            return "(quote s)"  # a non-integer index
        if roll < 0.15:
            return f"({self.pick(['+', '-'])} {self.expr(scope, depth + 1, True)} 1)"
        if roll < 0.4 and scope["loops"]:
            return self.pick(scope["loops"])
        return str(self.rng.randint(1, 2))

    def indexed(self, base, scope, depth):
        text = f"{base}.{self.index(scope, depth)}"
        if self.chance(0.2):
            text += f".{self.index(scope, depth)}"
        return text

    # -- expressions -----------------------------------------------------
    def expr(self, scope, depth=0, numeric=False):
        if depth >= 3:
            return self.atom(scope, depth, numeric)
        roll = self.rng.random()
        if roll < 0.35:
            return self.atom(scope, depth, numeric)
        if roll < 0.6:
            return self.arithmetic(scope, depth)
        if roll < 0.68:
            return self.call(scope, depth)
        if roll < 0.74:
            return self.subcell(scope, depth)
        if roll < 0.8:
            head = self.pick(["and", "or", "prog"])
            items = " ".join(self.expr(scope, depth + 1) for _ in range(self.rng.randint(0, 3)))
            return f"({head} {items})"
        if roll < 0.86:
            return self.cond(scope, depth)
        if roll < 0.9:
            if self.chance(0.1):
                return self.pick(["(quote)", "(quote a b)"])
            return self.pick(["(quote nope)", "(quote 7)", "(quote v.1)"])
        if roll < 0.98:
            return self.assign(scope, depth)
        return self.malformed(scope, depth)

    def atom(self, scope, depth, numeric=False):
        roll = self.rng.random()
        if roll < 0.35:
            return str(self.rng.randint(-2, 6))
        if roll < 0.37 or (not numeric and roll < 0.4):
            return '"str"'
        if roll < 0.85:
            return self.pick(self.readable(scope, numeric))
        base = "w" if self.chance(0.1) else "v"
        return self.indexed(base, scope, depth)

    def arithmetic(self, scope, depth):
        op = self.pick(["+", "-", "*", "=", "/=", "<", ">", "<=", ">=",
                        "mod", "//", "min", "max", "abs", "not"])
        if op in ("abs", "not"):
            count = 1
        elif op in ("mod", "//"):
            count = 2 if self.chance(0.9) else 3
        else:
            count = 2 if self.chance(0.75) else self.rng.randint(1, 4) // 2 + 1
            if self.chance(0.02):
                count = 0
        operands = " ".join(self.expr(scope, depth + 1, True) for _ in range(count))
        return f"({op} {operands})"

    def call(self, scope, depth):
        if self.chance(0.1):
            return f"(twice {self.expr(scope, depth + 1, True)})"
        if not self.functions or self.chance(0.03):
            if self.functions or self.chance(0.8):
                return f"(twice {self.expr(scope, depth + 1, True)})"
            return f"(undefined {self.expr(scope, depth + 1)})"
        name, arity = self.pick(self.functions + [macro[:2] for macro in self.macros])
        if self.chance(0.1):
            arity += self.pick([-1, 1]) if arity else 1
        arguments = " ".join(self.expr(scope, depth + 1) for _ in range(arity))
        return f"({name} {arguments})"

    def subcell(self, scope, depth):
        if not self.macros or self.chance(0.05):
            if self.chance(0.7):
                return self.atom(scope, depth)
            return f"(subcell {self.atom(scope, depth)} {self.pick(self.readable(scope))})"
        name, arity, bound = self.pick(self.macros)
        arguments = " ".join(self.expr(scope, depth + 1) for _ in range(arity))
        field = self.pick(bound) if bound and self.chance(0.9) else self.pick(TEMPS + UNBOUND)
        if self.chance(0.2):
            field = self.indexed("w", scope, depth)
        return f"(subcell ({name} {arguments}) {field})"

    def cond(self, scope, depth):
        clauses = []
        for _ in range(self.rng.randint(1, 3)):
            test = self.pick(["true", "false", "nil"]) if self.chance(0.4) else self.expr(scope, depth + 1)
            body = " ".join(self.statement(scope, depth + 1) for _ in range(self.rng.randint(0, 2)))
            clauses.append(f"({test} {body})")
        if self.chance(0.1):
            clauses.insert(self.rng.randint(0, len(clauses)), self.pick(["x", "()"]))
        return f"(cond {' '.join(clauses)})"

    def assign(self, scope, depth):
        head = self.pick(["assign", "setq"])
        if self.chance(0.02):
            return self.pick([f"({head} 3 4)", f"({head} t1)"])
        if self.chance(0.35):
            target = self.indexed("w", scope, depth)
        else:
            target = self.pick(self.writable(scope))
        return f"({head} {target} {self.expr(scope, depth + 1)})"

    def malformed(self, scope, depth):
        return self.pick([
            "(3 4)", "(do x)", "(do (1 1 2 3) 4)", "(defun)", "(subcell w)",
            "(assign)", f"(cond (false {self.expr(scope, depth + 1)}) ({self.expr(scope, depth + 1)}))",
            "(cond (false (3 4)))", "(defun mbad (a) a)", "(macro bad (a) a)",
            "(defun f9 (1) 2)", "(defun f9 x 2)", "(macro m9 (a) (locals 3))",
        ])

    # -- statements ------------------------------------------------------
    def statement(self, scope, depth=0):
        roll = self.rng.random()
        if roll < 0.3:
            return self.assign(scope, depth)
        if roll < 0.4 and depth < 3:
            return self.loop(scope, depth)
        if roll < 0.5:
            return f"(print {self.expr(scope, depth + 1)})"
        return self.expr(scope, depth)

    def loop(self, scope, depth):
        free = [name for name in LOOP_VARIABLES if name not in scope["loops"]]
        if not free or self.chance(0.05):
            return self.pick(["(do (i 1) 2)", "(do (3 1 (+ 1 i) (> i 2)) 4)"])
        variable = self.pick(free)
        inner = {"names": scope["names"] + [variable], "loops": scope["loops"] + [variable]}
        body = " ".join(self.statement(inner, depth + 1) for _ in range(self.rng.randint(0, 3)))
        limit = self.rng.randint(-1, 3)
        return f"(do ({variable} 1 (+ 1 {variable}) (> {variable} {limit})) {body})"

    def procedure(self, number, is_macro):
        formal_pool = list(GLOBAL_INTS[:2]) + [FRAME_NAME, "a", "b"]
        formals = self.rng.sample(formal_pool, self.rng.randint(0, 3))
        locals_ = [n for n in self.rng.sample(["t1", FRAME_NAME, "g3", "c"], self.rng.randint(0, 2))
                   if n not in formals]
        scope = {"names": formals + locals_, "loops": []}
        body = " ".join(self.statement(scope, 1) for _ in range(self.rng.randint(1, 4)))
        declaration = f"(locals {' '.join(locals_)}) " if locals_ or self.chance(0.3) else ""
        if is_macro:
            name = f"m{number}"
        else:
            name = "twice" if self.chance(0.1) else f"f{number}"
        text = f"({'macro' if is_macro else 'defun'} {name} ({' '.join(formals)}) {declaration}{body})"
        if is_macro:
            self.macros.append((name, len(formals), formals + locals_))
        else:
            self.functions.append((name, len(formals)))
        return text

    def program(self):
        lines = []
        for number in range(self.rng.randint(1, 4)):
            lines.append(self.procedure(number, is_macro=self.chance(0.45)))
        if self.chance(0.15):
            lines.append("(defun fr (n) (fr (+ n 1)))")
            self.functions.append(("fr", 1))
        scope = {"names": list(TEMPS), "loops": []}
        lines += [f"(setq {name} {self.rng.randint(0, 3)})" for name in TEMPS]
        for _ in range(self.rng.randint(2, 6)):
            lines.append(self.statement(scope))
        return "\n".join(lines)


def normalize(value, depth=0):
    """A comparable rendering: types kept apart (1 is not True), frames
    by procedure name and bindings in order, cells by name."""
    if depth > 6:
        return ("deep",)
    if value is None or isinstance(value, (bool, int, str)):
        return (type(value).__name__, value)
    if isinstance(value, (Environment, oracle.Environment)):
        return ("frame", value.procedure_name, tuple(
            (key, normalize(item, depth + 1)) for key, item in value.bindings.items()
        ))
    if isinstance(value, CellDefinition):
        return ("cell", value.name)
    return (type(value).__name__, repr(value))


def outcome(run, output):
    try:
        result = ("value", normalize(run()))
    except Exception as error:  # noqa: BLE001 — the error is the outcome
        result = ("error", type(error).__name__, str(error))
    return result, [normalize(item) for item in output]


def compiled(text, bindings):
    rsg = Rsg()
    rsg.define_cell("tile")
    interpreter = Interpreter(rsg, max_depth=MAX_DEPTH)
    interpreter.set_parameters(bindings)
    for name, function in builtins().items():
        interpreter.register_builtin(name, function)
    return outcome(lambda: interpreter.run(text), interpreter.output)


def walked(text, bindings):
    cells = CellTable()
    cells.new_cell("tile")
    walker = oracle.Oracle(bindings, cells, builtins(), max_depth=MAX_DEPTH)
    return outcome(lambda: walker.run(parse_program(text)), walker.output)


def case(seed):
    rng = random.Random(seed)
    bindings = global_bindings(rng)
    return ProgramWriter(rng).program(), bindings


@pytest.mark.parametrize("seed", SEEDS)
def test_compiled_interpreter_matches_the_oracle(seed):
    text, bindings = case(seed)
    assert compiled(text, bindings) == walked(text, bindings), text


def test_programs_reach_what_they_are_meant_to():
    """The seeds cover values and errors, and the named paths."""
    cases = [case(seed) for seed in SEEDS]
    outcomes = [compiled(*item)[0] for item in cases]
    values = [item[1] for item in outcomes if item[0] == "value"]
    errors = "\n".join(item[2] for item in outcomes if item[0] == "error")
    texts = "\n".join(text for text, _ in cases)
    assert len(values) >= len(SEEDS) // 5
    assert {"frame", "bool", "int"} <= {value[0] for value in values}
    for fragment in ("alias chain too deep", "unbound variable", "must be an integer",
                     "recursion depth exceeded", "is not bound in the environment",
                     "malformed cond clause", "unknown procedure", "argument(s), got",
                     "not supported between", "twice: "):
        assert fragment in errors, fragment
    for form in ("(do (", "(setq w.", "(assign", "(subcell (m", "(and", "(or",
                 "(quote", "(cond", "alf", "ct"):
        assert form in texts, form
