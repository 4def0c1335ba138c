"""The design-file compiler's two safety rules, against the oracle.

The interpreter translates design text to Python source
(``repro.lang.interpreter``), and the service runs design text that
remote clients send.  So:

* *literals only*: a name or string of the design text may enter the
  generated source only as a ``str``/``int`` literal.  Seeded programs
  whose names collide with the generator's own (its locals, helpers and
  function names), with Python keywords and builtins, and whose strings
  hold quotes, backslashes, newlines and ``"); import os; ("``, must
  evaluate as the tree-walking oracle (``tests/oracles/lang.py``) does,
  value, output and error; and every identifier of the generated source
  must be one of the generator's own.
* *bounded nesting*: CPython refuses more than 20 statically nested
  blocks, 100 levels of indentation or 200 nested parentheses.  Programs
  nested 150 forms deep (``cond`` in ``do`` in ``cond`` ..., and operand
  chains) must still give the oracle's value or error.
"""

import ast
import random
import re

import pytest
from test_lang_differential import compiled, walked

from repro.lang.interpreter import _NAMESPACE, _generate

#: names the generated code itself uses, Python keywords and builtins
HOSTILE_NAMES = (
    "B", "E", "I", "K", "v", "t0", "t1", "a0", "b0", "f1", "f2", "R", "P", "X",
    "CA", "CK", "CS", "CN", "MK", "MI", "SC", "F", "DI", "RZ", "LOOP", "ADD", "EQ",
    "Node", "isinstance", "str", "int", "type", "__import__", "__builtins__",
    "exec", "eval", "open", "os", "sys", "import", "lambda", "return", "def",
    "class", "None", "True", "False", "pass", "break", "while", "for", "else",
    "elif", "if", "not", "is", "in", "del", "global", "yield", "await",
    "x'y", "a\\b", "q'", "\\", "'''", "it's",
)
#: string literals (the language has no escapes: no ``"`` inside)
HOSTILE_STRINGS = (
    "'); import os; ('", "); import os; (", "\\", "\\n", "a\nb", "'", "''",
    "\\'; __import__('os').system('true'); '", "{B}", "%s", "\r\t",
)

SEEDS = range(150)


def hostile_program(rng):
    """A random program over hostile names: procedures with hostile
    formals and locals, assignments, loops over hostile variables,
    indexed bindings, macro frames read back, printed strings."""
    names = [n for n in HOSTILE_NAMES if not n.startswith("m")]
    pick = rng.choice

    def atom(scope, numeric=False):
        roll = rng.random()
        if roll < 0.4 and scope:
            return pick(scope)
        if roll < 0.75 or numeric and roll < 0.97:
            return str(rng.randint(-3, 5))
        if roll < 0.87:
            return f'"{pick(HOSTILE_STRINGS)}"'
        if roll < 0.97:
            return f"(quote {pick(names)})"
        return pick(names)  # often unbound: an error the oracle shares

    def expr(scope, depth=0, numeric=False):
        roll = rng.random()
        if depth > 2 or roll < 0.4:
            return atom(scope, numeric)
        if roll < 0.6:
            op = pick(["+", "-", "*", "=", "<", "/=", "mod", "max"])
            return f"({op} {expr(scope, depth + 1, True)} {expr(scope, depth + 1, True)})"
        if roll < 0.7:
            return f"(print {expr(scope, depth + 1)})"
        if roll < 0.8:
            return f"(cond ({expr(scope, depth + 1)} {expr(scope, depth + 1)}) (true {atom(scope)}))"
        if roll < 0.9 and scope:
            return f"(setq {pick(scope)} {expr(scope, depth + 1)})"
        return f"(and {expr(scope, depth + 1)} {expr(scope, depth + 1)})"

    lines = []
    procedures = []
    for number in range(rng.randint(1, 3)):
        formals = rng.sample(names, rng.randint(0, 3))
        locals_ = [n for n in rng.sample(names, 2) if n not in formals]
        name = pick(names) if rng.random() < 0.5 else f"p{number}"
        body_scope = formals + locals_
        body = " ".join(expr(body_scope) for _ in range(rng.randint(1, 3)))
        if rng.random() < 0.5 and body_scope:
            variable = pick(body_scope)
            body += f" (do ({variable} 1 (+ {variable} 1) (> {variable} 2)) (setq w.{variable} {atom(body_scope)}))"
        is_macro = rng.random() < 0.3
        if is_macro:
            name = "m" + name.strip("'\\")
        lines.append(
            f"({'macro' if is_macro else 'defun'} {name} ({' '.join(formals)})"
            f" (locals {' '.join(locals_)}) {body})"
        )
        procedures.append((name, len(formals), is_macro, body_scope))
    scope = []
    for _ in range(rng.randint(1, 3)):
        variable = pick(names)
        lines.append(f"(setq {variable} {expr(scope)})")
        scope.append(variable)
    for name, arity, is_macro, body_scope in procedures:
        call = f"({name} {' '.join(expr(scope) for _ in range(arity))})"
        if is_macro and body_scope:
            call = f"(subcell {call} {pick(body_scope)})"
        lines.append(f"(print {call})")
    lines.append(f"(print {expr(scope)})")
    return "\n".join(lines)


def bindings():
    return {"true": True, "g": 3}


@pytest.mark.parametrize("seed", SEEDS)
def test_hostile_names_and_strings_match_the_oracle(seed):
    text = hostile_program(random.Random(seed))
    assert compiled(text, bindings()) == walked(text, bindings()), text


def test_hostile_programs_reach_values_errors_and_output():
    texts = [hostile_program(random.Random(seed)) for seed in SEEDS]
    outcomes = [compiled(text, bindings()) for text in texts]
    assert sum(result[0] == "value" for result, _ in outcomes) >= len(SEEDS) // 10
    assert any(result[0] == "error" for result, _ in outcomes)
    printed = {item for _, output in outcomes for item in output}
    assert any(item[0] == "str" and "import os" in item[1] for item in printed)


#: identifiers the generated source may contain: its parameters, its
#: temporaries and function names, the namespace it runs in, and the
#: attributes it reads
GENERATED_NAME = re.compile(r"(B|E|I|K|L|v|t\d+|f\d+)$")
ATTRIBUTES = {"bindings", "lookup", "procedures", "rsg", "mk_cell", "_resolve_cell",
              "output", "append", "input_queue", "pop"}


def generated_source(text):
    program, _ = _generate(text)
    return "\n".join(program.functions)


@pytest.mark.parametrize("seed", range(40))
def test_generated_source_holds_design_text_only_as_literals(seed):
    source = generated_source(hostile_program(random.Random(seed)))
    allowed = set(_NAMESPACE) | set(_NAMESPACE["__builtins__"])
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            assert node.id in allowed or GENERATED_NAME.match(node.id), node.id
        elif isinstance(node, ast.FunctionDef):
            assert GENERATED_NAME.match(node.name), node.name
            assert [arg.arg for arg in node.args.args] in (["I", "E"], ["I", "E", "B"])
        elif isinstance(node, ast.Attribute):
            assert node.attr in ATTRIBUTES, node.attr
        elif isinstance(node, ast.Constant):
            assert node.value is None or type(node.value) in (bool, int, str), node.value
        else:
            assert not isinstance(node, (ast.Import, ast.ImportFrom, ast.Lambda,
                                         ast.ClassDef, ast.Global, ast.Nonlocal))


# ----------------------------------------------------------------------
# Bounded nesting
# ----------------------------------------------------------------------
DEPTH = 150


def nested_blocks(depth, rng):
    """``cond`` in ``do`` in ``and`` in ... ``depth`` forms deep."""
    text = "(print k)"
    for level in range(depth):
        kind = rng.choice(["cond", "do", "and", "or", "prog"])
        variable = f"i{level}"
        if kind == "cond":
            text = f"(cond ((= k {level % 3}) {text}) ((> k 5) nope) (true (setq k (+ k 1)) k))"
        elif kind == "do":
            text = f"(do ({variable} 1 (+ {variable} 1) (> {variable} 1)) (setq k (mod (+ k {variable}) 7)) {text})"
        elif kind in ("and", "or"):
            text = f"({kind} (setq k (+ k 1)) {text} k)"
        else:
            text = f"(prog (setq k (- k 1)) {text})"
    return f"(setq k 0)\n{text}"


def nested_operands(depth, rng):
    """An expression ``depth`` operands deep, through arithmetic, calls
    and indexed reads."""
    text = "k"
    for level in range(depth):
        kind = rng.choice(["+", "max", "twice", "index", "cond"])
        if kind == "twice":
            text = f"(twice {text})"
        elif kind == "index":
            text = f"(prog (setq w.{level % 3} {text}) w.(mod {level} 3))"
        elif kind == "cond":
            text = f"(cond ((< {text} 0) 0) (true 1))"
        else:
            text = f"({kind} 1 {text})"
    return f"(setq k 1)\n(print {text})"


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("shape", [nested_blocks, nested_operands])
def test_deep_nesting_matches_the_oracle(shape, seed):
    text = shape(DEPTH, random.Random(seed))
    result = compiled(text, bindings())
    assert result == walked(text, bindings())
    assert result[0][0] == "value" or "SyntaxError" not in result[0][1]


def test_deep_nesting_moves_blocks_into_functions():
    source = generated_source(nested_blocks(DEPTH, random.Random(0)))
    depths = [len(line) - len(line.lstrip(" ")) for line in source.splitlines()]
    assert max(depths) < 20
    assert source.count("\ndef ") > 5
