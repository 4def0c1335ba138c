"""A tree-walking evaluator of the design-file language: the oracle for
the compiled interpreter (``repro.lang.interpreter``).

It walks the parsed statements directly on every run: no closures, no
compile cache, no inline frame probes.  Each form is dispatched by its
head when it runs, variables resolve through :meth:`Oracle.lookup`, a
literal transcription of Figure 4.1 (frame, then globals, then the cell
table; an alias re-enters the chain at the frame, at most 32 times in a
row), and n-ary arithmetic folds its operands one by one.  Error types
and texts are the interpreter's, so a differential test can compare
them as well as values and printed output.

Not covered: the graph primitives (``mk_instance``, ``connect``,
``mk_cell``, ``declare_interface``) and ``read``.
"""

import operator
from typing import Any, Callable, Dict, List, Optional

from repro.core.cell import CellTable
from repro.core.errors import EvalError, UnboundVariableError
from repro.lang import Alias
from repro.lang.ast_nodes import Form, IndexedVar, Statement, Symbol


class Environment:
    """A procedure's bindings (a macro returns its frame).

    Named as the interpreter's class is, so a type error that names a
    frame's type reads the same from both.
    """

    def __init__(self, procedure_name: str) -> None:
        self.procedure_name = procedure_name
        self.bindings: Dict[Any, Any] = {}


def describe(key: Any) -> str:
    if isinstance(key, str):
        return repr(key)
    name, indices = key
    return repr(name + "." + ".".join(str(i) for i in indices))


def truthy(value: Any) -> bool:
    return value is not None and value is not False


class Oracle:
    """Evaluates parsed design-file statements by walking them."""

    def __init__(
        self,
        bindings: Dict[Any, Any],
        cells: CellTable,
        builtins: Optional[Dict[str, Callable[..., Any]]] = None,
        max_depth: int = 120,
    ) -> None:
        self.globals: Dict[Any, Any] = {"true": True, "false": False, "nil": None}
        self.globals.update(bindings)
        self.cells = cells
        self.builtins = dict(builtins or {})
        self.procedures: Dict[str, Form] = {}
        self.output: List[Any] = []
        self.max_depth = max_depth
        self.depth = 0

    def run(self, program: List[Statement]) -> Any:
        frame = Environment("__toplevel__")
        result = None
        for statement in program:
            result = self.eval(statement, frame)
        return result

    # ------------------------------------------------------------------
    def lookup(self, frame: Environment, key: Any, depth: int = 0) -> Any:
        if depth > 32:
            raise UnboundVariableError(
                f"alias chain too deep while resolving {describe(key)}"
            )
        if key in frame.bindings:
            value = frame.bindings[key]
        elif key in self.globals:
            value = self.globals[key]
        elif isinstance(key, str) and key in self.cells:
            value = self.cells.lookup(key)
        else:
            raise UnboundVariableError(f"unbound variable {describe(key)}")
        if isinstance(value, Alias):
            return self.lookup(frame, value.name, depth + 1)
        return value

    def key(self, var: IndexedVar, frame: Environment) -> Any:
        values = []
        for index in var.indices:
            value = self.eval(index, frame)
            if not isinstance(value, int):
                raise EvalError(
                    f"line {var.line}: index of {var.base!r} must be an"
                    f" integer, got {value!r}"
                )
            values.append(value)
        return (var.base, tuple(values))

    def body(self, statements: List[Statement], frame: Environment) -> Any:
        result = None
        for statement in statements:
            result = self.eval(statement, frame)
        return result

    # ------------------------------------------------------------------
    def eval(self, statement: Statement, frame: Environment) -> Any:
        if isinstance(statement, (int, str)):
            return statement
        if isinstance(statement, Symbol):
            return self.lookup(frame, statement.name)
        if isinstance(statement, IndexedVar):
            return self.lookup(frame, self.key(statement, frame))
        if isinstance(statement, Form):
            return self.form(statement, frame)
        raise EvalError(f"cannot evaluate {statement!r}")

    def form(self, form: Form, frame: Environment) -> Any:
        if len(form) == 0:
            return None
        head = form[0]
        if not isinstance(head, Symbol):
            raise EvalError(f"line {form.line}: form head must be a name")
        name = head.name
        special = getattr(self, "special_" + name, None)
        if special is not None:
            return special(form, frame)
        if name in ARITHMETIC:
            values = [self.eval(item, frame) for item in form.items[1:]]
            return ARITHMETIC[name](values)
        return self.call(name, form, frame)

    def call(self, name: str, form: Form, frame: Environment) -> Any:
        if name in self.builtins:
            values = [self.eval(item, frame) for item in form.items[1:]]
            try:
                return self.builtins[name](*values)
            except EvalError:
                raise
            except Exception as exc:
                raise EvalError(f"line {form.line}: {name}: {exc}") from exc
        if name in self.procedures:
            values = [self.eval(item, frame) for item in form.items[1:]]
            return self.apply(self.procedures[name], values)
        raise EvalError(f"line {form.line}: unknown procedure {name!r}")

    def apply(self, definition: Form, values: List[Any]) -> Any:
        is_macro = definition[0].name == "macro"
        name = definition[1].name
        formals = [item.name for item in definition[2]]
        body = list(definition.items[3:])
        locals_: List[str] = []
        if body and isinstance(body[0], Form) and len(body[0]) >= 1:
            first = body[0]
            if isinstance(first[0], Symbol) and first[0].name in ("locals", "local"):
                locals_ = [item.name for item in first.items[1:]]
                body = body[1:]
        if len(values) != len(formals):
            raise EvalError(
                f"{name} expects {len(formals)} argument(s), got {len(values)}"
            )
        if self.depth >= self.max_depth:
            raise EvalError(f"recursion depth exceeded in {name}")
        inner = Environment(name)
        for formal, value in zip(formals, values):
            inner.bindings[formal] = value
        for local in locals_:
            inner.bindings[local] = None
        self.depth += 1
        try:
            result = self.body(body, inner)
        finally:
            self.depth -= 1
        return inner if is_macro else result

    # ------------------------------------------------------------------
    # Special forms (the method name is ``special_`` + the form's head)
    # ------------------------------------------------------------------
    def define(self, form: Form, is_macro: bool) -> None:
        keyword = "macro" if is_macro else "defun"
        if len(form) < 3:
            raise EvalError(f"line {form.line}: malformed {keyword}")
        if not isinstance(form[1], Symbol):
            raise EvalError(f"line {form.line}: {keyword} name must be a symbol")
        name = form[1].name
        if is_macro and not name.startswith("m"):
            raise EvalError(
                f"line {form.line}: macro name {name!r} must begin with 'm'"
                " (section 4.2)"
            )
        if not is_macro and name.startswith("m"):
            raise EvalError(
                f"line {form.line}: function name {name!r} may not begin"
                " with 'm' — the interpreter classifies call sites by the"
                " leading letter (section 4.2)"
            )
        if not isinstance(form[2], Form):
            raise EvalError(f"line {form.line}: {keyword} needs a formals list")
        names = list(form[2].items)
        body = list(form.items[3:])
        if body and isinstance(body[0], Form) and len(body[0]) >= 1:
            first = body[0]
            if isinstance(first[0], Symbol) and first[0].name in ("locals", "local"):
                names += first.items[1:]
        for item in names:
            if not isinstance(item, Symbol):
                raise EvalError(f"line {form.line}: formal/local must be a symbol")
        self.procedures[name] = form

    def special_defun(self, form: Form, frame: Environment) -> None:
        self.define(form, is_macro=False)

    def special_macro(self, form: Form, frame: Environment) -> None:
        self.define(form, is_macro=True)

    def special_cond(self, form: Form, frame: Environment) -> Any:
        for clause in form.items[1:]:
            if not isinstance(clause, Form) or len(clause) < 1:
                raise EvalError(f"line {form.line}: malformed cond clause")
            if truthy(self.eval(clause[0], frame)):
                return self.body(clause.items[1:], frame)
        return None

    def special_do(self, form: Form, frame: Environment) -> Any:
        if len(form) < 2 or not isinstance(form[1], Form) or len(form[1]) != 4:
            raise EvalError(f"line {form.line}: do needs (var initial next exit) header")
        variable, initial, step, finished = form[1].items
        if not isinstance(variable, Symbol):
            raise EvalError(f"line {form.line}: do variable must be a symbol")
        frame.bindings[variable.name] = self.eval(initial, frame)
        result = None
        iterations = 0
        while not truthy(self.eval(finished, frame)):
            result = self.body(form.items[2:], frame)
            frame.bindings[variable.name] = self.eval(step, frame)
            iterations += 1
            if iterations > 10_000_000:
                raise EvalError(f"line {form.line}: runaway do loop")
        return result

    def special_prog(self, form: Form, frame: Environment) -> Any:
        return self.body(form.items[1:], frame)

    def special_and(self, form: Form, frame: Environment) -> Any:
        value: Any = True
        for item in form.items[1:]:
            value = self.eval(item, frame)
            if not truthy(value):
                return False
        return value

    def special_or(self, form: Form, frame: Environment) -> Any:
        for item in form.items[1:]:
            value = self.eval(item, frame)
            if truthy(value):
                return value
        return False

    def special_quote(self, form: Form, frame: Environment) -> Any:
        if len(form) != 2:
            raise EvalError(f"line {form.line}: quote needs one argument")
        item = form[1]
        return item.name if isinstance(item, Symbol) else item

    def special_assign(self, form: Form, frame: Environment) -> Any:
        if len(form) != 3:
            raise EvalError(f"line {form.line}: assign needs target and value")
        value = self.eval(form[2], frame)
        target = form[1]
        if isinstance(target, Symbol):
            key = target.name
        elif isinstance(target, IndexedVar):
            key = self.key(target, frame)
        else:
            raise EvalError("assignment target must be a variable")
        frame.bindings[key] = value
        return value

    special_setq = special_assign

    def special_subcell(self, form: Form, frame: Environment) -> Any:
        if len(form) != 3:
            raise EvalError(f"line {form.line}: subcell needs env and variable")
        source = self.eval(form[1], frame)
        if not isinstance(source, Environment):
            raise EvalError(
                f"line {form.line}: subcell's first argument must be a macro"
                f" environment, got {type(source).__name__}"
            )
        node = form[2]
        if isinstance(node, Symbol):
            key = node.name
        elif isinstance(node, IndexedVar):
            key = self.key(node, frame)  # indices evaluate in the caller's frame
        else:
            raise EvalError(f"line {form.line}: subcell variable must be a name")
        if key not in source.bindings:
            raise UnboundVariableError(
                f"{describe(key)} is not bound in the environment of"
                f" {source.procedure_name or '<anonymous>'}"
            )
        return source.bindings[key]

    def special_print(self, form: Form, frame: Environment) -> Any:
        value = None
        for item in form.items[1:]:
            value = self.eval(item, frame)
            self.output.append(value)
        return value


# ----------------------------------------------------------------------
# Arithmetic: each takes the evaluated operand list
# ----------------------------------------------------------------------
def _fold(values: List[Any], combine: Callable[[Any, Any], Any]) -> Any:
    result = values[0]
    for value in values[1:]:
        result = combine(result, value)
    return result


def _minus(values: List[Any]) -> Any:
    if not values:
        raise EvalError("'-' needs at least one argument")
    if len(values) == 1:
        return -values[0]
    return _fold(values, operator.isub)  # the interpreter folds with -=


def _divide(values: List[Any]) -> Any:
    if len(values) != 2:
        raise EvalError("'//' needs exactly two arguments")
    a, b = values
    if b == 0:
        raise EvalError("division by zero")
    quotient = abs(a) // abs(b)
    return quotient if (a >= 0) == (b >= 0) else -quotient


def _mod(values: List[Any]) -> Any:
    if len(values) != 2:
        raise EvalError("'mod' needs exactly two arguments")
    a, b = values
    if b == 0:
        raise EvalError("mod by zero")
    return a % b if b > 0 else -((-a) % (-b))


def _comparison(test: Callable[[Any, Any], Any]) -> Callable[[List[Any]], bool]:
    def compare(values: List[Any]) -> bool:
        if len(values) < 2:
            raise EvalError("comparison needs two arguments")
        return all(test(a, b) for a, b in zip(values, values[1:]))

    return compare


ARITHMETIC: Dict[str, Callable[[List[Any]], Any]] = {
    "+": lambda values: _fold(values, lambda a, b: a + b) if values else 0,
    "*": lambda values: _fold(values, lambda a, b: a * b) if values else 1,
    "-": _minus,
    "//": _divide,
    "/": _divide,
    "mod": _mod,
    "=": _comparison(lambda a, b: a == b),
    "/=": _comparison(lambda a, b: a != b),
    ">": _comparison(lambda a, b: a > b),
    "<": _comparison(lambda a, b: a < b),
    ">=": _comparison(lambda a, b: a >= b),
    "<=": _comparison(lambda a, b: a <= b),
    "min": lambda values: min(values),
    "max": lambda values: max(values),
    "abs": lambda values: abs(*values),
    "not": lambda values: not truthy(*values),
}
