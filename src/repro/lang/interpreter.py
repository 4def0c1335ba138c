"""The design-file interpreter (chapter 4).

Executes the Lisp-subset language of Appendix A against an
:class:`~repro.core.operators.Rsg` workspace:

* ``defun`` defines functions (return the value of their last statement);
* ``macro`` defines macros, which are identical except that they return
  their evaluation :class:`Environment` — macro names must begin with
  ``m`` so call sites are classifiable ahead of time (section 4.2);
* ``subcell env var`` selects a binding out of a returned environment;
* ``mk_instance`` / ``connect`` / ``mk_cell`` / ``declare_interface`` are
  the connectivity-graph primitives of section 4.4;
* variable lookup follows Figure 4.1: procedure frame, then global
  environment, then the cell table, chasing parameter-file aliases;
* procedures are *not* first class (they live in a separate procedure
  table and cannot be passed as values).

Each statement is compiled once to a closure ``code(interpreter, env)``
(closure compilation: Feeley and Lapalme, "Using closures for code
generation", Computer Languages 12(1), 1987): a form's head is
classified and its special form dispatched when the closure is built,
not each time it runs.  Each design text is parsed and compiled once per
process: compiled programs are cached by text and hold no per-run state,
so one program serves every interpreter that runs that text.

What the closure fixes at compile time: a variable's name (or an indexed
variable's base and index code), a binding's target, a two-operand
``+ - *`` or comparison's ``operator`` function.  What stays a run-time
lookup, because a run can change it: the binding itself, probed in the
frame and then the globals inside the reading closure (aliases and
cell names go through :meth:`Environment.lookup`), and the callee, a
builtin before a procedure.  Frames stay dictionaries: macros return
them, ``subcell`` reads them by name, and indexed keys are run-time
values, so there is no fixed slot layout to compile to.  Every arity or
type error is raised when the malformed statement runs (a malformed
form in a branch never taken is never an error).
"""

from __future__ import annotations

import functools
import operator
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.cell import CellDefinition, Instance
from ..core.errors import EvalError, UnknownCellError
from ..core.graph import Node
from ..core.operators import Rsg
from ..obs import trace as obs_trace
from .ast_nodes import Form, IndexedVar, Statement, Symbol
from .environment import Alias, Environment, GlobalEnvironment
from .parser import parse_program

__all__ = ["Interpreter", "Procedure"]


class Procedure:
    """A user-defined function or macro (not a first-class value)."""

    __slots__ = ("name", "formals", "locals", "body", "is_macro", "code")

    def __init__(
        self,
        name: str,
        formals: List[str],
        locals_: List[str],
        body: List[Statement],
        is_macro: bool,
    ) -> None:
        self.name = name
        self.formals = formals
        self.locals = locals_
        self.body = body
        self.is_macro = is_macro
        #: the body compiled once, when the definition is compiled
        self.code = _compile_body(body)

    def __repr__(self) -> str:
        kind = "macro" if self.is_macro else "defun"
        return f"Procedure({kind} {self.name} ({' '.join(self.formals)}))"


def _truthy(value: Any) -> bool:
    """Lisp truth: nil (None) and false are false; everything else true."""
    return value is not None and value is not False


_ARITH: Dict[str, Callable[..., Any]] = {}


def _register_arith() -> None:
    # A primitive's EvalError text follows "line N: <op>: " (see
    # _compile_arith), so it does not repeat the operator's name.
    def fold(op: Callable[[int, int], int], unit: int):
        def call(*args: int) -> int:
            if not args:
                return unit
            result = args[0]
            for value in args[1:]:
                result = op(result, value)
            return result

        return call

    _ARITH["+"] = fold(lambda a, b: a + b, 0)
    _ARITH["*"] = fold(lambda a, b: a * b, 1)

    def minus(*args: int) -> int:
        if not args:
            raise EvalError("needs at least one argument")
        if len(args) == 1:
            return -args[0]
        result = args[0]
        for value in args[1:]:
            result -= value
        return result

    _ARITH["-"] = minus

    def divide(*args: int) -> int:
        if len(args) != 2:
            raise EvalError("needs exactly two arguments")
        if args[1] == 0:
            raise EvalError("division by zero")
        quotient = abs(args[0]) // abs(args[1])
        return quotient if (args[0] >= 0) == (args[1] >= 0) else -quotient

    _ARITH["//"] = divide
    _ARITH["/"] = divide

    def mod(*args: int) -> int:
        if len(args) != 2:
            raise EvalError("needs exactly two arguments")
        if args[1] == 0:
            raise EvalError("mod by zero")
        return args[0] % args[1] if args[1] > 0 else -((-args[0]) % (-args[1]))

    _ARITH["mod"] = mod

    def compare(op: Callable[[Any, Any], bool]):
        def call(*args: Any) -> bool:
            if len(args) < 2:
                raise EvalError("needs at least two arguments")
            for left, right in zip(args, args[1:]):
                if not op(left, right):
                    return False
            return True

        return call

    _ARITH["="] = compare(lambda a, b: a == b)
    _ARITH["/="] = compare(lambda a, b: a != b)
    _ARITH[">"] = compare(lambda a, b: a > b)
    _ARITH["<"] = compare(lambda a, b: a < b)
    _ARITH[">="] = compare(lambda a, b: a >= b)
    _ARITH["<="] = compare(lambda a, b: a <= b)
    _ARITH["min"] = lambda *args: min(args)
    _ARITH["max"] = lambda *args: max(args)

    def unary(function: Callable[[Any], Any]):
        def call(*args: Any) -> Any:
            if len(args) != 1:
                raise EvalError("needs exactly one argument")
            return function(args[0])

        return call

    _ARITH["abs"] = unary(abs)
    _ARITH["not"] = unary(lambda value: not _truthy(value))


_register_arith()

def _register_table_builtins(builtins: Dict[str, Callable[..., Any]]) -> None:
    """Encoding-table accessors (1-based indices, matching `do` loops).

    Tables are any objects with the :class:`repro.pla.TruthTable`
    protocol, bound into the global environment from Python or the
    parameter layer.
    """

    def table_terms(table) -> int:
        return table.num_terms

    def table_inputs(table) -> int:
        return table.num_inputs

    def table_outputs(table) -> int:
        return table.num_outputs

    def table_literal(table, term: int, column: int) -> int:
        """1 for a true literal, 0 for complemented, -1 for absent."""
        literal = table.and_plane[term - 1][column - 1]
        return {"1": 1, "0": 0, "-": -1}[literal]

    def table_output(table, term: int, column: int) -> int:
        return 1 if table.or_plane[term - 1][column - 1] == "1" else 0

    builtins["table_terms"] = table_terms
    builtins["table_inputs"] = table_inputs
    builtins["table_outputs"] = table_outputs
    builtins["table_literal"] = table_literal
    builtins["table_output"] = table_output


# ----------------------------------------------------------------------
# Compilation: every statement becomes a closure ``code(interpreter, env)``
# ----------------------------------------------------------------------
Code = Callable[["Interpreter", Environment], Any]


def _constant(value: Any) -> Code:
    return lambda interpreter, env: value


def _raiser(message: str) -> Code:
    """A statement that raises ``EvalError(message)`` when it runs."""

    def fail(interpreter: "Interpreter", env: Environment) -> Any:
        raise EvalError(message)

    return fail


def _compile(statement: Statement) -> Code:
    if isinstance(statement, int) or isinstance(statement, str):
        return _constant(statement)
    if isinstance(statement, Symbol):
        return _compile_variable(statement.name)
    if isinstance(statement, IndexedVar):
        return _compile_indexed_variable(statement)
    if isinstance(statement, Form):
        return _compile_form(statement)
    return _raiser(f"cannot evaluate {statement!r}")


def _compile_body(statements: Sequence[Statement]) -> Tuple[Code, ...]:
    return tuple(_compile(statement) for statement in statements)


def _read(env: Environment, key: Any) -> Any:
    """Read ``key`` in ``env``, probing the frame and then the globals.

    Only what those dictionaries cannot answer goes through
    :meth:`Environment.lookup`: an alias, which re-enters Figure 4.1's
    chain at this frame one step deep (so the 32-step bound counts from
    here), and a key bound in neither (a cell name, or unbound).
    """
    bindings = env.bindings
    if key in bindings:
        value = bindings[key]
    else:
        bindings = env.globals.bindings
        if key not in bindings:
            return env.lookup(key)
        value = bindings[key]
    if isinstance(value, Alias):
        return env.lookup(value.name, 1)
    return value


def _compile_variable(name: str) -> Code:
    """A variable read: :func:`_read` with the name fixed, its body
    inlined (this is the most frequent closure of a design file)."""

    def read(interpreter: "Interpreter", env: Environment) -> Any:
        bindings = env.bindings
        if name in bindings:
            value = bindings[name]
        else:
            bindings = env.globals.bindings
            if name not in bindings:
                return env.lookup(name)
            value = bindings[name]
        if isinstance(value, Alias):
            return env.lookup(value.name, 1)
        return value

    return read


def _compile_indexed_variable(var: IndexedVar) -> Code:
    """An indexed-variable read: its key, then :func:`_read`."""
    key = _compile_index_key(var)
    return lambda interpreter, env: _read(env, key(interpreter, env))


def _compile_index_key(var: IndexedVar) -> Code:
    """The binding key ``(base, (i,))`` or ``(base, (i, j))`` of ``var``."""
    base, line = var.base, var.line
    indices = _compile_body(var.indices)

    def bad_index(value: Any) -> EvalError:
        return EvalError(
            f"line {line}: index of {base!r} must be an integer, got {value!r}"
        )

    if len(indices) == 1:
        (index,) = indices

        def key1(interpreter: "Interpreter", env: Environment) -> Any:
            value = index(interpreter, env)
            if not isinstance(value, int):
                raise bad_index(value)
            return (base, (value,))

        return key1

    def key(interpreter: "Interpreter", env: Environment) -> Any:
        values = []
        for index in indices:
            value = index(interpreter, env)
            if not isinstance(value, int):
                raise bad_index(value)
            values.append(value)
        return (base, tuple(values))

    return key


def _compile_target(target: Statement) -> Code:
    """The binding key an assignment or ``mk_instance`` writes."""
    if isinstance(target, Symbol):
        return _constant(target.name)
    if isinstance(target, IndexedVar):
        return _compile_index_key(target)
    return _raiser("assignment target must be a variable")


def _compile_form(form: Form) -> Code:
    if len(form) == 0:
        return _constant(None)
    head = form[0]
    if not isinstance(head, Symbol):
        return _raiser(f"line {form.line}: form head must be a name")
    name = head.name
    special = _SPECIAL_FORMS.get(name)
    if special is not None:
        return special(form)
    arguments = _compile_body(form.items[1:])
    if name in _ARITH:
        return _compile_arith(name, arguments, form.line)
    return _compile_call(name, arguments, form.line)


#: two-operand arithmetic, as ``operator`` functions (``-`` is the
#: n-ary fold's ``-=``, whose type error names that operator)
_BINARY: Dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.isub,
    "*": operator.mul,
}
#: two-operand comparisons (their results are made True/False)
_COMPARISONS: Dict[str, Callable[[Any, Any], Any]] = {
    "=": operator.eq,
    "/=": operator.ne,
    ">": operator.gt,
    "<": operator.lt,
    ">=": operator.ge,
    "<=": operator.le,
}


def _arith_error(name: str, line: int, exc: Exception) -> EvalError:
    """A primitive's failure as the design file's error: ``line N: op: ...``."""
    return EvalError(f"line {line}: {name}: {exc}")


def _compile_arith(name: str, arguments: Tuple[Code, ...], line: int) -> Code:
    # Two operands (loop steps and tests) call the operator directly.
    # The operands run outside the ``try``: an error of theirs is not
    # this operator's.
    if len(arguments) == 2:
        left, right = arguments
        if name in _BINARY:
            binary = _BINARY[name]

            def binary_call(interpreter: "Interpreter", env: Environment) -> Any:
                a = left(interpreter, env)
                b = right(interpreter, env)
                try:
                    return binary(a, b)
                except Exception as exc:
                    raise _arith_error(name, line, exc) from exc

            return binary_call
        if name in _COMPARISONS:
            compare = _COMPARISONS[name]

            def compare_call(interpreter: "Interpreter", env: Environment) -> bool:
                a = left(interpreter, env)
                b = right(interpreter, env)
                try:
                    return True if compare(a, b) else False
                except Exception as exc:
                    raise _arith_error(name, line, exc) from exc

            return compare_call
    function = _ARITH[name]

    def call(interpreter: "Interpreter", env: Environment) -> Any:
        values = [argument(interpreter, env) for argument in arguments]
        try:
            return function(*values)
        except Exception as exc:
            raise _arith_error(name, line, exc) from exc

    return call


def _compile_call(name: str, arguments: Tuple[Code, ...], line: int) -> Code:
    """A builtin or procedure call; the callee is looked up when it runs."""

    def call(interpreter: "Interpreter", env: Environment) -> Any:
        builtins = interpreter.builtins
        if name in builtins:
            values = [argument(interpreter, env) for argument in arguments]
            try:
                return builtins[name](*values)
            except EvalError:
                raise
            except Exception as exc:
                raise EvalError(f"line {line}: {name}: {exc}") from exc
        procedures = interpreter.procedures
        if name in procedures:
            values = [argument(interpreter, env) for argument in arguments]
            # fetched after the arguments ran: one of them may redefine it
            return interpreter._apply(procedures[name], values)
        raise EvalError(f"line {line}: unknown procedure {name!r}")

    return call


# ----------------------------------------------------------------------
# Special forms: definitions
# ----------------------------------------------------------------------
def _procedure(form: Form, is_macro: bool) -> Procedure:
    keyword = "macro" if is_macro else "defun"
    if len(form) < 3:
        raise EvalError(f"line {form.line}: malformed {keyword}")
    name_node = form[1]
    if not isinstance(name_node, Symbol):
        raise EvalError(f"line {form.line}: {keyword} name must be a symbol")
    name = name_node.name
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
    formals_node = form[2]
    if not isinstance(formals_node, Form):
        raise EvalError(f"line {form.line}: {keyword} needs a formals list")
    formals = [_formal_name(item, form) for item in formals_node]
    body = list(form.items[3:])
    locals_: List[str] = []
    if body and isinstance(body[0], Form) and len(body[0]) >= 1:
        first = body[0]
        if isinstance(first[0], Symbol) and first[0].name in ("locals", "local"):
            locals_ = [_formal_name(item, form) for item in first.items[1:]]
            body = body[1:]
    return Procedure(name, formals, locals_, body, is_macro)


def _formal_name(item: Statement, form: Form) -> str:
    if not isinstance(item, Symbol):
        raise EvalError(f"line {form.line}: formal/local must be a symbol")
    return item.name


def _compile_definition(form: Form, is_macro: bool) -> Code:
    """``defun``/``macro``: the procedure is built once, bound per run."""
    try:
        procedure = _procedure(form, is_macro)
    except EvalError as error:
        return _raiser(str(error))

    def define(interpreter: "Interpreter", env: Environment) -> None:
        interpreter.procedures[procedure.name] = procedure

    return define


# ----------------------------------------------------------------------
# Special forms: control
# ----------------------------------------------------------------------
def _compile_cond(form: Form) -> Code:
    clauses = []
    malformed = None
    for clause in form.items[1:]:
        if not isinstance(clause, Form) or len(clause) < 1:
            # Clauses after a malformed one are unreachable.
            malformed = f"line {form.line}: malformed cond clause"
            break
        clauses.append((_compile(clause[0]), _compile_body(clause.items[1:])))

    def cond(interpreter: "Interpreter", env: Environment) -> Any:
        for test, body in clauses:
            value = test(interpreter, env)
            if value is not None and value is not False:
                result = None
                for code in body:
                    result = code(interpreter, env)
                return result
        if malformed is not None:
            raise EvalError(malformed)
        return None

    return cond


def _compile_do(form: Form) -> Code:
    if len(form) < 2 or not isinstance(form[1], Form) or len(form[1]) != 4:
        return _raiser(f"line {form.line}: do needs (var initial next exit) header")
    variable = form[1][0]
    if not isinstance(variable, Symbol):
        return _raiser(f"line {form.line}: do variable must be a symbol")
    name = variable.name
    initial, step, finished = _compile_body(form[1].items[1:])
    body = _compile_body(form.items[2:])
    runaway = f"line {form.line}: runaway do loop"

    def loop(interpreter: "Interpreter", env: Environment) -> Any:
        bindings = env.bindings
        bindings[name] = initial(interpreter, env)
        result: Any = None
        iterations = 0
        done = finished(interpreter, env)
        while done is None or done is False:
            for code in body:
                result = code(interpreter, env)
            bindings[name] = step(interpreter, env)
            iterations += 1
            if iterations > 10_000_000:
                raise EvalError(runaway)
            done = finished(interpreter, env)
        return result

    return loop


def _compile_prog(form: Form) -> Code:
    body = _compile_body(form.items[1:])

    def prog(interpreter: "Interpreter", env: Environment) -> Any:
        result: Any = None
        for code in body:
            result = code(interpreter, env)
        return result

    return prog


def _compile_and(form: Form) -> Code:
    operands = _compile_body(form.items[1:])

    def conjunction(interpreter: "Interpreter", env: Environment) -> Any:
        value: Any = True
        for operand in operands:
            value = operand(interpreter, env)
            if value is None or value is False:
                return False
        return value

    return conjunction


def _compile_or(form: Form) -> Code:
    operands = _compile_body(form.items[1:])

    def disjunction(interpreter: "Interpreter", env: Environment) -> Any:
        for operand in operands:
            value = operand(interpreter, env)
            if value is not None and value is not False:
                return value
        return False

    return disjunction


def _compile_quote(form: Form) -> Code:
    if len(form) != 2:
        return _raiser(f"line {form.line}: quote needs one argument")
    item = form[1]
    return _constant(item.name if isinstance(item, Symbol) else item)


# ----------------------------------------------------------------------
# Special forms: assignment and environment access
# ----------------------------------------------------------------------
def _compile_assign(form: Form) -> Code:
    if len(form) != 3:
        return _raiser(f"line {form.line}: assign needs target and value")
    target, value = _compile_target(form[1]), _compile(form[2])

    def assign(interpreter: "Interpreter", env: Environment) -> Any:
        result = value(interpreter, env)
        env.bindings[target(interpreter, env)] = result
        return result

    return assign


def _compile_subcell(form: Form) -> Code:
    line = form.line
    if len(form) != 3:
        return _raiser(f"line {line}: subcell needs env and variable")
    source = _compile(form[1])
    key_node = form[2]
    if isinstance(key_node, Symbol):
        key = _constant(key_node.name)
    elif isinstance(key_node, IndexedVar):
        # Index expressions evaluate in the *caller's* environment.
        key = _compile_index_key(key_node)
    else:
        key = _raiser(f"line {line}: subcell variable must be a name")

    def subcell(interpreter: "Interpreter", env: Environment) -> Any:
        target_env = source(interpreter, env)
        if not isinstance(target_env, Environment):
            raise EvalError(
                f"line {line}: subcell's first argument must be a macro"
                f" environment, got {type(target_env).__name__}"
            )
        name = key(interpreter, env)
        bindings = target_env.bindings
        if name in bindings:
            return bindings[name]
        return target_env.local(name)  # raises the unbound-variable error

    return subcell


# ----------------------------------------------------------------------
# Special forms: graph primitives (section 4.4)
# ----------------------------------------------------------------------
def _compile_mk_instance(form: Form) -> Code:
    line = form.line
    if len(form) != 3:
        return _raiser(f"line {line}: mk_instance needs variable and cell")
    target, cell = _compile_target(form[1]), _compile(form[2])

    def mk_instance(interpreter: "Interpreter", env: Environment) -> Node:
        node = interpreter.rsg.mk_instance(
            interpreter._resolve_cell(cell(interpreter, env), line)
        )
        env.bindings[target(interpreter, env)] = node
        return node

    return mk_instance


def _compile_connect(form: Form) -> Code:
    line = form.line
    if len(form) != 4:
        return _raiser(
            f"line {line}: connect needs two nodes and an interface number"
        )
    source, target, index = _compile_body(form.items[1:])

    def connect(interpreter: "Interpreter", env: Environment) -> Node:
        source_node = source(interpreter, env)
        target_node = target(interpreter, env)
        number = index(interpreter, env)
        if not isinstance(source_node, Node) or not isinstance(target_node, Node):
            raise EvalError(f"line {line}: connect arguments must be instances")
        if not isinstance(number, int):
            raise EvalError(f"line {line}: interface number must be an integer")
        return interpreter.rsg.connect(source_node, target_node, number)

    return connect


def _compile_mk_cell(form: Form) -> Code:
    line = form.line
    if len(form) != 3:
        return _raiser(f"line {line}: mk_cell needs a name and a node")
    name, root = _compile(form[1]), _compile(form[2])

    def mk_cell(interpreter: "Interpreter", env: Environment) -> CellDefinition:
        cell_name = name(interpreter, env)
        if not isinstance(cell_name, str):
            raise EvalError(f"line {line}: cell name must be a string")
        root_node = root(interpreter, env)
        if not isinstance(root_node, Node):
            raise EvalError(f"line {line}: mk_cell root must be an instance")
        return interpreter.rsg.mk_cell(cell_name, root_node)

    return mk_cell


def _compile_declare_interface(form: Form) -> Code:
    line = form.line
    if len(form) != 7:
        return _raiser(
            f"line {line}: declare_interface needs"
            " cellC cellD newindex instA instB existingindex"
        )
    cell_c, cell_d, new_index, inst_a, inst_b, existing_index = _compile_body(
        form.items[1:]
    )

    def declare_interface(interpreter: "Interpreter", env: Environment) -> Any:
        resolve = interpreter._resolve_cell
        c = resolve(cell_c(interpreter, env), line)
        d = resolve(cell_d(interpreter, env), line)
        new = new_index(interpreter, env)
        a = inst_a(interpreter, env)
        b = inst_b(interpreter, env)
        existing = existing_index(interpreter, env)
        if not isinstance(new, int) or not isinstance(existing, int):
            raise EvalError(f"line {line}: interface numbers must be integers")
        if not isinstance(a, (Node, Instance)) or not isinstance(b, (Node, Instance)):
            raise EvalError(
                f"line {line}: declare_interface subcells must be instances"
            )
        return interpreter.rsg.declare_interface(c, d, new, a, b, existing)

    return declare_interface


# ----------------------------------------------------------------------
# Special forms: I/O
# ----------------------------------------------------------------------
def _compile_print(form: Form) -> Code:
    operands = _compile_body(form.items[1:])

    def show(interpreter: "Interpreter", env: Environment) -> Any:
        value: Any = None
        for operand in operands:
            value = operand(interpreter, env)
            interpreter.output.append(value)
        return value

    return show


def _compile_read(form: Form) -> Code:
    empty = f"line {form.line}: read with empty input queue"

    def read(interpreter: "Interpreter", env: Environment) -> Any:
        if not interpreter.input_queue:
            raise EvalError(empty)
        return interpreter.input_queue.pop(0)

    return read


#: special-form name -> compiler (the legacy Appendix B spellings
#: ``mkinstance``/``mkcell``/``declareinterface`` included)
_SPECIAL_FORMS: Dict[str, Callable[[Form], Code]] = {
    "defun": lambda form: _compile_definition(form, is_macro=False),
    "macro": lambda form: _compile_definition(form, is_macro=True),
    "cond": _compile_cond,
    "do": _compile_do,
    "assign": _compile_assign,
    "setq": _compile_assign,
    "prog": _compile_prog,
    "and": _compile_and,
    "or": _compile_or,
    "subcell": _compile_subcell,
    "mk_instance": _compile_mk_instance,
    "mkinstance": _compile_mk_instance,
    "connect": _compile_connect,
    "mk_cell": _compile_mk_cell,
    "mkcell": _compile_mk_cell,
    "declare_interface": _compile_declare_interface,
    "declareinterface": _compile_declare_interface,
    "print": _compile_print,
    "read": _compile_read,
    "quote": _compile_quote,
}


@functools.lru_cache(maxsize=32)
def _compile_program(text: str) -> Tuple[Code, ...]:
    """Parse and compile design-file text, once per distinct text.

    The ``lang.compile`` span is opened only here, so it appears in a
    trace only when the cache missed.
    """
    with obs_trace.span("lang.compile"):
        return _compile_body(parse_program(text))


class Interpreter:
    """Evaluator for design files, bound to an RSG workspace."""

    def __init__(self, rsg: Optional[Rsg] = None, max_depth: int = 120) -> None:
        self.rsg = rsg if rsg is not None else Rsg()
        self.globals = GlobalEnvironment(cell_table=self.rsg.cells)
        self.procedures: Dict[str, Procedure] = {}
        self.output: List[Any] = []
        self.input_queue: List[Any] = []
        self.max_depth = max_depth
        self._depth = 0
        self.globals.bind("true", True)
        self.globals.bind("false", False)
        self.globals.bind("nil", None)
        #: extra primitive functions, e.g. the encoding-table accessors
        #: ("primitives for manipulating encoding tables (such as PLA
        #: truth tables) have also been added", section 4).
        self.builtins: Dict[str, Callable[..., Any]] = {}
        _register_table_builtins(self.builtins)

    def register_builtin(self, name: str, function: Callable[..., Any]) -> None:
        """Add a primitive function callable from design files.

        The name must not collide with special forms or arithmetic
        primitives, and must not start with ``m`` (so call sites remain
        classifiable, section 4.2).
        """
        if name in _SPECIAL_FORMS or name in _ARITH:
            raise EvalError(f"{name!r} is already a primitive")
        if name.startswith("m"):
            raise EvalError("builtin names may not begin with 'm'")
        self.builtins[name] = function

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def run(self, text: str) -> Any:
        """Execute design-file text; return the value of its last statement.

        The text is compiled once per process (the compiled program is
        cached by text) and runs in a fresh top-level frame of this
        interpreter's global environment, inside a ``lang.eval`` span.
        """
        program = _compile_program(text)
        frame = Environment(self.globals, "__toplevel__")
        result: Any = None
        with obs_trace.span("lang.eval"):
            for code in program:
                result = code(self, frame)
        return result

    def set_parameter(self, name: str, value: Any) -> None:
        """Bind a parameter-file value in the global environment."""
        self.globals.bind(name, value)

    def set_parameters(self, bindings: Dict[str, Any]) -> None:
        """Bind each ``name -> value`` of a parameter file as a global."""
        for name, value in bindings.items():
            self.set_parameter(name, value)

    def call(self, name: str, *args: Any) -> Any:
        """Invoke a defined procedure from Python."""
        procedure = self.procedures.get(name)
        if procedure is None:
            raise EvalError(f"no procedure named {name!r}")
        return self._apply(procedure, list(args))

    # ------------------------------------------------------------------
    # Run-time support for compiled code
    # ------------------------------------------------------------------
    def _apply(self, procedure: Procedure, args: List[Any]) -> Any:
        if len(args) != len(procedure.formals):
            raise EvalError(
                f"{procedure.name} expects {len(procedure.formals)}"
                f" argument(s), got {len(args)}"
            )
        if self._depth >= self.max_depth:
            raise EvalError(f"recursion depth exceeded in {procedure.name}")
        frame = Environment(self.globals, procedure.name)
        bindings = frame.bindings
        for formal, value in zip(procedure.formals, args):
            bindings[formal] = value
        for local in procedure.locals:
            bindings[local] = None
        self._depth += 1
        result: Any = None
        try:
            for code in procedure.code:
                result = code(self, frame)
        finally:
            self._depth -= 1
        return frame if procedure.is_macro else result

    def _resolve_cell(self, value: Any, line: int) -> CellDefinition:
        if isinstance(value, CellDefinition):
            return value
        if isinstance(value, str):
            try:
                return self.rsg.cells.lookup(value)
            except UnknownCellError as exc:
                raise EvalError(f"line {line}: {exc}") from None
        raise EvalError(
            f"line {line}: expected a cell, got {type(value).__name__}"
        )
