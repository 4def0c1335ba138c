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

A design text is translated to Python source and compiled once per
process (:func:`_compile_program`, cached by text): one function per
``defun``/``macro`` body and one for the program, each
``code(interpreter, frame)``.  The compiled program holds no per-run
state, so one program serves every interpreter that runs that text.

What the generated code fixes at compile time: ``cond``/``do``/``prog``/
``and``/``or`` are Python control flow; a two-operand ``+ - *`` or
comparison calls a helper that computes ints directly and hands
anything else to the primitive (its value and its error text), and on
the variables of counting ``do`` loops it is the Python operator
itself; ``mk_instance``/``connect`` call the workspace through one
checking helper each.  What stays a run-time lookup, because a run can
change it: every binding and the callee (a builtin before a procedure).
A read of a name certainly bound in the frame and never to an alias (a
formal, a local, an assigned variable: :func:`_frame_facts`) is the
frame's dictionary entry; any other read is :meth:`Environment.lookup`,
which chases aliases into the globals and the cell table.  A call that
passes an alias runs a second body, generated when first needed, that
reads the formals the long way.  Frames stay dictionaries: macros return
them, ``subcell`` reads them by name, and indexed keys are run-time
values, so there is no fixed slot layout to compile to.

Two rules keep the translation safe for design texts a remote client
sends.  *Literals only*: a name or string of the design text enters the
Python source only as the ``repr`` of a ``str`` or ``int`` (binding keys,
messages), and other quoted values only as an index into the program's
constant table, never as an identifier or raw text; the generated
functions see only the helpers below and a handful of builtins.
*Bounded nesting*: a block form that would start deeper than
``_MAX_BLOCKS`` levels moves into a function of its own, and a form more
than ``_MAX_NESTING`` operands deep is computed into a temporary first,
so no design text, however deep, reaches CPython's limits on nested
blocks, indentation or parentheses.  Every arity or type error is raised
when the malformed statement runs (a malformed form in a branch never
taken is never an error), with the text the tree-walking oracle
(``tests/oracles/lang.py``) raises.
"""

from __future__ import annotations

import functools
import operator
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

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

    __slots__ = ("name", "formals", "locals", "body", "is_macro", "code", "aliased")

    def __init__(
        self,
        name: str,
        formals: List[str],
        locals_: List[str],
        body: List[Statement],
        is_macro: bool,
        code: Optional[Callable[["Interpreter", Environment], Any]] = None,
    ) -> None:
        self.name = name
        self.formals = formals
        self.locals = locals_
        self.body = body
        self.is_macro = is_macro
        #: the body's generated function ``code(interpreter, frame)``,
        #: set when the program defining it compiles; it reads the
        #: formals as plain values
        self.code = code
        #: the body generated for a call that passes an alias, whose
        #: formals' reads chase it (made when first needed)
        self.aliased: Optional[Callable[["Interpreter", Environment], Any]] = None

    def __repr__(self) -> str:
        kind = "macro" if self.is_macro else "defun"
        return f"Procedure({kind} {self.name} ({' '.join(self.formals)}))"


def _truthy(value: Any) -> bool:
    """Lisp truth: nil (None) and false are false; everything else true."""
    return value is not None and value is not False


_ARITH: Dict[str, Callable[..., Any]] = {}


def _register_arith() -> None:
    # A primitive's EvalError text follows "line N: <op>: " (see
    # _primitive), so it does not repeat the operator's name.
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
# Run-time support: the only names generated code calls
# ----------------------------------------------------------------------
def _raiser(message: str) -> Any:
    """Raise ``EvalError(message)``: a malformed form, when it runs."""
    raise EvalError(message)


def _index(value: Any, base: str, line: int) -> int:
    """An evaluated index of the indexed variable ``base``."""
    if isinstance(value, int):
        return value
    raise EvalError(f"line {line}: index of {base!r} must be an integer, got {value!r}")


def _arith_error(name: str, line: int, exc: Exception) -> EvalError:
    """A primitive's failure as the design file's error: ``line N: op: ...``."""
    return EvalError(f"line {line}: {name}: {exc}")


def _primitive(name: str, line: int, *values: Any) -> Any:
    """Apply an arithmetic primitive to evaluated operands.

    The operands ran before this call: an error of theirs is not this
    operator's.
    """
    try:
        return _ARITH[name](*values)
    except Exception as exc:
        raise _arith_error(name, line, exc) from exc


def _infix(name: str, on_ints: Callable[[int, int], Any]) -> Callable[[Any, Any, int], Any]:
    """A two-operand primitive: ``on_ints`` when both operands are
    ints, else :func:`_primitive` (its result and its error text)."""

    def apply(left: Any, right: Any, line: int) -> Any:
        if type(left) is int is type(right):
            return on_ints(left, right)
        return _primitive(name, line, left, right)

    return apply


def _callee(interpreter: "Interpreter", name: str, line: int) -> bool:
    """Classify a call site before its arguments run: True for a
    builtin, False for a procedure; an unknown name is an error."""
    if name in interpreter.builtins:
        return True
    if name in interpreter.procedures:
        return False
    raise EvalError(f"line {line}: unknown procedure {name!r}")


def _call(
    interpreter: "Interpreter", name: str, line: int, builtin: Optional[bool], *values: Any
) -> Any:
    """Call the builtin or procedure ``name`` on evaluated arguments.

    ``builtin`` is :func:`_callee`'s answer, or None when the arguments
    can neither fail nor change anything, so that they may run before
    the call site is classified here.  The procedure is fetched after
    the arguments ran: one of them may redefine it.
    """
    if builtin is None:
        builtin = name in interpreter.builtins
        if not builtin and name not in interpreter.procedures:
            raise EvalError(f"line {line}: unknown procedure {name!r}")
    if builtin:
        try:
            return interpreter.builtins[name](*values)
        except EvalError:
            raise
        except Exception as exc:
            raise EvalError(f"line {line}: {name}: {exc}") from exc
    return interpreter._apply(interpreter.procedures[name], values)


def _mk_instance(interpreter: "Interpreter", cell: Any, line: int) -> Node:
    """``mk_instance`` of an evaluated cell (a definition or its name)."""
    if not isinstance(cell, CellDefinition):
        cell = interpreter._resolve_cell(cell, line)
    return interpreter.rsg.mk_instance(cell)


def _bind_instance(
    interpreter: "Interpreter", bindings: Dict[Any, Any], name: str, cell: Any, line: int
) -> Node:
    """``mk_instance`` into a plain variable: the node, bound and returned."""
    if not isinstance(cell, CellDefinition):
        cell = interpreter._resolve_cell(cell, line)
    node = bindings[name] = interpreter.rsg.mk_instance(cell)
    return node


def _connect(
    interpreter: "Interpreter", source: Any, target: Any, number: Any, line: int
) -> Node:
    """``connect``: check the evaluated operands, then join the nodes."""
    if not isinstance(source, Node) or not isinstance(target, Node):
        raise EvalError(f"line {line}: connect arguments must be instances")
    if not isinstance(number, int):
        raise EvalError(f"line {line}: interface number must be an integer")
    return interpreter.rsg.connect(source, target, number)


def _frame(value: Any, line: int) -> Environment:
    """``subcell``'s first operand, checked (before an indexed key is
    evaluated: ``SC(F(env, line), key, line)``)."""
    if not isinstance(value, Environment):
        raise EvalError(
            f"line {line}: subcell's first argument must be a macro"
            f" environment, got {type(value).__name__}"
        )
    return value


def _subcell(env: Any, key: Any, line: int) -> Any:
    """Read ``key`` out of a macro's returned environment."""
    if not isinstance(env, Environment):
        _frame(env, line)
    bindings = env.bindings
    if key in bindings:
        return bindings[key]
    return env.local(key)  # raises the unbound-variable error


def _declare_interface(
    interpreter: "Interpreter",
    cell_c: CellDefinition,
    cell_d: CellDefinition,
    new: Any,
    inst_a: Any,
    inst_b: Any,
    existing: Any,
    line: int,
) -> Any:
    """``declare_interface`` on evaluated (and resolved) operands."""
    if not isinstance(new, int) or not isinstance(existing, int):
        raise EvalError(f"line {line}: interface numbers must be integers")
    if not isinstance(inst_a, (Node, Instance)) or not isinstance(inst_b, (Node, Instance)):
        raise EvalError(f"line {line}: declare_interface subcells must be instances")
    return interpreter.rsg.declare_interface(
        cell_c, cell_d, new, inst_a, inst_b, existing
    )


#: two-operand primitives: the generated code's name for each, and the
#: Python operator it is on two ints
_INFIX: Dict[str, Tuple[str, str]] = {
    "+": ("ADD", "+"), "-": ("SUB", "-"), "*": ("MUL", "*"),
    "=": ("EQ", "=="), "/=": ("NE", "!="), ">": ("GT", ">"), "<": ("LT", "<"),
    ">=": ("GE", ">="), "<=": ("LE", "<="),
}
#: the global namespace of every generated function: the helpers above
#: under short names, and only the builtins the generated code uses
_NAMESPACE: Dict[str, Any] = {
    "__builtins__": {"isinstance": isinstance, "str": str},
    "Node": Node,
    "X": _index,
    "P": _primitive,
    "CK": _callee,
    "CA": _call,
    "MI": _mk_instance,
    "MK": _bind_instance,
    "CN": _connect,
    "F": _frame,
    "SC": _subcell,
    "DI": _declare_interface,
    "RZ": _raiser,
    "LOOP": range(10_000_001),
    "ADD": _infix("+", operator.add),
    "SUB": _infix("-", operator.sub),
    "MUL": _infix("*", operator.mul),
    "EQ": _infix("=", operator.eq),
    "NE": _infix("/=", operator.ne),
    "GT": _infix(">", operator.gt),
    "LT": _infix("<", operator.lt),
    "GE": _infix(">=", operator.ge),
    "LE": _infix("<=", operator.le),
}
#: primitives whose value is always True or False
_BOOLEAN = frozenset(("=", "/=", ">", "<", ">=", "<=", "not"))
#: a block form starting at this indentation moves into its own function
_MAX_BLOCKS = 8
#: a form this many operands deep is computed into a temporary first
_MAX_NESTING = 8


# ----------------------------------------------------------------------
# Code generation: every design text becomes a few Python functions
# ----------------------------------------------------------------------
class _Program:
    """The Python source of one design text, and its constant table."""

    def __init__(self) -> None:
        self.functions: List[str] = []
        #: objects the source names as ``K[i]`` (procedures, quoted forms)
        self.constants: List[Any] = []
        #: (procedure, name of its body's function)
        self.procedures: List[Tuple[Procedure, str]] = []
        self.names = 0

    def constant(self, value: Any) -> str:
        self.constants.append(value)
        return f"K[{len(self.constants) - 1}]"

    def function(
        self, parameters: str, known: Set[str], facts: "_Facts",
        ints: Optional[Set[str]] = None,
    ) -> "_Function":
        """A new function ``f<n>(parameters)``; :meth:`_Function.finish`
        adds its source."""
        self.names += 1
        return _Function(self, f"f{self.names}", parameters, known, facts, ints)

    def body(self, procedure: Procedure, aliased: bool) -> str:
        """Generate ``procedure``'s body as ``f<n>(I,E)``; with
        ``aliased``, its formals may be bound to aliases."""
        formals, locals_ = procedure.formals, procedure.locals
        initial = locals_ if aliased else locals_ + formals
        fn = self.function(
            "I,E", set(formals) | set(locals_), _frame_facts(procedure.body, initial)
        )
        fn.emit("B=E.bindings")
        # A macro's value is its frame: its statements' values are not used.
        return fn.finish(fn.block(procedure.body, not procedure.is_macro))

    def compile(self, entry: str) -> Callable[["Interpreter", Environment], Any]:
        namespace = dict(_NAMESPACE, K=tuple(self.constants))
        exec(compile("\n".join(self.functions), "<design file>", "exec"), namespace)
        for procedure, name in self.procedures:
            procedure.code = namespace[name]
        return namespace[entry]


class _Function:
    """One generated function: its lines, indentation and temporaries.

    ``known`` holds the names certainly bound in the frame where the
    next statement runs (formals, locals, loop variables, assigned
    names) and ``ints`` the loop variables certainly bound to an int;
    ``facts`` what the frame's statements do to it (:func:`_frame_facts`),
    shared by every function of one frame.  A read of a name in ``ints``,
    or known and plain, is ``B[name]``; any other goes through
    :meth:`Environment.lookup`.
    """

    def __init__(
        self, program: _Program, name: str, parameters: str,
        known: Set[str], facts: "_Facts", ints: Optional[Set[str]] = None,
    ) -> None:
        self.program = program
        self.name = name
        self.lines = [f"def {name}({parameters}):"]
        self.indent = 1
        self.temps = 0
        self.nesting = 0
        self.known = known
        self.facts = facts
        self.plain = facts.plain
        self.ints: Set[str] = ints or set()
        #: expressions that evaluate to the same value wherever they are
        #: evaluated: literals and temporaries
        self.stable: Set[str] = {"None", "True"}
        #: whether the function reads through ``L``, its frame's lookup
        self.lookups = False

    def emit(self, line: str) -> None:
        self.lines.append(" " * self.indent + line)

    def temp(self) -> str:
        name = f"t{self.temps}"
        self.temps += 1
        self.stable.add(name)
        return name

    def literal(self, value: Any) -> str:
        text = repr(value)
        self.stable.add(text)
        return text

    def spill(self, expr: str) -> str:
        if expr in self.stable:
            return expr
        name = self.temp()
        self.emit(f"{name}={expr}")
        return name

    def finish(self, result: Optional[str]) -> str:
        if result is not None and result != "None":
            self.emit(f"return {result}")
        elif len(self.lines) == 1:
            self.emit("pass")
        if self.lookups:
            self.lines.insert(1, " L=E.lookup")
        self.program.functions.append("\n".join(self.lines))
        return self.name

    def safe(self, node: Statement) -> bool:
        """Whether evaluating ``node`` can neither fail nor change anything."""
        return isinstance(node, (int, str)) or (
            isinstance(node, Symbol) and (
                node.name in self.ints or node.name in self.known and node.name in self.plain
            )
        )

    def integral(self, node: Statement) -> bool:
        """Whether ``node`` certainly evaluates to an int (and cannot fail)."""
        if isinstance(node, Symbol):
            return node.name in self.ints
        if isinstance(node, Form):
            items = node.items
            return (
                len(items) == 3 and _head_of(items) in ("+", "-", "*")
                and self.integral(items[1]) and self.integral(items[2])
            )
        return isinstance(node, int)

    # -- expressions -------------------------------------------------------
    def value(self, node: Statement, want: bool = True) -> Optional[str]:
        """A Python expression for ``node``'s value; statements it needs
        first are emitted before it.  Without ``want`` the value is not
        used, and a form may emit all of itself and return None."""
        if type(node) is not Form:
            if isinstance(node, (int, str)):
                return self.literal(node)
            if isinstance(node, Symbol):
                name = node.name
                if name in self.ints or name in self.known and name in self.plain:
                    return f"B[{name!r}]"
                self.lookups = True
                return f"L({name!r})"
            if isinstance(node, IndexedVar):
                self.lookups = True
                return f"L({_compile_index_key(self, node)})"
            return f"RZ({f'cannot evaluate {node!r}'!r})"
        items = node.items
        if not items:
            return "None"
        if not isinstance(items[0], Symbol):
            return f"RZ({f'line {node.line}: form head must be a name'!r})"
        name = items[0].name
        generate = _SPECIAL_FORMS.get(name) or (
            _compile_arith if name in _ARITH else _compile_call
        )
        nesting = self.nesting
        # A statement form starts new statements; a form too deep in
        # operands is computed into a temporary first.
        deep = nesting >= _MAX_NESTING
        if deep or name in _STATEMENT_FORMS:
            self.nesting = 0
        if name in _BLOCK_FORMS and self.indent >= _MAX_BLOCKS:
            # The nesting rule: the form gets a function of its own.
            inner = self.program.function("I,E,B", set(self.known), self.facts, set(self.ints))
            expr: Optional[str] = f"{inner.finish(generate(inner, node, want))}(I,E,B)"
        else:
            expr = generate(self, node, want)
        self.nesting = nesting
        if deep and expr is not None:
            expr = self.spill(expr)
        return expr

    def sequence(self, items: List[Any]) -> List[str]:
        """Expressions of ``items`` (statements, or callables that
        generate an expression), evaluated left to right.

        An item that emits statements runs them before the whole
        sequence is evaluated, so each earlier expression that is not
        stable is first saved in a temporary, ahead of those statements.
        """
        exprs: List[str] = []
        self.nesting += 1
        for item in items:
            mark = len(self.lines)
            expr = item() if callable(item) else self.value(item)
            if len(self.lines) > mark:
                saves = []
                for number, earlier in enumerate(exprs):
                    if earlier not in self.stable:
                        exprs[number] = name = self.temp()
                        saves.append(" " * self.indent + f"{name}={earlier}")
                self.lines[mark:mark] = saves
            exprs.append(expr)
        self.nesting -= 1
        return exprs

    def truth(self, node: Statement) -> str:
        """A Python condition: ``node`` is neither nil nor false."""
        if isinstance(node, Form) and _head(node) in _BOOLEAN:
            return self.value(node)
        if isinstance(node, (int, str)):
            return "True"
        return f"(v:={self.value(node)}) is not None and v is not False"

    def block(self, statements: List[Statement], want: bool) -> Optional[str]:
        """Emit a body; with ``want``, return its last statement's value."""
        nesting, self.nesting = self.nesting, 0
        result: Optional[str] = "None" if want else None
        last = len(statements) - 1
        for number, statement in enumerate(statements):
            if want and number == last:
                result = self.value(statement)
            elif not isinstance(statement, (int, str)):
                expr = self.value(statement, False)  # a read can raise
                if expr is not None and expr not in self.stable:
                    self.emit(expr)
        self.nesting = nesting
        return result


def _may_alias(node: Statement) -> bool:
    """Whether ``node``'s value may be an :class:`Alias` (conservative).

    A read resolves aliases, and literals, arithmetic on such values and
    the graph primitives yield none; a call, ``subcell`` or ``read``
    yields whatever the host or another frame holds.
    """
    name = _head(node) if isinstance(node, Form) else None
    if name is None:
        return False
    items = node.items
    if name in _SPECIAL_FORMS:
        if name in ("assign", "setq"):
            return len(items) == 3 and _may_alias(items[2])
        if name in ("prog", "and", "print"):
            return len(items) > 1 and _may_alias(items[-1])
        if name == "do":
            return len(items) > 2 and _may_alias(items[-1])
        if name == "cond":
            return any(
                _may_alias(clause.items[-1]) for clause in items[1:]
                if isinstance(clause, Form) and clause.items
            )
        if name == "or":
            return any(_may_alias(item) for item in items[1:])
        return name in ("subcell", "read", "declare_interface", "declareinterface")
    if name in _ARITH:
        return any(_may_alias(item) for item in items[1:])
    return True


class _Facts(NamedTuple):
    """What a frame's statements do to it (:func:`_frame_facts`)."""

    #: names never bound to an :class:`Alias`
    plain: Set[str]
    #: how many forms assign each name
    writes: Dict[str, int]


def _frame_facts(statements: List[Statement], initial: List[str]) -> _Facts:
    """The facts of a frame ``statements`` run in: of the names bound at
    entry (``initial``) and the names assigned, those every assignment
    of which :func:`_may_alias` clears are plain."""
    clear = dict.fromkeys(initial, True)
    writes: Dict[str, int] = {}
    for name, values in _assignments(statements):
        clear[name] = clear.get(name, True) and not any(map(_may_alias, values))
        writes[name] = writes.get(name, 0) + 1
    return _Facts({name for name, ok in clear.items() if ok}, writes)


def _assignments(statements: List[Statement]) -> List[Tuple[str, List[Statement]]]:
    """``(name, values)`` for each assignment in ``statements`` to a
    plain variable of their frame (``mk_instance`` assigns a node, no
    value statement).

    A frame is written only by its own statements: nested definitions
    have frames of their own, and quoted forms never run.
    """
    found: List[Tuple[str, List[Statement]]] = []
    pending = [node for node in statements if type(node) is Form]
    while pending:
        items = pending.pop().items
        head = _head_of(items)
        if head in _ASSIGNING:
            target, values = items[1] if len(items) == 3 else None, items[2:]
            if head == "do":
                header = items[1].items if len(items) >= 2 and type(items[1]) is Form else ()
                target, values = (header[0], header[1:3]) if len(header) == 4 else (None, [])
            elif head != "assign" and head != "setq":
                values = []  # mk_instance: a node
            if type(target) is Symbol:
                found.append((target.name, values))
        elif head in ("defun", "macro", "quote"):
            continue
        pending += [item for item in items if type(item) is Form]
    return found


def _head(form: Form) -> Optional[str]:
    """The name heading ``form``, or None."""
    return _head_of(form.items)


def _head_of(items: List[Statement]) -> Optional[str]:
    if items and isinstance(items[0], Symbol):
        return items[0].name
    return None


def _compile_index_key(fn: _Function, var: IndexedVar) -> str:
    """The binding key ``(base, (i,))`` or ``(base, (i, j))`` of ``var``."""
    base = repr(var.base)
    indices = [
        index if isinstance(index, int)
        else functools.partial(_checked_index, fn, index, base, var.line)
        for index in var.indices
    ]
    return f"({base},({','.join(fn.sequence(indices))},))"


def _checked_index(fn: _Function, index: Statement, base: str, line: int) -> str:
    if fn.integral(index):
        return fn.value(index)
    return f"X({fn.value(index)},{base},{line})"


def _compile_arith(fn: _Function, form: Form, want: bool) -> str:
    name = form.items[0].name
    operands = fn.sequence(form.items[1:])
    if len(operands) == 2 and name in _INFIX:
        helper, python = _INFIX[name]
        if all(fn.integral(node) for node in form.items[1:]):
            return f"({operands[0]}{python}{operands[1]})"
        return f"{helper}({','.join(operands)},{form.line})"
    return f"P({name!r},{form.line},{','.join(operands)})"


def _compile_call(fn: _Function, form: Form, want: bool) -> str:
    """A builtin or procedure call: classified before its arguments run
    (:func:`_callee`), applied after (:func:`_call`)."""
    key, line, arguments = repr(form.items[0].name), form.line, form.items[1:]
    if all(fn.safe(node) for node in arguments):
        return f"CA(I,{key},{line},None,{','.join(fn.sequence(arguments))})"
    classify = functools.partial(str, f"CK(I,{key},{line})")
    return f"CA(I,{key},{line},{','.join(fn.sequence([classify] + arguments))})"


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


def _compile_definition(fn: _Function, form: Form, is_macro: bool) -> Optional[str]:
    """``defun``/``macro``: the body is generated once, bound per run."""
    try:
        procedure = _procedure(form, is_macro)
    except EvalError as error:
        return f"RZ({str(error)!r})"
    fn.program.procedures.append((procedure, fn.program.body(procedure, aliased=False)))
    fn.emit(f"I.procedures[{procedure.name!r}]={fn.program.constant(procedure)}")
    return "None"


# ----------------------------------------------------------------------
# Special forms: control
# ----------------------------------------------------------------------
def _compile_cond(fn: _Function, form: Form, want: bool) -> Optional[str]:
    clauses: List[Form] = []
    malformed = None
    for clause in form.items[1:]:
        if not isinstance(clause, Form) or len(clause) < 1:
            # Clauses after a malformed one are unreachable.
            malformed = f"line {form.line}: malformed cond clause"
            break
        clauses.append(clause)
    result = fn.temp() if want else None
    known = set(fn.known)
    opened = 0
    for number, clause in enumerate(clauses):
        if number:
            fn.emit("else:")
            fn.indent += 1
            opened += 1
            if fn.indent >= _MAX_BLOCKS:
                # The clauses left, as a cond of their own (the nesting rule).
                rest = fn.value(Form([form[0]] + form.items[number + 1:], form.line), want)
                fn.emit(f"{result}={rest}" if want else rest)
                clauses = []
                break
            mark = len(fn.lines)
            test = fn.truth(clause[0])
            if len(fn.lines) == mark:
                del fn.lines[mark - 1]
                fn.indent -= 1
                opened -= 1
                fn.emit(f"elif {test}:")
            else:
                fn.emit(f"if {test}:")
        else:
            fn.emit(f"if {fn.truth(clause[0])}:")
        fn.indent += 1
        mark = len(fn.lines)
        value = fn.block(clause.items[1:], want)
        if want:
            fn.emit(f"{result}={value}")
        elif len(fn.lines) == mark:
            fn.emit("pass")
        fn.indent -= 1
        fn.known = set(known)
    fail = f"RZ({malformed!r})" if malformed else None
    if clauses and (fail or want):
        fn.emit("else:")
        fn.indent += 1
        fn.emit(fail or f"{result}=None")
        fn.indent -= 1
    elif not clauses and opened == 0 and (fail or want):
        fn.emit(fail or f"{result}=None")
    fn.indent -= opened
    fn.known = known
    return result


def _compile_do(fn: _Function, form: Form, want: bool) -> Optional[str]:
    if len(form) < 2 or not isinstance(form[1], Form) or len(form[1]) != 4:
        return f"RZ({f'line {form.line}: do needs (var initial next exit) header'!r})"
    variable = form[1][0]
    if not isinstance(variable, Symbol):
        return f"RZ({f'line {form.line}: do variable must be a symbol'!r})"
    name, key = variable.name, repr(variable.name)
    initial, step, finished = form[1].items[1:]
    body = form.items[2:]
    # A counting loop: an int to start, steps of int arithmetic on it,
    # and no other form of the frame assigning it; its reads need no
    # checks.
    if fn.integral(initial) and fn.facts.writes.get(name) == 1:
        fn.ints.add(name)
        if not fn.integral(step):
            fn.ints.discard(name)
    fn.emit(f"B[{key}]={fn.value(initial)}")
    fn.known.add(name)
    known = set(fn.known)
    result = fn.temp() if want and body else None
    if result:
        fn.emit(f"{result}=None")
    # At most LOOP's length of steps: the loop's else is a runaway loop.
    fn.emit("for v in LOOP:")
    fn.indent += 1
    fn.emit(f"if {fn.truth(finished)}: break")
    value = fn.block(body, result is not None)
    if result:
        fn.emit(f"{result}={value}")
    fn.known = set(known)
    fn.emit(f"B[{key}]={fn.value(step)}")
    fn.indent -= 1
    fn.emit(f"else: RZ({f'line {form.line}: runaway do loop'!r})")
    fn.known = known
    fn.ints.discard(name)
    return result or "None"


def _compile_prog(fn: _Function, form: Form, want: bool) -> Optional[str]:
    return fn.block(form.items[1:], want)


def _compile_and(
    fn: _Function, form: Form, want: bool, conjunction: bool = True
) -> str:
    """``and`` (and, with ``conjunction`` false, ``or``): each operand
    runs only while the value is undecided; ``and`` yields its last
    value or false, ``or`` its first true value or false."""
    operands = form.items[1:]
    result = fn.temp()
    if not operands:
        fn.emit(f"{result}={conjunction}")
        return result
    known = set(fn.known)  # only the first operand surely runs
    opened = 0
    for number, operand in enumerate(operands):
        if number and fn.indent >= _MAX_BLOCKS:
            # The operands left, as a form of their own (the nesting rule).
            rest = fn.value(Form([form[0]] + operands[number:], form.line))
            fn.emit(f"{result}={rest}")
            break
        last = number == len(operands) - 1
        fn.emit(f"{result}={fn.value(operand)}")
        fn.emit(f"if {result} is None or {result} is False:")
        if conjunction:
            fn.emit(f" {result}=False")
            if last:
                break
            fn.emit("else:")
        elif last:
            fn.emit(f" {result}=False")
            break
        fn.indent += 1
        opened += 1
    fn.indent -= opened
    fn.known = known
    return result


def _compile_quote(fn: _Function, form: Form, want: bool) -> str:
    if len(form) != 2:
        return f"RZ({f'line {form.line}: quote needs one argument'!r})"
    item = form[1]
    if isinstance(item, Symbol):
        return fn.literal(item.name)
    if isinstance(item, (int, str)):
        return fn.literal(item)
    constant = fn.program.constant(item)
    fn.stable.add(constant)
    return constant


# ----------------------------------------------------------------------
# Special forms: assignment and environment access
# ----------------------------------------------------------------------
def _compile_assign(fn: _Function, form: Form, want: bool) -> Optional[str]:
    if len(form) != 3:
        return f"RZ({f'line {form.line}: assign needs target and value'!r})"
    return _bind(fn, form[1], fn.value(form[2]), want)


def _bind(fn: _Function, target: Statement, value: str, want: bool) -> Optional[str]:
    """Bind an evaluated ``value`` to an assignment target; the
    target's key is evaluated after the value."""
    if isinstance(target, Symbol):
        key = repr(target.name)
        fn.known.add(target.name)
        if not want:
            fn.emit(f"B[{key}]={value}")
            return None
        result = fn.temp()
        fn.emit(f"B[{key}]={result}={value}")
        return result
    if not isinstance(target, IndexedVar):
        value = fn.spill(value)
        fn.emit(f"RZ({'assignment target must be a variable'!r})")
        return value
    value, key = fn.sequence([
        functools.partial(str, value), functools.partial(_compile_index_key, fn, target)
    ])
    if not want:
        fn.emit(f"B[{key}]={value}")
        return None
    result = fn.temp()
    fn.emit(f"B[{key}]={result}={value}")
    return result


def _compile_subcell(fn: _Function, form: Form, want: bool) -> str:
    line = form.line
    if len(form) != 3:
        return f"RZ({f'line {line}: subcell needs env and variable'!r})"
    key_node = form[2]
    (source,) = fn.sequence([form[1]])
    if isinstance(key_node, Symbol):
        return f"SC({source},{key_node.name!r},{line})"
    checked = f"F({source},{line})"
    if isinstance(key_node, IndexedVar):
        # Index expressions evaluate in the *caller's* environment.
        checked, key = fn.sequence([
            functools.partial(str, checked),
            functools.partial(_compile_index_key, fn, key_node),
        ])
        return f"SC({checked},{key},{line})"
    return f"SC({checked},RZ({f'line {line}: subcell variable must be a name'!r}),{line})"


# ----------------------------------------------------------------------
# Special forms: graph primitives (section 4.4)
# ----------------------------------------------------------------------
def _compile_mk_instance(fn: _Function, form: Form, want: bool) -> Optional[str]:
    line = form.line
    if len(form) != 3:
        return f"RZ({f'line {line}: mk_instance needs variable and cell'!r})"
    target = form[1]
    (cell,) = fn.sequence([form[2]])
    if isinstance(target, Symbol):
        fn.known.add(target.name)
        return f"MK(I,B,{target.name!r},{cell},{line})"
    return _bind(fn, target, f"MI(I,{cell},{line})", want)


def _compile_connect(fn: _Function, form: Form, want: bool) -> str:
    line = form.line
    if len(form) != 4:
        return f"RZ({f'line {line}: connect needs two nodes and an interface number'!r})"
    return f"CN(I,{','.join(fn.sequence(form.items[1:]))},{line})"


def _compile_mk_cell(fn: _Function, form: Form, want: bool) -> Optional[str]:
    line = form.line
    if len(form) != 3:
        return f"RZ({f'line {line}: mk_cell needs a name and a node'!r})"
    name = fn.spill(fn.value(form[1]))
    if not isinstance(form[1], str):
        fn.emit(f"if not isinstance({name},str): RZ({f'line {line}: cell name must be a string'!r})")
    root = fn.spill(fn.value(form[2]))
    fn.emit(f"if not isinstance({root},Node): RZ({f'line {line}: mk_cell root must be an instance'!r})")
    return f"I.rsg.mk_cell({name},{root})"


def _compile_declare_interface(fn: _Function, form: Form, want: bool) -> str:
    line = form.line
    if len(form) != 7:
        return (
            f"RZ({f'line {line}: declare_interface needs cellC cellD newindex instA instB existingindex'!r})"
        )
    cells = [
        functools.partial(_resolved_cell, fn, node, line) for node in form.items[1:3]
    ]
    return f"DI(I,{','.join(fn.sequence(cells + form.items[3:]))},{line})"


def _resolved_cell(fn: _Function, node: Statement, line: int) -> str:
    return f"I._resolve_cell({fn.value(node)},{line})"


# ----------------------------------------------------------------------
# Special forms: I/O
# ----------------------------------------------------------------------
def _compile_print(fn: _Function, form: Form, want: bool) -> Optional[str]:
    value = "None"
    for operand in form.items[1:]:
        value = fn.spill(fn.value(operand))
        fn.emit(f"I.output.append({value})")
    return value


def _compile_read(fn: _Function, form: Form, want: bool) -> str:
    empty = f"line {form.line}: read with empty input queue"
    return f"(I.input_queue.pop(0) if I.input_queue else RZ({empty!r}))"


#: special-form name -> generator (the legacy Appendix B spellings
#: ``mkinstance``/``mkcell``/``declareinterface`` included)
_SPECIAL_FORMS: Dict[str, Callable[[_Function, Form, bool], Optional[str]]] = {
    "defun": lambda fn, form, want: _compile_definition(fn, form, is_macro=False),
    "macro": lambda fn, form, want: _compile_definition(fn, form, is_macro=True),
    "cond": _compile_cond,
    "do": _compile_do,
    "assign": _compile_assign,
    "setq": _compile_assign,
    "prog": _compile_prog,
    "and": _compile_and,
    "or": lambda fn, form, want: _compile_and(fn, form, want, conjunction=False),
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
#: forms that emit statements (their operands start a new statement)
_STATEMENT_FORMS = frozenset((
    "defun", "macro", "cond", "do", "assign", "setq", "prog", "and", "or",
    "mk_cell", "mkcell", "print",
))
#: forms that open blocks (the nesting rule moves them)
_BLOCK_FORMS = frozenset(("cond", "do", "and", "or"))
#: forms that assign a plain variable of their frame
_ASSIGNING = frozenset(("assign", "setq", "mk_instance", "mkinstance", "do"))


@functools.lru_cache(maxsize=32)
def _compile_program(text: str) -> Callable[["Interpreter", Environment], Any]:
    """Parse and compile design-file text, once per distinct text.

    The ``lang.compile`` span is opened only here, so it appears in a
    trace only when the cache missed.
    """
    with obs_trace.span("lang.compile"):
        program, entry = _generate(text)
        return program.compile(entry)


def _generate(text: str) -> Tuple[_Program, str]:
    """The Python source of ``text``, and the name of its entry function."""
    statements = parse_program(text)
    program = _Program()
    main = program.function("I,E", set(), _frame_facts(statements, []))
    main.emit("B=E.bindings")
    return program, main.finish(main.block(statements, True))


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
        with obs_trace.span("lang.eval"):
            return program(self, frame)

    @staticmethod
    def precompile(text: str) -> None:
        """Compile design-file text now rather than at its first
        :meth:`run` (the per-process cache is shared: a pool compiles
        its builtin texts before it forks workers)."""
        _compile_program(text)

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
    def _apply(self, procedure: Procedure, args: Sequence[Any]) -> Any:
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
        code = procedure.code
        for value in args:
            if isinstance(value, Alias):
                code = procedure.aliased
                if code is None:
                    program = _Program()
                    code = procedure.aliased = program.compile(
                        program.body(procedure, aliased=True)
                    )
                break
        for local in procedure.locals:
            bindings[local] = None
        self._depth += 1
        try:
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
