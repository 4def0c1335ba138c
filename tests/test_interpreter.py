"""Tests for the design-file interpreter (chapter 4)."""

import pytest

from repro.core import Rsg
from repro.core.errors import EvalError, UnboundVariableError
from repro.geometry import NORTH, Vec2
from repro.lang import Alias, Environment, Interpreter


@pytest.fixture
def interp():
    return Interpreter()


@pytest.fixture
def rsg_interp():
    rsg = Rsg()
    tile = rsg.define_cell("tile")
    tile.add_box("metal", 0, 0, 10, 10)
    rsg.interface_by_example(
        "tile", Vec2(0, 0), NORTH, "tile", Vec2(12, 0), NORTH, index=1
    )
    return Interpreter(rsg)


class TestArithmetic:
    @pytest.mark.parametrize(
        "expr, value",
        [
            ("(+ 1 2 3)", 6),
            ("(- 10 3)", 7),
            ("(- 5)", -5),
            ("(* 2 3 4)", 24),
            ("(// 7 2)", 3),
            ("(// -7 2)", -3),  # truncation toward zero
            ("(mod 7 2)", 1),
            ("(mod 10 4)", 2),
            ("(min 3 1 2)", 1),
            ("(max 3 1 2)", 3),
            ("(abs -4)", 4),
        ],
    )
    def test_expressions(self, interp, expr, value):
        assert interp.run(expr) == value

    @pytest.mark.parametrize(
        "expr, value",
        [
            ("(= 1 1)", True),
            ("(= 1 2)", False),
            ("(/= 1 2)", True),
            ("(> 3 2)", True),
            ("(< 3 2)", False),
            ("(>= 2 2)", True),
            ("(<= 3 2)", False),
        ],
    )
    def test_comparisons(self, interp, expr, value):
        assert interp.run(expr) == value

    def test_division_by_zero(self, interp):
        with pytest.raises(EvalError):
            interp.run("(// 1 0)")

    @pytest.mark.parametrize(
        "expr, message",
        [
            ("(abs 1 2)", "line 2: abs: needs exactly one argument"),
            ("(not)", "line 2: not: needs exactly one argument"),
            ("(+ 1 \"a\")", "line 2: +: unsupported operand type(s) for +: 'int' and 'str'"),
            ("(+ 1 2 \"a\")", "line 2: +: unsupported operand type(s) for +"),
            ("(- 1 \"a\")", "line 2: -: unsupported operand type(s) for -=: 'int' and 'str'"),
            ("(- 1 2 \"a\")", "line 2: -: unsupported operand type(s) for -="),
            ("(< 1 \"a\")", "line 2: <: '<' not supported between"),
            ("(< 1 2 \"a\")", "line 2: <: '<' not supported between"),
            ("(min)", "line 2: min: "),
            ("(// 1 0)", "line 2: //: division by zero"),
            ("(mod 1 2 3)", "line 2: mod: needs exactly two arguments"),
        ],
    )
    def test_operand_errors_name_the_line_and_operator(self, interp, expr, message):
        """A primitive's failure is the design file's EvalError, with the
        line and the operator, on the two-operand and the n-ary path."""
        with pytest.raises(EvalError) as caught:
            interp.run("(setq x 1)\n" + expr)
        assert str(caught.value).startswith(message)

    def test_operand_error_is_reported_once(self, interp):
        """An operand's own error is not re-wrapped by the enclosing
        operator."""
        with pytest.raises(EvalError) as caught:
            interp.run("(+ 1\n(abs 1 2))")
        assert str(caught.value) == "line 2: abs: needs exactly one argument"

    def test_logic_short_circuit(self, interp):
        assert interp.run("(and 1 2 3)") == 3
        assert interp.run("(and 1 false 3)") is False
        assert interp.run("(or false 5)") == 5
        assert interp.run("(not false)") is True


class TestControlFlow:
    def test_cond_first_match(self, interp):
        assert interp.run("(cond ((= 1 2) 10) ((= 1 1) 20) (true 30))") == 20

    def test_cond_true_default(self, interp):
        assert interp.run("(cond ((= 1 2) 10) (true 99))") == 99

    def test_cond_no_match_returns_nil(self, interp):
        assert interp.run("(cond ((= 1 2) 10))") is None

    def test_cond_multiple_body_statements(self, interp):
        assert interp.run("(cond (true (print 1) (print 2) 3))") == 3

    def test_do_loop(self, interp):
        code = """
        (defun sumto (n)
          (locals acc)
          (setq acc 0)
          (do (i 1 (+ 1 i) (> i n))
            (setq acc (+ acc i)))
          acc)
        (sumto 10)
        """
        assert interp.run(code) == 55

    def test_do_loop_zero_iterations(self, interp):
        code = """
        (defun f ()
          (locals acc)
          (setq acc 0)
          (do (i 5 (+ 1 i) (> i 3)) (setq acc 99))
          acc)
        (f)
        """
        assert interp.run(code) == 0

    def test_prog_returns_last(self, interp):
        assert interp.run("(prog 1 2 3)") == 3

    def test_recursion(self, interp):
        code = """
        (defun fact (n)
          (locals)
          (cond ((= n 0) 1) (true (* n (fact (- n 1))))))
        (fact 10)
        """
        assert interp.run(code) == 3628800

    def test_runaway_recursion_bounded(self, interp):
        code = "(defun boom (n) (locals) (boom (+ n 1))) (boom 0)"
        with pytest.raises(EvalError):
            interp.run(code)


class TestProceduresAndMacros:
    def test_function_returns_last_value(self, interp):
        assert interp.run("(defun f (x) (locals) (+ x 1) (* x 2)) (f 5)") == 10

    def test_call_applies_a_defined_procedure_from_python(self, interp):
        interp.run("(defun twice (x) (* x 2))")
        assert interp.call("twice", 21) == 42
        with pytest.raises(EvalError, match="no procedure named 'thrice'"):
            interp.call("thrice", 1)

    def test_macro_returns_environment(self, interp):
        result = interp.run("(macro mthing () (locals a) (setq a 42)) (mthing)")
        assert isinstance(result, Environment)
        assert result.local("a") == 42

    def test_subcell_reads_macro_environment(self, interp):
        code = """
        (macro mpair ()
          (locals first second)
          (setq first 10)
          (setq second 20))
        (setq e (mpair))
        (+ (subcell e first) (subcell e second))
        """
        assert interp.run(code) == 30

    def test_subcell_with_indexed_variable(self, interp):
        """The Appendix B idiom: (subcell l.1 c.2) with caller indices."""
        code = """
        (macro mrow ()
          (locals)
          (assign c.1 100)
          (assign c.2 200))
        (setq r (mrow))
        (setq k 2)
        (subcell r c.k)
        """
        assert interp.run(code) == 200

    def test_macro_name_must_start_with_m(self, interp):
        with pytest.raises(EvalError):
            interp.run("(macro thing () (locals))")

    def test_function_name_must_not_start_with_m(self, interp):
        with pytest.raises(EvalError):
            interp.run("(defun mfun (x) (locals) x)")

    def test_arity_checked(self, interp):
        interp.run("(defun f (x y) (locals) (+ x y))")
        with pytest.raises(EvalError):
            interp.run("(f 1)")

    def test_locals_initialised_to_nil(self, interp):
        assert interp.run("(defun f () (locals a) a) (f)") is None

    def test_procedures_are_not_first_class(self, interp):
        """Section 4.1: procedures cannot be passed as values."""
        interp.run("(defun f (x) (locals) x)")
        with pytest.raises(UnboundVariableError):
            interp.run("(setq g f)")

    def test_unknown_procedure(self, interp):
        with pytest.raises(EvalError):
            interp.run("(nosuch 1 2)")

    def test_environments_independent_per_call(self, interp):
        code = """
        (macro mbox (v) (locals x) (setq x v))
        (setq a (mbox 1))
        (setq b (mbox 2))
        (+ (subcell a x) (subcell b x))
        """
        assert interp.run(code) == 3


class TestScoping:
    def test_parameter_file_global(self, interp):
        interp.set_parameter("n", 9)
        assert interp.run("(defun f () (locals) n) (f)") == 9

    def test_formal_shadows_global(self, interp):
        interp.set_parameter("n", 9)
        assert interp.run("(defun f (n) (locals) n) (f 1)") == 1

    def test_alias_resolves_to_cell(self, rsg_interp):
        rsg_interp.set_parameter("corecell", Alias("tile"))
        result = rsg_interp.run("(defun f () (locals) corecell) (f)")
        assert result is rsg_interp.rsg.cells.lookup("tile")

    def test_unbound_variable(self, interp):
        with pytest.raises(UnboundVariableError):
            interp.run("ghost")

    def test_indexed_assignment_and_lookup(self, interp):
        assert interp.run("(assign x.3 7) x.3") == 7

    def test_indexed_with_expression_index(self, interp):
        assert interp.run("(setq i 4) (assign x.i 5) x.(+ 2 2)") == 5

    def test_non_integer_index_rejected(self, interp):
        with pytest.raises(EvalError):
            interp.run('(setq i "one") (assign x.i 5)')


class TestGraphPrimitives:
    def test_mk_instance_binds_and_returns(self, rsg_interp):
        node = rsg_interp.run("(mk_instance n tile) n")
        assert node.celltype == "tile"

    def test_mk_instance_by_string_name(self, rsg_interp):
        node = rsg_interp.run('(mk_instance n "tile")')
        assert node.celltype == "tile"

    def test_connect_and_mk_cell(self, rsg_interp):
        cell = rsg_interp.run(
            """
            (mk_instance a tile)
            (mk_instance b tile)
            (connect a b 1)
            (mk_cell "pair" a)
            """
        )
        assert cell.name == "pair"
        assert len(cell.instances) == 2
        assert cell.instances[1].location == Vec2(12, 0)

    def test_legacy_spellings(self, rsg_interp):
        """Appendix B uses mkinstance/mkcell without underscores."""
        cell = rsg_interp.run(
            '(mkinstance a tile) (mkcell "one" a)'
        )
        assert cell.name == "one"

    def test_mk_cell_requires_string_name(self, rsg_interp):
        with pytest.raises(EvalError):
            rsg_interp.run("(mk_instance a tile) (mk_cell 7 a)")

    def test_connect_type_errors(self, rsg_interp):
        with pytest.raises(EvalError):
            rsg_interp.run("(connect 1 2 3)")

    def test_declare_interface_via_language(self, rsg_interp):
        env = rsg_interp.run(
            """
            (macro mpair ()
              (locals a b)
              (mk_instance a tile)
              (mk_instance b tile)
              (connect a b 1)
              (mk_cell "pair" a))
            (setq p (mpair))
            (declare_interface pair pair 1 (subcell p b) (subcell p a) 1)
            p
            """
        )
        interface = rsg_interp.rsg.interfaces.lookup("pair", "pair", 1)
        # b at (12,0) inside the first pair; a of the second pair abuts
        # it at interface #1: L_d = 12 + 12 - 0 = 24.
        assert interface.vector == Vec2(24, 0)


class TestIO:
    def test_print_collects_output(self, interp):
        interp.run("(print 1) (print (+ 2 3))")
        assert interp.output == [1, 5]

    def test_read_consumes_queue(self, interp):
        interp.input_queue = [41]
        assert interp.run("(+ 1 (read))") == 42

    def test_read_empty_queue(self, interp):
        with pytest.raises(EvalError):
            interp.run("(read)")

    def test_quote(self, interp):
        assert interp.run("(quote foo)") == "foo"


class TestCompiledEvaluation:
    """Each design text compiles once to closures; the checks a form
    makes still run when (and only when) the form is evaluated, and the
    cached program carries no state from one interpreter to another."""

    PICK = """(defun pick (x)
  (locals)
  (cond ((= x 1) {form})
        (true 0)))
"""

    @pytest.mark.parametrize(
        "form, message",
        [
            ("(cond 5)", "line 3: malformed cond clause"),
            ("(do (i 1) 5)", "line 3: do needs (var initial next exit) header"),
            (
                "(connect a b)",
                "line 3: connect needs two nodes and an interface number",
            ),
        ],
        ids=["cond", "do", "connect"],
    )
    def test_malformed_form_raises_only_when_taken(self, interp, form, message):
        interp.run(self.PICK.format(form=form))
        assert interp.run("(pick 0)") == 0
        with pytest.raises(EvalError) as raised:
            interp.run("(pick 1)")
        assert str(raised.value) == message

    def test_clause_after_the_taken_one_is_never_checked(self, interp):
        assert interp.run("(cond (true 1) 5)") == 1
        with pytest.raises(EvalError, match="malformed cond clause"):
            interp.run("(cond (false 1) 5)")

    def test_one_compile_serves_two_interpreters(self):
        from repro.lang.interpreter import _compile_program

        text = "(defun twice (x) (locals) (* 2 x)) (twice n)"
        _compile_program.cache_clear()
        results = []
        for n in (1, 2):
            interpreter = Interpreter()
            interpreter.set_parameter("n", n)
            results.append(interpreter.run(text))
        assert results == [2, 4]
        info = _compile_program.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_builtin_registered_after_the_compile(self):
        text = "(triple 5)"
        first, second = Interpreter(), Interpreter()
        with pytest.raises(EvalError, match="unknown procedure 'triple'"):
            first.run(text)
        first.register_builtin("triple", lambda value: 3 * value)
        assert first.run(text) == 15
        with pytest.raises(EvalError, match="unknown procedure 'triple'"):
            second.run(text)

    def test_procedure_redefined_between_runs(self):
        define = "(defun answer () (locals) {value})"
        call = "(answer)"
        first, second = Interpreter(), Interpreter()
        for interpreter in (first, second):
            interpreter.run(define.format(value=1))
        first.run(define.format(value=2))
        assert first.run(call) == 2
        assert second.run(call) == 1
        # Re-running the cached first definition rebinds it.
        first.run(define.format(value=1))
        assert first.run(call) == 1

    def test_macro_environments_are_per_run(self):
        text = "(macro mbox (v) (locals x) (setq x v)) (mbox n)"
        environments = []
        for n in (1, 2):
            interpreter = Interpreter()
            interpreter.set_parameter("n", n)
            environments.append(interpreter.run(text))
        assert [env.local("x") for env in environments] == [1, 2]


class TestGeneratedReads:
    """What the generated code reads without a lookup, and when it must
    not: an alias passed as an argument, a loop variable the body
    assigns, a loop over a non-integer."""

    TEXT = """(defun pick (a b) (locals c)
  (setq c (+ a 1))
  (print a)
  (+ c b))"""

    def test_an_alias_argument_is_chased_where_the_formal_is_read(self, interp):
        interp.register_builtin("alias", lambda name: Alias(name))
        interp.set_parameter("g", 5)
        interp.run(self.TEXT)
        assert interp.run('(pick (alias "g") 2)') == 8
        assert interp.output == [5]
        assert interp.call("pick", 1, Alias("g")) == 7
        # The callee's frame is where the chase starts (Figure 4.1).
        assert interp.run(
            '(defun own (a) (locals g) (setq g 9) (+ a 0)) (own (alias "g"))'
        ) == 9

    def test_plain_arguments_run_the_plain_body(self, interp):
        interp.run(self.TEXT.replace("pick", "plainpick"))
        assert interp.run("(plainpick 3 4)") == 8
        assert interp.procedures["plainpick"].aliased is None

    def test_loop_variable_assigned_in_the_body(self, interp):
        text = "(setq n 0) (do (i 1 (+ i 1) (> i 9)) (setq i (* i 2)) (setq n (+ n i))) n"
        assert interp.run(text) == 2 + 6 + 14

    def test_loop_over_a_string_fails_in_its_test(self, interp):
        interp.set_parameter("start", "a")
        with pytest.raises(EvalError) as raised:
            interp.run("(do (i start (+ i 1) (> i 3)) i)")
        assert str(raised.value).startswith("line 1: >: ")

    def test_loop_variable_reads_after_the_loop(self, interp):
        assert interp.run("(do (i 1 (+ 1 i) (> i 3)) (setq t i)) (+ (* 10 i) t)") == 43
