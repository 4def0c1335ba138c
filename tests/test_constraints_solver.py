"""Tests for the constraint system and the Bellman-Ford solver (§6.3/6.4.2)."""

import random

import pytest

from repro.compact import (
    Constraint,
    ConstraintSystem,
    SolveStats,
    solve_longest_path,
)
from repro.core.errors import InfeasibleConstraintsError


def reference_solve(system, lower_bound=0, pitches=None, hint=None):
    """Textbook Bellman-Ford over the name-keyed constraint records, in
    insertion order: the oracle for the column solver.

    Returns the least solution at or above ``max(hint, lower_bound)``,
    or raises on a positive cycle.
    """
    pitches, hint = pitches or {}, hint or {}
    x = {
        name: max(hint.get(name, lower_bound), lower_bound)
        for name in system.variables
    }
    edges = [
        (c.source, c.target,
         c.weight + sum(k * pitches[p] for p, k in c.pitch_terms))
        for c in system.constraints
    ]
    for _ in range(len(x) + 1):
        changed = False
        for s, t, w in edges:
            if x[s] + w > x[t]:
                x[t] = x[s] + w
                changed = True
        if not changed:
            return x
    raise InfeasibleConstraintsError("positive cycle")


def random_system(n, extra, seed, cyclic=False):
    rng = random.Random(seed)
    system = ConstraintSystem()
    for i in range(n):
        system.add_variable(f"v{i}", initial=rng.randint(0, 100))
    for i in range(n - 1):
        system.add(f"v{i}", f"v{i+1}", rng.randint(-3, 5))
    for _ in range(extra):
        a, b = rng.sample(range(n), 2)
        if not cyclic and a > b:
            a, b = b, a
        system.add(f"v{a}", f"v{b}", rng.randint(0, 4))
    if cyclic:
        system.require_equal("v0", f"v{n // 2}", 7)
    return system


def chain_system(n, gap=3, shuffle=False):
    """x0 <- x1 <- ... <- x_{n-1}, each at least `gap` apart."""
    system = ConstraintSystem()
    for i in range(n):
        system.add_variable(f"x{i}", initial=i * gap)
    order = list(range(n - 1))
    if shuffle:
        order = order[::-1]
    for i in order:
        system.add(f"x{i}", f"x{i+1}", gap)
    return system


def equality_system():
    """Zero-slack cycles: a rigid cluster pinned by require_equal."""
    system = ConstraintSystem()
    for name in "abcd":
        system.add_variable(name)
    system.require_equal("a", "b", 5)
    system.require_equal("b", "c", -2)
    system.add("a", "d", 7)
    system.add("c", "d", 1)
    return system


def slack_cycle_system():
    """A negative-slack cycle: b may float within [a, a+4]."""
    system = ConstraintSystem()
    system.add_variable("a", initial=0)
    system.add_variable("b", initial=9)
    system.add_variable("c", initial=20)
    system.add("a", "b", 0)
    system.add("b", "a", -4)
    system.add("b", "c", 6)
    return system


def pitch_system():
    system = ConstraintSystem()
    system.add_variable("a", initial=0)
    system.add_variable("b", initial=10)
    system.add_variable("c", initial=25)
    system.add_pitch("lam")
    system.add("a", "b", 4, pitch_terms=(("lam", -1),))
    system.add("b", "c", 6)
    system.add("a", "c", 3, pitch_terms=(("lam", 1),))
    return system


#: every ConstraintSystem fixture in this module, with solve kwargs
SOLVER_FIXTURES = [
    ("chain", lambda: chain_system(10), {}),
    ("chain-shuffled", lambda: chain_system(25, shuffle=True), {}),
    ("chain-lower-bound", lambda: chain_system(8), {"lower_bound": 5}),
    ("chain-unsorted", lambda: chain_system(25, shuffle=True), {"sort_edges": False}),
    ("equalities", equality_system, {}),
    ("slack-cycle", slack_cycle_system, {}),
    ("negative-weight", lambda: negative_weight_system(), {}),
    ("fixed-pitch", pitch_system, {"pitches": {"lam": 2}}),
]


def negative_weight_system():
    system = ConstraintSystem()
    system.add_variable("a")
    system.add_variable("b")
    system.add("a", "b", -2)
    return system


class TestConstraintSystem:
    def test_variables_and_constraints(self):
        system = chain_system(4)
        assert len(system.variables) == 4
        assert len(system) == 3

    def test_endpoints_must_exist(self):
        system = ConstraintSystem()
        system.add_variable("a")
        with pytest.raises(KeyError):
            system.add("a", "ghost", 1)

    def test_require_equal(self):
        system = ConstraintSystem()
        system.add_variable("a")
        system.add_variable("b")
        system.require_equal("a", "b", 5)
        stats = solve_longest_path(system)
        assert stats.solution["b"] - stats.solution["a"] == 5

    def test_check_reports_violations(self):
        system = chain_system(3)
        good = {"x0": 0, "x1": 3, "x2": 6}
        bad = {"x0": 0, "x1": 2, "x2": 6}
        assert system.check(good) == []
        assert len(system.check(bad)) == 1

    def test_pitch_terms_flagged(self):
        system = ConstraintSystem()
        system.add_variable("a")
        system.add_variable("b")
        system.add_pitch("lam")
        system.add("a", "b", 2, pitch_terms=(("lam", -1),))
        assert system.has_pitch_terms()


class TestSolver:
    def test_minimal_solution(self):
        stats = solve_longest_path(chain_system(5, gap=4))
        assert [stats.solution[f"x{i}"] for i in range(5)] == [0, 4, 8, 12, 16]

    def test_all_constraints_satisfied(self):
        system = chain_system(10)
        stats = solve_longest_path(system)
        assert system.check(stats.solution) == []

    def test_lower_bound(self):
        stats = solve_longest_path(chain_system(3), lower_bound=7)
        assert min(stats.solution.values()) == 7

    def test_positive_cycle_detected(self):
        system = ConstraintSystem()
        system.add_variable("a")
        system.add_variable("b")
        system.add("a", "b", 5)
        system.add("b", "a", -3)  # b - a >= 5 and a - b >= -3: a <= b - 5, a >= b - 3
        with pytest.raises(InfeasibleConstraintsError):
            solve_longest_path(system)

    def test_negative_weights_feasible(self):
        system = ConstraintSystem()
        system.add_variable("a")
        system.add_variable("b")
        system.add("a", "b", -2)  # b may sit left of a
        stats = solve_longest_path(system)
        assert system.check(stats.solution) == []

    def test_fixed_pitch_substitution(self):
        system = ConstraintSystem()
        system.add_variable("a", initial=0)
        system.add_variable("b", initial=10)
        system.add_pitch("lam")
        system.add("a", "b", 4, pitch_terms=(("lam", -1),))
        stats = solve_longest_path(system, pitches={"lam": 1})
        assert stats.solution["b"] - stats.solution["a"] >= 3

    def test_symbolic_pitch_without_value_rejected(self):
        system = ConstraintSystem()
        system.add_variable("a")
        system.add_variable("b")
        system.add_pitch("lam")
        system.add("a", "b", 4, pitch_terms=(("lam", -1),))
        with pytest.raises(InfeasibleConstraintsError):
            solve_longest_path(system)


class TestSortedEdgeOptimisation:
    """Section 6.4.2: presorting edges by initial abscissa makes a
    preserved ordering converge in one productive pass."""

    def test_sorted_single_productive_pass(self):
        system = chain_system(100, shuffle=True)
        sorted_stats = solve_longest_path(system, sort_edges=True)
        # One pass does all the work; the second detects the fixpoint.
        assert sorted_stats.passes == 2

    def test_unsorted_needs_many_passes(self):
        system = chain_system(100, shuffle=True)
        unsorted_stats = solve_longest_path(system, sort_edges=False)
        assert unsorted_stats.passes > 2

    def test_same_answer_either_way(self):
        system = chain_system(50, shuffle=True)
        a = solve_longest_path(system, sort_edges=True).solution
        b = solve_longest_path(system, sort_edges=False).solution
        assert a == b

    def test_relaxation_counts(self):
        system = chain_system(20, shuffle=True)
        stats = solve_longest_path(system, sort_edges=True)
        assert stats.relaxations == 19  # each variable settles once


class TestReferenceEquivalence:
    """The column solver reproduces the textbook oracle exactly,
    fixture by fixture."""

    @pytest.mark.parametrize(
        "label,build,options",
        SOLVER_FIXTURES,
        ids=[label for label, _, _ in SOLVER_FIXTURES],
    )
    def test_identical_solutions(self, label, build, options):
        system = build()
        stats = solve_longest_path(system, **options)
        oracle_options = {
            key: value for key, value in options.items() if key != "sort_edges"
        }
        assert stats.solution == reference_solve(system, **oracle_options)
        assert system.check(
            stats.solution, pitches=options.get("pitches")
        ) == []

    def test_positive_self_loop_detected(self):
        system = ConstraintSystem()
        system.add_variable("a")
        system.add("a", "a", 1)
        with pytest.raises(InfeasibleConstraintsError):
            solve_longest_path(system)

    @pytest.mark.parametrize(
        "label,build,options",
        SOLVER_FIXTURES,
        ids=[label for label, _, _ in SOLVER_FIXTURES],
    )
    def test_solution_is_a_fixed_point(self, label, build, options):
        # seeded at its own least solution the solver has nothing to do:
        # one confirming pass, no relaxation, the same solution back
        system = build()
        solved = solve_longest_path(system, **options)
        again = solve_longest_path(system, hint=solved.solution, **options)
        assert again.solution == solved.solution
        assert (again.passes, again.relaxations) == (1, 0)

    @pytest.mark.parametrize("sort_edges", [True, False], ids=["sorted", "unsorted"])
    @pytest.mark.parametrize("cyclic", [False, True], ids=["dag", "cyclic"])
    def test_fuzz_against_reference(self, cyclic, sort_edges):
        for seed in range(8):
            system = random_system(35, 40, seed=seed, cyclic=cyclic)
            try:
                reference = reference_solve(system, lower_bound=2)
            except InfeasibleConstraintsError:
                reference = "infeasible"
            try:
                solution = solve_longest_path(
                    system, lower_bound=2, sort_edges=sort_edges
                ).solution
            except InfeasibleConstraintsError:
                solution = "infeasible"
            assert solution == reference

    @pytest.mark.parametrize("cyclic", [False, True], ids=["dag", "cyclic"])
    def test_hinted_fuzz_against_reference(self, cyclic):
        for seed in range(8):
            system = random_system(35, 40, seed=seed, cyclic=cyclic)
            hint = {f"v{i}": (i * 11 + seed) % 29 for i in range(0, 35, 3)}
            try:
                reference = reference_solve(system, lower_bound=2, hint=hint)
            except InfeasibleConstraintsError:
                reference = "infeasible"
            try:
                solution = solve_longest_path(
                    system, lower_bound=2, hint=hint
                ).solution
            except InfeasibleConstraintsError:
                solution = "infeasible"
            assert solution == reference


class TestSolveStats:
    def test_str_names_solver_and_width(self):
        system = random_system(6, 2, seed=1)
        stats = solve_longest_path(system)
        assert str(stats) == (
            f"bellman-ford: 6 vars, width {stats.width()},"
            f" {stats.passes} passes, {stats.relaxations} relaxations"
        )

    def test_width_measured_from_lower_bound_wall(self):
        # A hinted solve can lift every variable off the wall; the width
        # must still be measured from the wall the solver was given.
        system = ConstraintSystem()
        system.add_variable("a")
        system.add_variable("b")
        system.add("a", "b", 4)
        stats = solve_longest_path(system, hint={"a": 3, "b": 3})
        assert stats.solution == {"a": 3, "b": 7}
        assert stats.lower_bound == 0
        assert stats.width() == 7

    def test_width_plain_minimal_solve_unchanged(self):
        system = ConstraintSystem()
        system.add_variable("a")
        system.add_variable("b")
        system.add("a", "b", 4)
        stats = solve_longest_path(system, lower_bound=7)
        assert stats.width() == 4

    def test_empty_solution_width(self):
        assert SolveStats().width() == 0

    def test_str_spells_a_single_pass(self):
        # no constraints: the first pass already confirms the fixpoint
        system = ConstraintSystem()
        system.add_variable("a")
        assert str(solve_longest_path(system)) == (
            "bellman-ford: 1 vars, width 0, 1 pass, 0 relaxations"
        )

    def test_to_dict_carries_the_span_attributes(self):
        system = chain_system(5, gap=4)
        stats = solve_longest_path(system, lower_bound=1)
        assert stats.to_dict() == {
            "backend": "bellman-ford",
            "passes": stats.passes,
            "relaxations": 4,
            "sorted_edges": True,
            "variables": 5,
            "width": 16,
            "lower_bound": 1,
        }


class TestHintSeeding:
    """``hint`` seeds the relaxation: the result is the least solution
    at or above the hint."""

    @pytest.mark.parametrize("sort_edges", [True, False], ids=["sorted", "unsorted"])
    def test_least_solution_above_hint(self, sort_edges):
        system = random_system(30, 12, seed=3)
        hint = {f"v{i}": (i * 7) % 23 for i in range(30)}
        stats = solve_longest_path(system, hint=hint, sort_edges=sort_edges)
        assert system.check(stats.solution) == []
        assert all(stats.solution[k] >= v for k, v in hint.items())
        assert stats.solution == reference_solve(system, hint=hint)

    def test_hint_by_id_equals_hint_by_name(self):
        system = random_system(30, 12, seed=3)
        hint = {f"v{i}": (i * 7) % 23 for i in range(30)}
        by_id = [hint[name] for name in system.variables]
        assert (
            solve_longest_path(system, hint=by_id).values
            == solve_longest_path(system, hint=hint).values
        )

    def test_empty_hint_is_plain_solve(self):
        system = random_system(12, 4, seed=4)
        assert (
            solve_longest_path(system, hint={}).solution
            == solve_longest_path(system).solution
        )

    def test_hint_below_the_wall_is_clamped(self):
        system = random_system(12, 4, seed=5)
        hint = {name: -50 for name in system.variables}
        assert (
            solve_longest_path(system, lower_bound=3, hint=hint).solution
            == solve_longest_path(system, lower_bound=3).solution
        )

    def test_hint_names_outside_the_system_are_ignored(self):
        system = random_system(12, 4, seed=6)
        hint = {"v1": 40, "ghost": 99}
        assert (
            solve_longest_path(system, hint=hint).solution
            == solve_longest_path(system, hint={"v1": 40}).solution
        )
