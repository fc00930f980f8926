import io
import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import reference_lra
from slicev import smtlib
from slicev.lra import Infeasible, Simplex, add_scaled, delta, lt, sub
from slicev.smtlib import (
    SolverState, check_assertions, format_rational, parse_rational,
    parse_sexprs, run_command, tokenize_sexprs,
)

F = Fraction


# -- delta-rationals ------------------------------------------------------------

def test_delta_ordering_is_lexicographic():
    assert lt(delta(F(1), -1), delta(F(1))) and lt(delta(F(1)), delta(F(1), 1))
    assert lt(delta(F(0), 5), delta(F(1, 1000), -5))
    assert not lt(delta(F(1)), delta(F(1))) and not lt(delta(F(1), 1), delta(F(1)))


def test_delta_arithmetic():
    a, b = delta(F(1, 2), 1), delta(F(1, 3), -2)
    assert a == (1, 2, 2) and b == (1, -6, 3)
    assert add_scaled(a, b, 1, 1) == delta(F(5, 6), -1) == (5, -6, 6)
    assert sub(a, b) == delta(F(1, 6), 3) == (1, 18, 6)
    assert add_scaled(delta(0), a, 2, 1) == delta(F(1), 2) == (1, 2, 1)


def lowest(t) -> bool:
    """`t` is an int triple (r, k, d) with d > 0 and gcd(r, k, d) == 1."""
    return (type(t) is tuple and len(t) == 3
            and all(type(i) is int for i in t) and t[2] > 0 and gcd(*t) == 1)


fractions = st.builds(Fraction, st.integers(-10**9, 10**9),
                      st.integers(1, 10**6))
ints = st.integers(-10**6, 10**6)


@given(fractions, ints, fractions, ints, st.booleans(), ints,
       st.integers(1, 10**6))
def test_triples_agree_with_fraction_pairs(r1, k1, r2, k2, same_real, c, e):
    # the kernel operations against the Fraction-pair `Delta` they replaced
    if same_real:
        r2 = r1         # so the eps parts decide the order
    a, b = delta(r1, k1), delta(r2, k2)
    da, db = reference_lra.Delta(r1, k1), reference_lra.Delta(r2, k2)
    pairs = [(a, da), (b, db), (sub(a, b), da - db),
             (add_scaled(a, b, c, e), da + db.scale(F(c, e)))]
    for got, want in pairs:
        assert lowest(got)
        assert reference_lra.of_triple(got) == want
    for (x, dx), (y, dy) in itertools.product(pairs, repeat=2):
        assert lt(x, y) == (dx < dy)


# -- simplex engine ---------------------------------------------------------------

def test_simple_bounds_conflict():
    s = Simplex()
    x = s.new_var()
    s.assert_lower(x, delta(F(1)))
    with pytest.raises(Infeasible):
        s.assert_upper(x, delta(F(0)))


def test_row_feasibility():
    s = Simplex()
    x, y = s.new_var(), s.new_var()
    t = s.slack_for({x: F(1), y: F(1)})
    s.assert_lower(t, delta(F(1)))
    s.assert_upper(x, delta(F(1, 4)))
    s.assert_upper(y, delta(F(1, 4)))
    assert not s.check()


def test_strict_squeeze_infeasible():
    # directly contradictory bounds on one form are caught at assert time
    s = Simplex()
    x, y = s.new_var(), s.new_var()
    t = s.slack_for({x: F(1), y: F(-1)})
    s.assert_lower(t, delta(F(0), 1))   # x > y
    with pytest.raises(Infeasible):
        s.assert_upper(t, delta(F(0), -1))  # x < y


def test_strict_cycle_through_two_forms_infeasible():
    # the same contradiction through two different slack forms needs pivoting
    s = Simplex()
    x, y, w = s.new_var(), s.new_var(), s.new_var()
    t1 = s.slack_for({x: F(1), w: F(-1)})
    t2 = s.slack_for({w: F(1), y: F(-1)})
    t3 = s.slack_for({y: F(1), x: F(-1)})
    s.assert_lower(t1, delta(F(0), 1))  # x > w
    s.assert_lower(t2, delta(F(0), 1))  # w > y
    s.assert_lower(t3, delta(F(0), 1))  # y > x
    assert not s.check()


def test_push_pop_restores_bounds():
    s = Simplex()
    x = s.new_var()
    s.assert_lower(x, delta(F(0)))
    s.push()
    s.assert_lower(x, delta(F(2)))
    assert s.check()
    s.pop()
    s.assert_upper(x, delta(F(1)))
    assert s.check()


# -- conflict explanations ----------------------------------------------------

# a bound: (target, is lower, numerator, denominator, eps part); the target
# indexes the three variables and then the slacks of the forms
bounds = st.tuples(st.integers(0, 5), st.booleans(), st.integers(-4, 4),
                   st.integers(1, 3), st.integers(-1, 1))
forms = st.lists(st.dictionaries(st.integers(0, 2),
                                 st.integers(-3, 3).filter(bool),
                                 min_size=1, max_size=3), max_size=3)


def simplex_with(forms):
    """A fresh `Simplex` with three variables and a slack for each form,
    made in order, and the list of all of them."""
    s = Simplex()
    xs = [s.new_var() for _ in range(3)]
    return s, xs + [s.slack_for({x: F(c) for x, c in f.items()})
                    for f in forms]


def assert_bound(s, targets, bound, why):
    t, is_lower, num, den, k = bound
    x = targets[t % len(targets)]
    (s.assert_lower if is_lower else s.assert_upper)(x, delta(F(num, den), k),
                                                     why)


@settings(max_examples=400, deadline=None)
@given(forms, st.lists(st.one_of(bounds, st.sampled_from(
    ["check", "push", "pop"])), max_size=16))
def test_explained_bounds_alone_are_infeasible(forms, ops):
    # each bound is tagged with its index in `asserted`; an explanation,
    # from a clashing assert or a failed check, names bounds that clash on
    # their own, asserted into a fresh simplex with the same slack rows
    s, targets = simplex_with(forms)
    asserted = []
    for op in ops:
        reason = None
        if op == "push":
            s.push()
        elif op == "pop":
            if s.marks:
                s.pop()
        elif op == "check":
            if not s.check():
                reason = s.conflict
        else:
            asserted.append(op)
            try:
                assert_bound(s, targets, op, len(asserted) - 1)
            except Infeasible as exc:
                reason = exc.reason
        if reason is None:
            continue
        assert reason and reason <= set(range(len(asserted)))
        fresh, fresh_targets = simplex_with(forms)
        try:
            for i in sorted(reason):
                assert_bound(fresh, fresh_targets, asserted[i], i)
        except Infeasible:
            continue
        assert not fresh.check(), f"bounds {sorted(reason)} are feasible"


def test_conflicts_name_the_clashing_bounds():
    s = Simplex()
    x, y, w = s.new_var(), s.new_var(), s.new_var()
    s.assert_lower(x, delta(F(1)), "x >= 1")
    with pytest.raises(Infeasible) as clash:
        s.assert_upper(x, delta(F(0)), "x <= 0")
    assert clash.value.reason == {"x >= 1", "x <= 0"}
    # the strict cycle x > w > y > x, beside a bound that plays no part
    for form, why in (({x: F(1), w: F(-1)}, "x > w"),
                      ({w: F(1), y: F(-1)}, "w > y"),
                      ({y: F(1), x: F(-1)}, "y > x")):
        s.assert_lower(s.slack_for(form), delta(F(0), 1), why)
    assert not s.check()
    assert s.conflict == {"x > w", "w > y", "y > x"}


# -- smt script driver ---------------------------------------------------------

def run_script(text: str) -> str:
    state = SolverState()
    out = io.StringIO()
    for cmd in parse_sexprs(text):
        try:
            run_command(state, cmd, out)
        except Exception as exc:  # same recovery as the command loop
            print(f"(error \"{exc}\")", file=out)
    return out.getvalue().strip()


def test_script_sat_with_model():
    got = run_script("""
        (set-logic QF_LRA)
        (declare-const x Real)
        (assert (>= x (/ 1 3))) (assert (< x (/ 1 2)))
        (check-sat) (get-model)
    """)
    lines = got.splitlines()
    assert lines[0] == "sat"
    (model,) = parse_sexprs(lines[1])
    name, value = model[0][1], parse_rational(model[0][-1])
    assert name == "x" and F(1, 3) <= value < F(1, 2)


def test_script_push_pop():
    got = run_script("""
        (declare-const x Real)
        (assert (>= x 1))
        (push 1) (assert (<= x 0)) (check-sat) (pop 1)
        (check-sat)
    """)
    assert got.splitlines() == ["unsat", "sat"]


def test_equalities_and_implication():
    got = run_script("""
        (declare-const a Real) (declare-const b Real)
        (assert (=> (>= a 0) (= b (* 2 a))))
        (assert (= a 3)) (assert (= b 5))
        (check-sat)
    """)
    assert got == "unsat"


def test_rational_formatting():
    assert format_rational(F(1, 2)) == "(/ 1 2)"
    assert format_rational(F(-3, 4)) == "(- (/ 3 4))"
    assert format_rational(F(5)) == "5"
    assert parse_rational(parse_sexprs("(- (/ 3 4))")[0]) == F(-3, 4)
    assert parse_rational("0.5") == F(1, 2)
    assert parse_rational("-1e-2") == F(-1, 100)
    assert parse_rational("\u0663") == F(3)        # a decimal digit, as for Fraction
    assert parse_rational("y0") is None and parse_rational("-y") is None


def test_unsupported_command_reports_error():
    got = run_script("(maximize x)")
    assert got.startswith("(error")


def test_parsed_lists_are_tuples():
    assert parse_sexprs("(a (b c) ()) d") == [("a", ("b", "c"), ()), "d"]


def test_declare_fun_takes_an_empty_signature():
    got = run_script("""
        (declare-fun x () Real) (declare-fun y () Real)
        (assert (< x y)) (assert (> x 0)) (check-sat)
        (declare-fun f (Real) Real)
    """)
    assert got.splitlines() == [
        "sat", '(error "only nullary Real functions supported")']


def run_slicev_smt(monkeypatch, capsys, text: str) -> list[str]:
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert smtlib.main() == 0
    return capsys.readouterr().out.splitlines()


def test_slicev_smt_push_pop_and_reset(monkeypatch, capsys):
    # a constant declared in a popped frame, or before a reset, is
    # undeclared in the comparisons after it
    got = run_slicev_smt(monkeypatch, capsys, """
        (declare-const x Real)
        (push 1) (assert (> x 1)) (check-sat)
        (assert (< x 1)) (check-sat) (pop 1)
        (check-sat)
        (push 1) (declare-const y Real) (assert (> y x)) (check-sat) (pop 1)
        (assert (> y x))
        (check-sat)
        (reset)
        (assert (> x 1))
        (declare-const x Real) (assert (> x 1)) (assert (< x 1)) (check-sat)
    """)
    assert got == ["sat", "unsat", "sat", "sat",
                   '(error "unknown constant \'y\'")', "sat",
                   '(error "unknown constant \'x\'")', "unsat"]


# -- term and atom lowering -----------------------------------------------------

# term -> (coefficients, constant), as the recursive lowering that copied
# each child's dict gave them; a zero coefficient is kept until `formula`
LINEAR = {
    "(* 2 3 x)": ({"x": F(6)}, F(0)),
    "(* (+ 1 2) x)": ({"x": F(3)}, F(0)),
    "(* 2 (+ 1 2) (- (* 3 x) y) (/ 1 2))": ({"x": F(9), "y": F(-3)}, F(0)),
    "(* (+ x 1) 2)": ({"x": F(2)}, F(2)),
    "(* 0 x)": ({"x": F(0)}, F(0)),
    "(+ x (- x))": ({"x": F(0)}, F(0)),
    "(- x)": ({"x": F(-1)}, F(0)),
    "(- x y z)": ({"x": F(1), "y": F(-1), "z": F(-1)}, F(0)),
    "(- 3 (* 2 x) (- y))": ({"x": F(-2), "y": F(1)}, F(3)),
    "(/ x 2)": ({"x": F(1, 2)}, F(0)),
    "(/ (- 3) 4)": ({}, F(-3, 4)),
    "0.5": ({}, F(1, 2)),
    "(+)": ({}, F(0)),
}

LINEAR_ERRORS = {
    "(* x y)": "non-linear multiplication",
    "(/ x y)": "division by a non-constant",
    "(/ x 0)": "division by a non-constant",
    "w": "unknown constant 'w'",
    "(/ w y)": "unknown constant 'w'",
    "(/ 1 0)": "division by a non-constant",
}

FORMULAS = {
    "(<= (+ x 1) (* 2 y))": ("atom", "<=", {"x": F(1), "y": F(-2)}, F(-1)),
    "(= x x)": ("atom", "=", {}, F(0)),
    "(> (- x) 0.5)": ("atom", ">", {"x": F(-1)}, F(1, 2)),
    "(=> (>= x 0) (< y 1))": (
        "or", [("not", ("atom", ">=", {"x": F(1)}, F(0))),
               ("atom", "<", {"y": F(1)}, F(1))]),
}


def xyz_state() -> SolverState:
    state = SolverState()
    for name in "xyz":
        state.declare(name)
    return state


@pytest.mark.parametrize("text", sorted(LINEAR))
def test_linear_lowering(text):
    (term,) = parse_sexprs(text)
    coeffs, const = xyz_state().linear(term)
    assert (coeffs, const) == LINEAR[text]
    assert list(coeffs) == list(LINEAR[text][0])      # first-seen order
    assert all(type(c) is F for c in [*coeffs.values(), const])


@pytest.mark.parametrize("text", sorted(LINEAR_ERRORS))
def test_linear_lowering_errors(text):
    (term,) = parse_sexprs(text)
    with pytest.raises(ValueError, match=LINEAR_ERRORS[text]):
        xyz_state().linear(term)


@pytest.mark.parametrize("text", sorted(FORMULAS))
def test_formula_lowering(text):
    (sexpr,) = parse_sexprs(text)
    assert xyz_state().formula(sexpr) == FORMULAS[text]


def test_tokenizer_keeps_strings_and_drops_comments():
    text = '(echo "a (b" ) ; (not a token\n x\t-1.5;c\r\nab"c "open'
    assert list(tokenize_sexprs(text)) == [
        "(", "echo", '"a (b"', ")", "x", "-1.5", 'ab"c', '"open']


# -- randomized cross-check against substitution and a grid oracle -----------------

def _rand_atom(rng, names):
    coeffs = {n: F(rng.randint(-3, 3)) for n in names if rng.random() < 0.6}
    coeffs = {k: v for k, v in coeffs.items() if v}
    const = F(rng.randint(-4, 4), rng.randint(1, 3))
    return ("atom", rng.choice(["<=", "<", ">=", ">", "="]), coeffs, const)


def _rand_formula(rng, names, depth):
    if depth == 0 or rng.random() < 0.5:
        return _rand_atom(rng, names)
    kind = rng.choice(["and", "or", "not"])
    if kind == "not":
        return ("not", _rand_formula(rng, names, depth - 1))
    return (kind, [_rand_formula(rng, names, depth - 1)
                   for _ in range(rng.randint(2, 3))])


def _eval(f, model):
    if f == "true":
        return True
    if f == "false":
        return False
    if f[0] == "atom":
        _k, op, coeffs, const = f
        val = sum((model.get(n, F(0)) * c for n, c in coeffs.items()), F(0))
        return {"<=": val <= const, "<": val < const, ">=": val >= const,
                ">": val > const, "=": val == const}[op]
    if f[0] == "not":
        return not _eval(f[1], model)
    if f[0] == "and":
        return all(_eval(p, model) for p in f[1])
    return any(_eval(p, model) for p in f[1])


# per check; none of these random formulas needs more than a handful
MAX_PIVOTS = 1_000


class CappedSimplex(Simplex):
    """`Simplex` that fails after MAX_PIVOTS pivots instead of cycling."""

    def __init__(self):
        super().__init__()
        self.pivots = 0

    def _pivot(self, *args):
        self.pivots += 1
        assert self.pivots <= MAX_PIVOTS, "pivot limit reached"
        super()._pivot(*args)


def test_randomized_against_oracle(monkeypatch):
    monkeypatch.setattr(smtlib, "Simplex", CappedSimplex)
    rng = random.Random(101)
    grid = [F(x, 2) for x in range(-6, 7)]
    for _ in range(700):
        names = ["a", "b", "c"][:rng.randint(2, 3)]
        fs = [_rand_formula(rng, names, rng.randint(1, 2))
              for _ in range(rng.randint(1, 3))]
        verdict, model = check_assertions(names, fs)
        if verdict == "sat":
            assert all(_eval(f, model) for f in fs), (fs, model)
        else:
            for vals in itertools.product(grid, repeat=len(names)):
                m = dict(zip(names, vals))
                assert not all(_eval(f, m) for f in fs), (fs, m)


# -- explanations of unsat answers ---------------------------------------------

def atom(op, coeffs, const):
    return ("atom", op, {n: F(c) for n, c in coeffs.items()}, F(const))


def test_an_unsat_answer_under_a_split_is_explained():
    # x <= 0 clashes with each branch of (or (x >= 1) (x >= 2)); y >= 5
    # plays no part
    either = ("or", [atom(">=", {"x": 1}, 1), atom(">=", {"x": 1}, 2)])
    cores = []
    assert check_assertions(["x", "y"], [atom("<=", {"x": 1}, 0), either,
                                         atom(">=", {"y": 1}, 5)],
                            cores=cores) == ("unsat", None)
    assert cores == [{(0, 0), (1, 0)}]


def test_an_empty_disjunction_is_explained_by_its_own_tag():
    cores = []
    assertions = [("and", [atom("<=", {"x": 1}, 0), ("or", [])])]
    assert check_assertions(["x"], assertions, cores=cores)[0] == "unsat"
    assert cores == [{(0, 1)}]


NAMES = ["a", "b", "c"]
atoms = st.builds(
    lambda op, cs, num, den: atom(op, dict(zip(NAMES, cs)), F(num, den)),
    st.sampled_from(["<=", "<", ">=", ">", "="]),
    st.lists(st.integers(-2, 2), min_size=3, max_size=3),
    st.integers(-4, 4), st.integers(1, 3))
formulas = st.recursive(
    st.one_of(atoms, st.sampled_from(["true", "false"])),
    lambda kids: st.one_of(
        st.builds(lambda ps: ("or", ps), st.lists(kids, max_size=3)),
        st.builds(lambda ps: ("and", ps), st.lists(kids, max_size=3)),
        st.builds(lambda p: ("not", p), kids)),
    max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(st.lists(formulas, min_size=1, max_size=4))
def test_every_unsat_answer_names_conjuncts_unsat_alone(assertions):
    cores = []
    verdict, _model = check_assertions(NAMES, assertions, cores=cores)
    if verdict == "sat":
        assert cores == []
        return
    (core,) = cores
    conjuncts = {(i, j): f for i, a in enumerate(assertions)
                 for j, f in enumerate(a[1] if a[0] == "and" else [a])}
    assert core and core <= conjuncts.keys()
    named = [conjuncts[tag] for tag in sorted(core)]
    assert check_assertions(NAMES, named)[0] == "unsat", sorted(core)
