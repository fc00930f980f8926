import dataclasses
import functools
import operator
import random
import time
from fractions import Fraction

import pytest

from slicev import logic
from slicev.core import OP_GE, AssertE, Divide, Mark, Op, Split
from slicev.logic import (
    AddT, AndF, Const, EqF, FalseF, Formula, GeF, IntervalT,
    LogicError, NotF, OrF, PointAtomNotInS, ScaleT, Term, TrueF,
    TupleT, UnionT, ValT, YVar, ZVar,
    ZERO_KEY, ONE_KEY, apply_replacement, build_vc, compatible_replacements,
    conjuncts, envy_formula, eval_formula, left,
    VCTable, order_formula, ordering_facts, parts, proj, rebuild,
    replacement_from_permutation, right, simplify, subterms,
    term_to_value, translate,
)
from slicev.paths import enumerate_paths, select_path
from slicev.solver import lower_formula, path_replacements
from slicev.syntax import parse_expr
from slicev.valuation import PUValuation, ValuationSet, construct_agreeing_pu

from conftest import BAD_PROTOCOLS, GOOD_PROTOCOLS, load, random_pl_set

F = Fraction


def y(k):
    return YVar(k)


def z(a, k):
    return ZVar(a, k)


def c(v):
    return Const(F(v))


def minus(a, b):
    return AddT(a, ScaleT(F(-1), b))


def interval(lo, hi):
    return IntervalT(lo, hi)


def first_path(programs, name):
    return next(enumerate_paths(programs[name].body))


# -- result term and constraint (worked two-agent example) ----------------------

def test_cut_choose_result_term(programs):
    tr = translate(first_path(programs, "cut_choose").expr)
    assert tr.result == TupleT((
        UnionT((interval(y(0), c(1)),)),
        UnionT((interval(c(0), y(0)),))))


def test_cut_choose_constraint(programs):
    tr = translate(first_path(programs, "cut_choose").expr)
    got = set(conjuncts(simplify(tr.constraint)))
    assert got == {
        EqF(ValT(1, interval(c(0), y(0))),
            ScaleT(F(1, 2), ValT(1, interval(c(0), c(1))))),
        GeF(ValT(2, interval(c(0), y(0))), ValT(2, interval(y(0), c(1)))),
        # the divide side conditions bound the mark inside the whole cake
        GeF(y(0), c(0)),
        GeF(c(1), y(0)),
    }
    assert tr.mark_ids == (0,)


def test_value_literal_translates_to_itself():
    tr = translate(parse_expr("pc([0, 1/2])"))
    assert tr.result == UnionT((interval(c(0), c("1/2")),))
    assert conjuncts(tr.constraint) == []


def test_divide_clause_instantiation():
    tr = translate(parse_expr("divide(cake, mark[1](@cake, eval[1](@cake)))"))
    assert tr.result == TupleT((
        IntervalT(c(0), y(0)), IntervalT(y(0), c(1))))
    assert GeF(y(0), c(0)) in conjuncts(tr.constraint)
    assert GeF(c(1), y(0)) in conjuncts(tr.constraint)


def test_cake_path_has_empty_constraint():
    tr = translate(parse_expr("cake"))
    assert conjuncts(tr.constraint) == []


def test_divide_at_literal_zero():
    tr = translate(parse_expr("divide(cake, 0)"))
    atoms = conjuncts(simplify(tr.constraint))
    assert GeF(c(0), c(0)) in atoms
    assert GeF(c(1), c(0)) in atoms


# -- translation order (`compile` output depends on it) ---------------------------

def test_assert_guard_precedes_its_own_side_conditions():
    guard = parse_expr(
        "let a, b = split divide(cake, mark[1](@cake, 1/2 * eval[1](@cake))) "
        "in eval[1](@a) >= eval[1](@b)")
    tr = translate(AssertE(guard, parse_expr("divide(cake, 1/2)")))
    whole = interval(c(0), c(1))
    assert conjuncts(tr.constraint) == [
        # the lifted guard
        GeF(ValT(1, interval(c(0), y(0))), ValT(1, interval(y(0), c(1)))),
        # then the guard's mark and divide side conditions
        EqF(ValT(1, interval(c(0), y(0))), ScaleT(F(1, 2), ValT(1, whole))),
        GeF(y(0), c(0)),
        GeF(c(1), y(0)),
        # then the body's
        GeF(c("1/2"), c(0)),
        GeF(c(1), c("1/2")),
    ]


def test_mark_ids_come_out_in_pre_order():
    read_cake = parse_expr("@cake")
    inner = Mark(2, read_cake, parse_expr("eval[2](@cake)"), mark_id=4)
    target = Split(("a", "b"), Divide(parse_expr("cake"), inner),
                   parse_expr("eval[1](@a)"))
    outer = Mark(1, read_cake, target, mark_id=7)
    last = Mark(1, read_cake, parse_expr("eval[1](@cake)"), mark_id=1)
    tr = translate(Op(OP_GE, (outer, last)))
    assert tr.mark_ids == (7, 4, 1)
    # side conditions, by contrast, follow evaluation: the inner mark's first
    assert [x.left.piece.hi for x in conjuncts(tr.constraint)
            if isinstance(x, EqF)] == [y(4), y(7), y(1)]


def test_translate_rejects_an_unnumbered_mark():
    with pytest.raises(LogicError, match="mark without identifier"):
        translate(Mark(1, parse_expr("@cake"), parse_expr("eval[1](@cake)")))


def test_translate_of_an_if_gives_its_first_path():
    # the walk forks at an `if`; `translate` takes the first path, `then`
    e = parse_expr("if eval[1](@cake) >= eval[2](@cake) then cake "
                   "else divide(cake, 1/2)")
    assert translate(e) == translate(select_path(e, {e.if_id: True}))


def test_translate_rejects_a_guard_that_is_not_boolean():
    # the typechecker keeps such a path out of the pipeline; built by hand,
    # its guard translates to a term, which cannot go into the constraint
    for guard in ("eval[1](@cake)", "cake"):
        with pytest.raises(LogicError, match="not a boolean guard"):
            translate(AssertE(parse_expr(guard), parse_expr("cake")))


# -- envy formula -----------------------------------------------------------------

def test_envy_two_agents_four_conjuncts():
    f = envy_formula(TupleT((UnionT((interval(c(0), c(1)),)),) * 2), 2)
    assert len(conjuncts(f)) == 4


def test_envy_three_agents_nine_conjuncts():
    f = envy_formula(TupleT((UnionT((interval(c(0), c(1)),)),) * 3), 3)
    assert len(conjuncts(f)) == 9


# -- selectors and node kinds --------------------------------------------------------

def test_projection_of_tuple_literal():
    t = TupleT((UnionT((interval(y(0), c(1)),)),
                UnionT((interval(c(0), y(0)),))))
    assert proj(2, t) == UnionT((interval(c(0), y(0)),))


def test_endpoint_of_interval_literal():
    assert left(interval(c(0), y(0))) == c(0)
    assert right(interval(c(0), y(0))) == y(0)


def test_selectors_reject_what_they_cannot_select_from():
    # the IR has no selector nodes: a projection of anything but a tuple,
    # or an endpoint of anything but an interval, is an error
    piece = UnionT((interval(c(0), y(0)),))
    for t in (piece, interval(c(0), y(0)), y(0), ValT(1, piece)):
        with pytest.raises(LogicError, match="projection of a non-tuple"):
            proj(1, t)
    for t in (piece, TupleT((interval(c(0), y(0)),)), y(0), c(1)):
        with pytest.raises(LogicError, match="left endpoint of a non-interval"):
            left(t)
        with pytest.raises(LogicError, match="right endpoint of a non-interval"):
            right(t)


def _kinds(base):
    """The subclasses of `base` that the logic module defines."""
    return {k for k in vars(logic).values() if isinstance(k, type)
            and issubclass(k, base) and k is not base
            and k.__module__ == logic.__name__}


def test_the_ir_has_sixteen_node_kinds():
    terms = {logic.Const, logic.YVar, logic.ZVar, logic.IntervalT,
             logic.UnionT, logic.TupleT, logic.ValT, logic.AddT, logic.ScaleT}
    formulas = {logic.TrueF, logic.FalseF, logic.GeF, logic.EqF, logic.NotF,
                logic.AndF, logic.OrF}
    assert _kinds(Term) == terms
    assert _kinds(Formula) == formulas
    assert len(terms | formulas) == 16


@functools.cache
def _field_names(kind):
    return [fld.name for fld in dataclasses.fields(kind)]


def _node_fields(x):
    """The node-valued dataclass fields of `x`, in field order."""
    out = []
    for name in _field_names(type(x)):
        value = getattr(x, name)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, (Term, Formula)):
                out.append(item)
    return out


def _nodes(x):
    yield x
    for item in _node_fields(x):
        yield from _nodes(item)


def test_translation_is_in_normal_form():
    # the verify pipeline never calls simplify: translation must already
    # produce its normal form, on every path of the corpus, and every
    # result is a tuple with a component per agent, so the envy goal's
    # projections select (`proj` raises otherwise)
    n_paths = 0
    for path_file in [*GOOD_PROTOCOLS.values(), *BAD_PROTOCOLS.values()]:
        program = load(path_file)
        for path in enumerate_paths(program.body):
            n_paths += 1
            tr = translate(path.expr)
            assert simplify(tr.constraint) == tr.constraint
            assert simplify(tr.result) == tr.result
            envy = envy_formula(tr.result, program.agents)
            assert simplify(envy) == envy
    assert n_paths == 4360


def _check_shapes(root, seen: dict):
    """Check every node under `root` not in `seen` (id -> node, kept so
    that the ids stay their own), and add it there."""
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        kids = parts(node)
        assert list(kids) == _node_fields(node)
        assert rebuild(node, kids) == node
        stack.extend(kids)


def test_parts_and_rebuild_follow_the_dataclass_fields():
    # `parts`/`rebuild` spell out each node's shape once; the reflection
    # oracle `_node_fields` reads it off the dataclass fields instead
    n_paths = 0
    for path_file in [*GOOD_PROTOCOLS.values(), *BAD_PROTOCOLS.values()]:
        program, table = load(path_file), VCTable()   # one run per protocol
        seen = {}   # the nodes checked so far; the run shares many
        for path in enumerate_paths(program.body):
            n_paths += 1
            tr = translate(path.expr)
            _check_shapes(tr.result, seen)
            _check_shapes(tr.constraint, seen)
            for s in path_replacements(tr, prune=True)[0]:
                vc = build_vc(tr, s, program.agents, table)
                _check_shapes(vc.antecedent, seen)
                _check_shapes(vc.negated_goal, seen)
    assert n_paths == 4360
    p = interval(c(0), y(0))
    pair = TupleT((p, UnionT((interval(y(0), c(1)),))))
    hand_built = [
        pair, ScaleT(F(1, 3), ValT(2, p)),
        AndF((OrF((NotF(TrueF()), GeF(y(0), c(0)))),
              EqF(ValT(1, UnionT((p, p))), z(1, ONE_KEY)))),
        OrF((GeF(AddT(y(0), c(0)), c(1)), NotF(EqF(y(0), c(1))), FalseF())),
    ]
    for node in hand_built:
        _check_shapes(node, {})
        walked, oracle = list(subterms(node)), list(_nodes(node))
        assert len(walked) == len(oracle)
        assert all(map(operator.is_, walked, oracle))
    # the fields that are not nodes survive a rebuild with new parts
    assert rebuild(ValT(3, p), [pair]) == ValT(3, pair)
    assert rebuild(ScaleT(F(1, 3), y(0)), [y(1)]) == ScaleT(F(1, 3), y(1))


def test_guards_translate_to_formulas():
    tr = translate(next(enumerate_paths(
        parse_expr("if eval[1](@cake) >= eval[2](@cake) then cake else cake"))).expr)
    f = simplify(tr.constraint)
    assert GeF(ValT(1, interval(c(0), c(1))),
               ValT(2, interval(c(0), c(1)))) in conjuncts(f)


def test_simplification_preserves_truth():
    # `simplify` only flattens conjunctions, here nested under every kind
    # of formula
    rng = random.Random(73)
    whole = interval(c(0), c(1))
    pair = TupleT((interval(c(0), y(0)), interval(y(1), c(1))))
    for _ in range(100):
        assign = {y(0): F(rng.randint(0, 8), 8), y(1): F(rng.randint(0, 8), 8)}
        vs = ValuationSet([PUValuation([(F(0), F(1))]),
                           PUValuation([(F(1, 4), F(3, 4))])])
        pieces = [whole, proj(1, pair), proj(2, pair),
                  UnionT((proj(1, pair), proj(2, pair)))]
        points = [left(proj(2, pair)), right(proj(1, pair)), right(whole)]
        t1 = ValT(rng.randint(1, 2), rng.choice(pieces))
        t2 = ValT(rng.randint(1, 2), rng.choice(pieces))
        p1, p2 = rng.choice(points), rng.choice(points)
        inner = AndF((GeF(p1, p2), AndF((EqF(t1, t1), TrueF()))))
        raw = rng.choice([
            AndF((GeF(t1, t2), inner)), NotF(inner),
            OrF((NotF(GeF(t1, t2)), inner)), AndF((inner, inner))])
        simplified = simplify(raw)
        for node in subterms(simplified):
            if isinstance(node, AndF):
                assert not any(isinstance(i, (AndF, TrueF)) for i in node.items)
        assert eval_formula(raw, vs, assign) == eval_formula(simplified, vs, assign)


# -- replacements --------------------------------------------------------------------

def all_orders(yids):
    return compatible_replacements(yids, ([], []))


def test_enumerate_replacement_counts():
    assert len(all_orders([])) == 1
    assert len(all_orders([0])) == 1
    assert len(all_orders([0, 1])) == 2
    assert len(all_orders([0, 1, 2])) == 6


def test_long_chain_enumerates_one_order_quickly():
    # y0 <= y1 <= ... <= y11: the m! = 479,001,600 permutations are never
    # generated, only the chain's single linear extension
    chain = ([(k, k + 1) for k in range(11)], [])
    start = time.perf_counter()
    kept = compatible_replacements(range(12), chain)
    seconds = time.perf_counter() - start
    assert [r.order for r in kept] == [(ZERO_KEY, *range(12), ONE_KEY)]
    assert seconds < 0.010


def test_single_window_replacements():
    s = replacement_from_permutation([0])
    assert apply_replacement(s, ValT(3, interval(c(0), y(0)))) == \
        minus(y(0), z(3, 0))
    assert apply_replacement(s, ValT(3, interval(y(0), c(1)))) == \
        minus(c(1), z(3, ONE_KEY))


def test_empty_window_becomes_zero():
    s = replacement_from_permutation([0])
    assert apply_replacement(s, ValT(1, interval(y(0), y(0)))) == c(0)


def test_union_windows_deduplicate():
    s = replacement_from_permutation([0, 1])
    t = ValT(1, UnionT((interval(c(0), y(1)), interval(y(0), y(1)))))
    out = apply_replacement(s, t)
    # the window of the union is {y0, y1}: each element appears once
    assert out == AddT(minus(y(0), z(1, 0)), minus(y(1), z(1, 1)))


def test_replacement_of_example_constraint(programs):
    tr = translate(first_path(programs, "cut_choose").expr)
    s = replacement_from_permutation([0])
    sc = apply_replacement(s, simplify(tr.constraint))
    whole_sum = AddT(minus(y(0), z(1, 0)), minus(c(1), z(1, ONE_KEY)))
    assert EqF(minus(y(0), z(1, 0)), ScaleT(F(1, 2), whole_sum)) \
        in conjuncts(sc)
    assert GeF(minus(y(0), z(2, 0)), minus(c(1), z(2, ONE_KEY))) \
        in conjuncts(sc)


def test_replacement_of_envy(programs):
    tr = translate(first_path(programs, "cut_choose").expr)
    s = replacement_from_permutation([0])
    se = apply_replacement(s, simplify(envy_formula(tr.result, 2)))
    atoms = conjuncts(se)
    # agent 2 keeps its own half; agent 1 prefers its own piece
    assert GeF(minus(y(0), z(2, 0)), minus(c(1), z(2, ONE_KEY))) in atoms
    assert GeF(minus(c(1), z(1, ONE_KEY)), minus(y(0), z(1, 0))) in atoms


def test_point_atom_outside_order_rejected():
    s = replacement_from_permutation([])
    with pytest.raises(PointAtomNotInS):
        apply_replacement(s, ValT(1, interval(c(0), c("1/3"))))


# -- the side formula -------------------------------------------------------------

def test_order_formula_two_agents_single_mark():
    s = replacement_from_permutation([0])
    parts = conjuncts(order_formula(s, 2))
    for a in (1, 2):
        assert GeF(z(a, 0), c(0)) in parts
        assert GeF(y(0), z(a, 0)) in parts
        assert GeF(z(a, ONE_KEY), y(0)) in parts
        assert GeF(c(1), z(a, ONE_KEY)) in parts
    sums = [p for p in parts if isinstance(p, EqF)]
    assert len(sums) == 1        # one support-mass equality for the pair
    positivity = [p for p in parts if isinstance(p, NotF)]
    assert len(positivity) == 2  # strict positivity per agent


def test_order_formula_single_agent_no_equality():
    s = replacement_from_permutation([0])
    parts = conjuncts(order_formula(s, 1))
    assert not [p for p in parts if isinstance(p, EqF)]


def test_order_formula_chain_length():
    s = replacement_from_permutation([0, 1])
    parts = conjuncts(order_formula(s, 1))
    bound_atoms = [p for p in parts if isinstance(p, GeF)]
    # three elements beyond zero (y0, y1, one): two bounds each plus the cap
    assert len(bound_atoms) == 7


# -- verification conditions ----------------------------------------------------------

def test_vcs_are_linear(programs):
    for name in ("cut_choose", "surplus", "waste_makes_haste3"):
        program = programs[name]
        for path in enumerate_paths(program.body):
            tr = translate(path.expr)
            for s in all_orders(tr.mark_ids):
                vc = build_vc(tr, s, program.agents)
                lower_formula(vc.antecedent)     # raises on a non-linear node
                lower_formula(vc.negated_goal)


# -- ordering facts and pruning ---------------------------------------------------------

def test_ordering_facts_from_divide_chain(programs):
    tr = translate(first_path(programs, "surplus").expr)
    nonstrict, strict = ordering_facts(simplify(tr.constraint))
    assert (0, 1) in nonstrict   # first mark left of the second on this path
    assert strict == []


def test_negated_guard_gives_strict_fact(programs):
    paths = list(enumerate_paths(programs["surplus"].body))
    tr = translate(paths[1].expr)  # the else-branch asserts not(m2 >= m1)
    nonstrict, strict = ordering_facts(simplify(tr.constraint))
    assert (1, 0) in strict


def test_compatible_orders_respect_total_order():
    kept = compatible_replacements([0, 1], ([(0, 1)], []))
    assert [r.order for r in kept] == [(ZERO_KEY, 0, 1, ONE_KEY)]


def test_contradictory_strict_fact_prunes_everything():
    kept = compatible_replacements([0, 1], ([(0, 1)], [(1, 0)]))
    assert kept == []


def test_unrelated_marks_keep_all_orders():
    kept = compatible_replacements([0, 1], ([], []))
    assert len(kept) == 2


def test_tie_keeps_canonical_witness():
    kept = compatible_replacements([0, 1], ([(0, 1), (1, 0)], []))
    assert [r.order for r in kept] == [(ZERO_KEY, 0, 1, ONE_KEY)]


# -- compatibility triple soundness (replacement preserves truth) -------------------------

def _compatible_triple(rng):
    """Generate (S, assignment, easily-replaceable PU set) satisfying the
    compatibility conditions, via the agreeing-PU construction.

    The first element carrying each point value takes the support interval's
    left endpoint; later elements with the same value collapse onto it so
    window sums never count a gap twice.
    """
    n_agents = rng.randint(1, 3)
    k = rng.randint(1, 3)
    vs = random_pl_set(rng, n_agents)
    values = sorted(F(rng.randint(0, 12), 12) for _ in range(k))
    pts = sorted({F(0), F(1), *values})
    pu = construct_agreeing_pu(vs, pts)
    s = replacement_from_permutation(list(range(k)))
    assign = {}
    by_right = [dict() for _ in range(n_agents)]
    for a in range(n_agents):
        for lo, hi in pu.agent(a + 1).support:
            by_right[a][hi] = lo
    first_seen = set()
    for i, v in enumerate(values):
        assign[y(i)] = v
        is_first = v not in first_seen
        first_seen.add(v)
        for a in range(n_agents):
            if not is_first:
                assign[z(a + 1, i)] = v
            elif v == 0:
                assign[z(a + 1, i)] = F(0)
            else:
                assign[z(a + 1, i)] = by_right[a][v]
    for a in range(n_agents):
        if F(1) in first_seen:
            assign[z(a + 1, ONE_KEY)] = F(1)
        else:
            assign[z(a + 1, ONE_KEY)] = by_right[a][F(1)]
    return s, assign, pu, n_agents, values


def test_replacement_preserves_truth_on_compatible_triples():
    rng = random.Random(79)
    for _ in range(150):
        s, assign, pu, n_agents, values = _compatible_triple(rng)
        pieces = [IntervalT(c(0), y(i)) for i in range(len(values))]
        pieces += [IntervalT(y(i), c(1)) for i in range(len(values))]
        pieces.append(IntervalT(c(0), c(1)))
        if len(values) >= 2:
            pieces.append(UnionT((IntervalT(c(0), y(0)),
                                  IntervalT(y(1), c(1)))))
        t1 = ValT(rng.randint(1, n_agents), rng.choice(pieces))
        t2 = ValT(rng.randint(1, n_agents), rng.choice(pieces))
        f = rng.choice([GeF(t1, t2), EqF(t1, t2),
                        NotF(GeF(t1, t2)),
                        OrF((GeF(t1, t2), EqF(t2, t2)))])
        before = eval_formula(f, pu, assign)
        after = eval_formula(apply_replacement(s, f), pu, assign)
        assert before == after


# -- numeric evaluation helpers -----------------------------------------------------

def test_term_to_value_reconstructs_allocation(programs):
    tr = translate(first_path(programs, "cut_choose").expr)
    v = term_to_value(tr.result, {y(0): F(1, 2)})
    from slicev.core import IntervalVal, PieceVal, TupleVal
    assert v == TupleVal((PieceVal((IntervalVal(F(1, 2), F(1)),)),
                          PieceVal((IntervalVal(F(0), F(1, 2)),))))
