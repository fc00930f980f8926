import dataclasses
import random
from fractions import Fraction

import pytest

from slicev.logic import (
    AddT, Const, EqF, Formula, GeF, IntervalT, LeftT, NotF, OrF,
    PointAtomNotInS, ProjT, RightT, ScaleT, Term, TruthF, TupleT, UnionT,
    ValT, YVar, ZVar,
    ZERO_KEY, ONE_KEY, apply_replacement, build_vc, compatible_replacements,
    conjuncts, enumerate_replacements, envy_formula, eval_formula, is_linear,
    order_formula, ordering_facts, point_atoms,
    replacement_from_permutation, simplify, simplify_term, term_to_value,
    translate,
)
from slicev.paths import enumerate_paths
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
    assert simplify_term(tr.result) == TupleT((
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


# -- envy formula -----------------------------------------------------------------

def test_envy_two_agents_four_conjuncts():
    f = envy_formula(TupleT((UnionT((interval(c(0), c(1)),)),) * 2), 2)
    assert len(conjuncts(f)) == 4


def test_envy_three_agents_nine_conjuncts():
    f = envy_formula(TupleT((UnionT((interval(c(0), c(1)),)),) * 3), 3)
    assert len(conjuncts(f)) == 9


# -- simplification -----------------------------------------------------------------

def test_projection_of_tuple_literal():
    t = ProjT(2, TupleT((UnionT((interval(y(0), c(1)),)),
                         UnionT((interval(c(0), y(0)),)))))
    assert simplify_term(t) == UnionT((interval(c(0), y(0)),))


def test_endpoint_of_interval_literal():
    assert simplify_term(LeftT(interval(c(0), y(0)))) == c(0)
    assert simplify_term(RightT(interval(c(0), y(0)))) == y(0)


def _nodes(x):
    yield x
    for fld in dataclasses.fields(x):
        value = getattr(x, fld.name)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, (Term, Formula)):
                yield from _nodes(item)


def test_translation_is_in_normal_form():
    # the verify pipeline never calls simplify: translation must already
    # produce its normal form, on every path of the corpus
    unreduced = (ProjT, LeftT, RightT, TruthF)
    n_paths = 0
    for path_file in [*GOOD_PROTOCOLS.values(), *BAD_PROTOCOLS.values()]:
        program = load(path_file)
        for path in enumerate_paths(program.body):
            n_paths += 1
            tr = translate(path.expr)
            assert simplify(tr.constraint) == tr.constraint
            assert simplify_term(tr.result) == tr.result
            envy = envy_formula(tr.result, program.agents)
            for root in (tr.result, tr.constraint, envy):
                assert not any(isinstance(n, unreduced) for n in _nodes(root))
    assert n_paths == 4360


def test_boolean_terms_lift_to_formulas():
    tr = translate(next(enumerate_paths(
        parse_expr("if eval[1](@cake) >= eval[2](@cake) then cake else cake"))).expr)
    f = simplify(tr.constraint)
    assert GeF(ValT(1, interval(c(0), c(1))),
               ValT(2, interval(c(0), c(1)))) in conjuncts(f)


def test_simplification_preserves_truth():
    from slicev.logic import TAnd, TEq, TGe, TNot
    rng = random.Random(73)
    whole = interval(c(0), c(1))
    for _ in range(100):
        assign = {y(0): F(rng.randint(0, 8), 8), y(1): F(rng.randint(0, 8), 8)}
        vs = ValuationSet([PUValuation([(F(0), F(1))]),
                           PUValuation([(F(1, 4), F(3, 4))])])
        pieces = [whole, interval(c(0), y(0)), interval(y(1), c(1)),
                  UnionT((interval(c(0), y(0)), interval(y(1), c(1))))]
        t1 = ValT(rng.randint(1, 2), rng.choice(pieces))
        t2 = ValT(rng.randint(1, 2), rng.choice(pieces))
        raw = TruthF(rng.choice([
            TGe(t1, t2), TNot(TGe(t1, t2)), TAnd(TGe(t1, t2), TEq(t1, t1))]))
        simplified = simplify(raw)
        assert eval_formula(raw, vs, assign) == eval_formula(simplified, vs, assign)


# -- replacements --------------------------------------------------------------------

def test_enumerate_replacement_counts():
    assert len(list(enumerate_replacements([]))) == 1
    assert len(list(enumerate_replacements([0]))) == 1
    assert len(list(enumerate_replacements([0, 1]))) == 2
    assert len(list(enumerate_replacements([0, 1, 2]))) == 6


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


def test_point_atoms_of_formula(programs):
    tr = translate(first_path(programs, "cut_choose").expr)
    atoms = point_atoms(simplify(tr.constraint))
    assert atoms == {c(0), c(1), y(0)}


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
            for s in enumerate_replacements(tr.mark_ids):
                vc = build_vc(tr, s, program.agents)
                assert is_linear(vc.formula), name


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
