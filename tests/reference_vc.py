"""The table-free pipeline behind each query that the run tables replaced:
`build_vc` replacing every conjunct again for every order
(`apply_replacement`), `emit_smt` printing every conjunct again
(`smt_formula`), and `SolverState.formula` lowering every comparison again.
Kept as the reference for the differential test of the tables
(`test_vc_differential.py`), which requires equal conditions, the same query
text and equal lowered atoms from both."""

from __future__ import annotations

from fractions import Fraction

from slicev.logic import (
    VC, AndF, EqF, FalseF, Formula, GeF, NotF, OrF, Replacement,
    Translated, TrueF, ValT, _window_sum, conj, envy_formula, order_formula,
    parts, rebuild,
)
from slicev.smtlib import SolverState
from slicev.solver import (
    SolverError, replacement_variables, smt_name, smt_term,
)


def apply_replacement(s: Replacement, f):
    """Rewrite valuation terms into sums (y - z_agent_y) over the order's
    windows; everything else is untouched."""
    if isinstance(f, ValT):
        return _window_sum(s, f.agent, f.piece)
    return rebuild(f, [apply_replacement(s, p) for p in parts(f)])


def build_vc(tr: Translated, s: Replacement, n_agents: int) -> VC:
    side = order_formula(s, n_agents)
    premise = apply_replacement(s, conj([tr.constraint, side]))
    goal = apply_replacement(s, envy_formula(tr.result, n_agents))
    return VC(premise, NotF(goal), s)


def smt_formula(f: Formula) -> str:
    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, FalseF):
        return "false"
    if isinstance(f, GeF):
        return f"(>= {smt_term(f.left)} {smt_term(f.right)})"
    if isinstance(f, EqF):
        return f"(= {smt_term(f.left)} {smt_term(f.right)})"
    if isinstance(f, NotF):
        return f"(not {smt_formula(f.arg)})"
    if isinstance(f, AndF):
        return "(and " + " ".join(smt_formula(i) for i in f.items) + ")"
    if isinstance(f, OrF):
        return "(or " + " ".join(smt_formula(i) for i in f.items) + ")"
    raise SolverError(f"cannot emit {f!r}")


def emit_smt(vc: VC, n_agents: int) -> str:
    ys, zs = replacement_variables(vc.replacement, n_agents)
    lines = [f"(declare-const {smt_name(v)} Real)" for v in [*ys, *zs]]
    lines.append(f"(assert {smt_formula(vc.antecedent)})")
    lines.append(f"(assert {smt_formula(vc.negated_goal)})")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


class ReferenceState(SolverState):
    """A `SolverState` that lowers every comparison it meets."""

    def formula(self, s):
        if s == "true":
            return "true"
        if s == "false":
            return "false"
        if isinstance(s, str):
            raise ValueError(f"boolean constant {s!r} unsupported")
        head = s[0]
        if head in ("and", "or"):
            return (head, [self.formula(p) for p in s[1:]])
        if head == "not":
            return ("not", self.formula(s[1]))
        if head == "=>":
            f = self.formula(s[1])
            for part in s[2:]:
                f = ("or", [("not", f), self.formula(part)])
            return f
        if head in ("<=", "<", ">=", ">", "="):
            # both sides into one dict:  coeffs . vars  head  const
            coeffs: dict = {}
            const = -self._add_linear(s[1], 1, coeffs)
            const -= self._add_linear(s[2], -1, coeffs)
            if len(s) > 3:
                raise ValueError("chained comparisons unsupported")
            return ("atom", head,
                    {v: Fraction(x) for v, x in coeffs.items() if x},
                    Fraction(const))
        raise ValueError(f"unsupported formula {s!r}")
