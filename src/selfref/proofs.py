"""A checkable Hilbert calculus over the ordered successor fragment.

Proofs are sequences of formulas, each justified by a theory axiom, a
logical axiom scheme, modus ponens, or generalization.  The checker is
the sole authority: the bounded search, the provability oracle, and
every demo below produce objects that must survive check_proof, and
the prf relation plugged into the semantics decodes integer codes back
into proof objects and re-checks them from scratch.

The theory is Robinson-style arithmetic over successor-as-plus-one
together with two ordering axioms: nothing sits below zero, and being
below a successor means being below or equal to the base.  The scheme
list is fixed and published: ``_SCHEMES`` builds each data-free scheme
(the checker and the bounded search both read it), and ``_DATA_SCHEMES``
checks the three that carry data (leibniz, inst, ex_intro).  The
checker accepts nothing else, so a proof code is meaningful relative to
this exact calculus.

Everything downstream of the checker stays on the sound side of the
standard model: theories carry a declared soundness flag, consistency
is only ever witnessed by a certified-true theorem of a declared-sound
theory, and finding a proof of a certified-true sentence's negation
raises an alarm instead of returning quietly.
"""
from __future__ import annotations

import inspect
import itertools
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Union

from .bignat import as_int
from .coding import NotACode, decode, quote
from .diagonal import (FixedPointCertificate, diagonal_sentence,
                       normalize_psi, taut_equiv)
from .enumeration import formulas_of_length
from .parser import parse_formula, parse_term
from .semantics import (Budget, OracleEnv, OracleUndecided, Truth, Unknown,
                        WitnessMap, evaluate, standard_oracle_env, t_iff)
from .syntax import (Add, And, Eq, Exists, Forall, Formula, Iff, Implies, Lt,
                     Mul, Nat, Not, One, Or, OracleAtom, OracleFun, Term, Var,
                     Zero, free_vars, numeral, preorder, render,
                     substitute, _children)

__all__ = [
    "Axiom", "CheckReport", "ConsistentBySoundness",
    "Generalization", "InconsistencyAlarm", "LogicalAxiom", "ModusPonens",
    "NotFound", "ProofFormatError", "ProofObject", "ProofStep",
    "RefutedByProof", "RemarkReport", "RosserConstruction", "SearchExhausted",
    "SearchReport", "TheoryHandle", "Unknown", "WeakDLReport",
    "bounded_proof_search", "check_proof", "check_proof_report",
    "consistency_witness", "decode_proof_code", "fixture_path",
    "goedel_sentence", "load_fixture_proof", "make_prf", "neg_neg_proof",
    "not_below_zero_proof", "parse_proof", "pr_formula", "pr_sentence",
    "proof_code", "proofs_env", "remark_demo", "remark_one_proof",
    "rosser_pr_formula", "rosser_psi",
    "rosser_sentence", "search_report", "sentence_stream", "serialize_proof",
    "standard_theory", "successor_bound_proof", "tb_stream",
    "weak_dl_equivalence_demo",
]

# pool caps for the bounded search: formulas and terms above these token
# counts never enter a schema template, though they may still appear as
# goals, premises, or instantiation results
_POOL_FORMULA_LEN = 64
_POOL_TERM_LEN = 16
# the search's term pool holds the numerals 0..3 beside the goal's terms
_NUMERAL_BOUND = 3


class ProofFormatError(ValueError):
    """Raised when a serialized proof cannot be parsed back."""


class InconsistencyAlarm(Exception):
    """A certified-true sentence acquired a checked refutation."""


class SearchExhausted(Exception):
    """A scan ran out of candidates before meeting its success condition."""


# -- justifications and proof objects -------------------------------------------------


@dataclass(frozen=True)
class Axiom:
    axiom_id: str


@dataclass(frozen=True)
class LogicalAxiom:
    schema: str
    data: tuple = ()


@dataclass(frozen=True)
class ModusPonens:
    implication: int
    antecedent: int


@dataclass(frozen=True)
class Generalization:
    premise: int
    var_index: int


Justification = Union[Axiom, LogicalAxiom, ModusPonens, Generalization]


class ProofStep(NamedTuple):
    formula: Formula
    justification: Justification


@dataclass(frozen=True)
class ProofObject:
    steps: tuple[ProofStep, ...]

    @property
    def conclusion(self) -> Formula:
        if not self.steps:
            raise ValueError("empty proof has no conclusion")
        return self.steps[-1].formula


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    failed_step: Optional[int] = None
    reason: str = ""


# -- the theory ------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoryHandle:
    """A named theory: its axioms by id, and a soundness claim.

    Axioms added to a theory are addressed as extra0, extra1, ... in
    proof justifications.  The soundness flag is a declaration, not a
    computation; the consistency witness below refuses the soundness
    route without it.
    """

    name: str
    axioms: tuple[tuple[str, Formula], ...]
    sound_for_standard_model: bool = True

    def axiom_formula(self, axiom_id: str) -> Formula:
        for aid, phi in self.axioms:
            if aid == axiom_id:
                return phi
        raise KeyError(axiom_id)

    def extend(self, name: str, extra: tuple[Formula, ...],
               sound: bool) -> "TheoryHandle":
        """This theory plus extra axioms, numbered after its own."""
        n = sum(aid.startswith("extra") for aid, _ in self.axioms)
        return TheoryHandle(name, self.axioms + tuple(
            (f"extra{n + i}", phi) for i, phi in enumerate(extra)), sound)


@lru_cache(maxsize=1)
def standard_theory() -> TheoryHandle:
    """Successor, addition, multiplication, and order over x+1."""
    x, y = Var(0), Var(1)

    def s(t: Term) -> Term:
        return Add(t, One())

    return TheoryHandle("robinson-order", (
        ("q1", Forall(x, Not(Eq(s(x), Zero())))),
        ("q2", Forall(x, Forall(y, Implies(Eq(s(x), s(y)), Eq(x, y))))),
        ("q3", Forall(x, Implies(Not(Eq(x, Zero())),
                                 Exists(y, Eq(x, s(y)))))),
        ("q4", Forall(x, Eq(Add(x, Zero()), x))),
        ("q5", Forall(x, Forall(y, Eq(Add(x, s(y)), s(Add(x, y)))))),
        ("q6", Forall(x, Eq(Mul(x, Zero()), Zero()))),
        ("q7", Forall(x, Forall(y, Eq(Mul(x, s(y)), Add(Mul(x, y), x))))),
        ("o1", Forall(x, Not(Lt(x, Zero())))),
        ("o2", Forall(x, Forall(y, Iff(Lt(x, s(y)),
                                       Or(Lt(x, y), Eq(x, y)))))),
    ))


# -- logical axiom schemes -------------------------------------------------------------
# Each data-free scheme is one builder from metavariables to its instance.
# The checker matches a claimed instance against the builder's pattern and
# the bounded search builds instances by group programs compiled from the
# patterns (``_program``); in ex_elim and gen_vac v must also not be free
# in c.


_SCHEMES: dict[str, Callable[..., Formula]] = {
    "k": lambda a, b: Implies(a, Implies(b, a)),
    "s": lambda a, b, c: Implies(Implies(a, Implies(b, c)),
                                 Implies(Implies(a, b), Implies(a, c))),
    "contr": lambda a, b: Implies(Implies(Not(a), Not(b)), Implies(b, a)),
    "contrapose2": lambda a, b: Implies(Implies(a, Not(b)),
                                        Implies(b, Not(a))),
    "dn_intro": lambda a: Implies(a, Not(Not(a))),
    "dn_elim": lambda a: Implies(Not(Not(a)), a),
    "absurd": lambda a, b: Implies(a, Implies(Not(a), b)),
    "and_intro": lambda a, b: Implies(a, Implies(b, And(a, b))),
    "and_left": lambda a, b: Implies(And(a, b), a),
    "and_right": lambda a, b: Implies(And(a, b), b),
    "or_left": lambda a, b: Implies(a, Or(a, b)),
    "or_right": lambda a, b: Implies(b, Or(a, b)),
    "or_elim": lambda a, b, c: Implies(Implies(a, c),
                                       Implies(Implies(b, c),
                                               Implies(Or(a, b), c))),
    "iff_intro": lambda a, b: Implies(Implies(a, b),
                                      Implies(Implies(b, a), Iff(a, b))),
    "iff_left": lambda a, b: Implies(Iff(a, b), Implies(a, b)),
    "iff_right": lambda a, b: Implies(Iff(a, b), Implies(b, a)),
    "refl": lambda t: Eq(t, t),
    "ex_elim": lambda v, b, c: Implies(Forall(v, Implies(b, c)),
                                       Implies(Exists(v, b), c)),
    "gen_vac": lambda v, c: Implies(c, Forall(v, c)),
    "dist": lambda v, a, b: Implies(Forall(v, Implies(a, b)),
                                    Implies(Forall(v, a), Forall(v, b))),
}
_FRESH_IN_C = ("ex_elim", "gen_vac")


class _Meta(str):
    """A metavariable of a scheme pattern, named after a builder parameter.

    It carries the facts the node constructors read from a child, so the
    builders accept it in any position; ``None`` stands in for its hash.
    """

    fv = frozenset()
    length = 0
    height = 0
    index = None
    _hash = None


_PATTERNS = {name: build(*map(_Meta, inspect.signature(build).parameters))
             for name, build in _SCHEMES.items()}


def _match(pattern, node, binding: dict) -> bool:
    """Structural match that binds each metavariable to one subtree."""
    if isinstance(pattern, _Meta):
        return binding.setdefault(pattern, node) == node
    if type(node) is not type(pattern):
        return False
    for field in pattern._fields:
        if not _match(getattr(pattern, field), getattr(node, field), binding):
            return False
    return True


def _check_pattern(name: str, f) -> Optional[str]:
    binding: dict = {}
    if not _match(_PATTERNS[name], f, binding):
        return "not an instance of the scheme"
    if name in _FRESH_IN_C and binding["v"].index in free_vars(binding["c"]):
        return "its variable v is free in c"
    return None


# The three schemes that carry data keep a checker of their own; each
# returns None on success or a reason string.

def _chk_leibniz(f, data):
    # data = (var_index, template): t=u -> (template[v:=t] -> template[v:=u])
    if len(data) != 2 or not isinstance(data[0], int) \
            or not isinstance(data[1], Formula):
        return "leibniz needs (var index, template formula)"
    v, template = data
    if (isinstance(f, Implies) and isinstance(f.left, Eq)
            and isinstance(f.right, Implies)):
        t, u = f.left.left, f.left.right
        if (f.right.left == substitute(template, v, t)
                and f.right.right == substitute(template, v, u)):
            return None
    return "not an equality-substitution instance of the template"


def _chk_inst(f, data):
    # data = (term,): ∀v(body) -> body[v:=term]
    if len(data) != 1 or not isinstance(data[0], Term):
        return "inst needs one witness term"
    if isinstance(f, Implies) and isinstance(f.left, Forall):
        body, v = f.left.body, f.left.var.index
        if f.right == substitute(body, v, data[0]):
            return None
    return "not a universal-instantiation instance"


def _chk_ex_intro(f, data):
    # data = (term,): body[v:=term] -> ∃v(body)
    if len(data) != 1 or not isinstance(data[0], Term):
        return "ex_intro needs one witness term"
    if isinstance(f, Implies) and isinstance(f.right, Exists):
        body, v = f.right.body, f.right.var.index
        if f.left == substitute(body, v, data[0]):
            return None
    return "not an existential-introduction instance"


_DATA_SCHEMES: dict[str, Callable] = {
    "leibniz": _chk_leibniz, "inst": _chk_inst, "ex_intro": _chk_ex_intro,
}


# -- the checker -----------------------------------------------------------------------


def check_proof_report(proof: ProofObject, theory: TheoryHandle
                       ) -> CheckReport:
    """Validate every step; the first failure wins."""
    if not proof.steps:
        return CheckReport(False, None, "empty proof")
    for i, step in enumerate(proof.steps):
        f, j = step.formula, step.justification
        if isinstance(j, Axiom):
            try:
                expected = theory.axiom_formula(j.axiom_id)
            except KeyError:
                return CheckReport(False, i, f"unknown axiom {j.axiom_id}")
            if f != expected:
                return CheckReport(False, i,
                                   f"formula is not axiom {j.axiom_id}")
        elif isinstance(j, LogicalAxiom):
            if j.schema in _DATA_SCHEMES:
                reason = _DATA_SCHEMES[j.schema](f, j.data)
            elif j.schema in _PATTERNS:
                reason = ("takes no data" if j.data
                          else _check_pattern(j.schema, f))
            else:
                return CheckReport(False, i, f"unknown scheme {j.schema}")
            if reason is not None:
                return CheckReport(False, i, f"{j.schema}: {reason}")
        elif isinstance(j, ModusPonens):
            if not (0 <= j.implication < i and 0 <= j.antecedent < i):
                return CheckReport(False, i,
                                   "modus ponens reference index out of range")
            imp = proof.steps[j.implication].formula
            ant = proof.steps[j.antecedent].formula
            if not isinstance(imp, Implies):
                return CheckReport(False, i, "cited step is not an implication")
            if imp.left != ant:
                return CheckReport(False, i, "antecedent does not match")
            if imp.right != f:
                return CheckReport(False, i, "consequent does not match")
        elif isinstance(j, Generalization):
            if not 0 <= j.premise < i:
                return CheckReport(False, i,
                                   "generalization reference index out of range")
            prem = proof.steps[j.premise].formula
            if f != Forall(Var(j.var_index), prem):
                return CheckReport(False, i,
                                   "not the universal closure of the premise")
        else:
            return CheckReport(False, i, "unknown justification kind")
    return CheckReport(True)


def check_proof(proof: ProofObject, theory: TheoryHandle,
                conclusion: Optional[Formula] = None) -> bool:
    report = check_proof_report(proof, theory)
    if not report.ok:
        return False
    return conclusion is None or proof.conclusion == conclusion


# -- serialization and codes -----------------------------------------------------------


def _just_text(j: Justification) -> str:
    if isinstance(j, Axiom):
        return f"axiom {j.axiom_id}"
    if isinstance(j, LogicalAxiom):
        if j.schema in ("inst", "ex_intro"):
            return f"logic {j.schema} {render(j.data[0], compact=True)}"
        if j.schema == "leibniz":
            return (f"logic leibniz {j.data[0]} "
                    f"{render(j.data[1], compact=True)}")
        return f"logic {j.schema}"
    if isinstance(j, ModusPonens):
        return f"mp {j.implication} {j.antecedent}"
    if isinstance(j, Generalization):
        return f"gen {j.premise} {j.var_index}"
    raise TypeError(f"not a justification: {j!r}")


def _just_parse(text: str) -> Justification:
    parts = text.split(" ")
    kind = parts[0]
    try:
        if kind == "axiom" and len(parts) == 2:
            return Axiom(parts[1])
        if kind == "mp" and len(parts) == 3:
            return ModusPonens(int(parts[1]), int(parts[2]))
        if kind == "gen" and len(parts) == 3:
            return Generalization(int(parts[1]), int(parts[2]))
        if kind == "logic" and len(parts) >= 2:
            schema = parts[1]
            if schema in ("inst", "ex_intro") and len(parts) == 3:
                return LogicalAxiom(schema, (parse_term(parts[2]),))
            if schema == "leibniz" and len(parts) == 4:
                return LogicalAxiom(schema,
                                    (int(parts[2]), parse_formula(parts[3])))
            if len(parts) == 2:
                return LogicalAxiom(schema)
    except (ValueError, SyntaxError) as exc:
        raise ProofFormatError(f"bad justification {text!r}") from exc
    raise ProofFormatError(f"bad justification {text!r}")


def serialize_proof(proof: ProofObject) -> str:
    """One line per step: index, compact rendering, justification."""
    lines = []
    for i, step in enumerate(proof.steps):
        lines.append(f"{i}\t{render(step.formula, compact=True)}"
                     f"\t{_just_text(step.justification)}")
    return "".join(line + "\n" for line in lines)


def parse_proof(text: str) -> ProofObject:
    steps = []
    for raw in text.splitlines():
        line = raw.strip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ProofFormatError(f"expected 3 tab fields: {line!r}")
        index_text, formula_text, just_text = fields
        try:
            index = int(index_text)
            formula = parse_formula(formula_text)
        except (ValueError, SyntaxError) as exc:
            raise ProofFormatError(str(exc)) from exc
        if index != len(steps):
            raise ProofFormatError(f"step numbered {index}, "
                                   f"expected {len(steps)}")
        steps.append(ProofStep(formula, _just_parse(just_text)))
    if not steps:
        raise ProofFormatError("no proof steps")
    return ProofObject(tuple(steps))


def proof_code(proof: ProofObject) -> int:
    """The serialized text read as a big-endian integer over utf-8 bytes."""
    return int.from_bytes(serialize_proof(proof).encode("utf-8"), "big")


def decode_proof_code(code: Nat) -> Optional[ProofObject]:
    """Total inverse of proof_code: None whenever anything goes wrong."""
    code = as_int(code)
    if code is None or code <= 0:
        return None
    try:
        raw = code.to_bytes((code.bit_length() + 7) // 8, "big")
        return parse_proof(raw.decode("utf-8"))
    except (UnicodeDecodeError, ProofFormatError, OverflowError):
        return None


# -- the provability relation ----------------------------------------------------------


def make_prf(theory: TheoryHandle) -> Callable[[Nat, Nat], bool]:
    """prf(p, s): p codes a checked proof in the theory concluding the
    sentence coded by s.  Total on materializable inputs; codes too large
    to even materialize stay undecided."""
    def prf(p: Nat, s: Nat) -> bool:
        p_int, s_int = as_int(p), as_int(s)
        if p_int is None or s_int is None:
            raise OracleUndecided("proof code beyond materializable range")
        proof = decode_proof_code(p_int)
        if proof is None:
            return False
        try:
            target = decode(s_int)
        except NotACode:
            return False
        if not isinstance(target, Formula) or free_vars(target):
            return False
        return check_proof(proof, theory, conclusion=target)
    return prf


def proofs_env(theory: TheoryHandle) -> OracleEnv:
    return standard_oracle_env(prf=make_prf(theory))


def pr_formula() -> Formula:
    """Some number codes a proof of x."""
    return Exists(Var(1), OracleAtom("prf", (Var(1), Var(0))))


def rosser_pr_formula() -> Formula:
    """Some proof of x has no shorter-coded proof of its negation."""
    x, p, q = Var(0), Var(1), Var(2)
    return Exists(p, And(OracleAtom("prf", (p, x)),
                         Forall(q, Implies(Lt(q, p),
                                           Not(OracleAtom(
                                               "prf",
                                               (q, OracleFun("neg", (x,)))))))))


def rosser_psi() -> Formula:
    """Every proof of x is outrun by a smaller-coded proof of its negation."""
    x, p, q = Var(0), Var(1), Var(2)
    return Forall(p, Implies(OracleAtom("prf", (p, x)),
                             Exists(q, And(Lt(q, p),
                                           OracleAtom(
                                               "prf",
                                               (q, OracleFun("neg", (x,))))))))


def pr_sentence(sentence: Formula) -> Formula:
    return substitute(pr_formula(), 0, quote(sentence))


# -- fixture proofs --------------------------------------------------------------------


def fixture_path(name: str) -> Path:
    return Path(__file__).resolve().parent / "fixtures" / "proofs" / name


def load_fixture_proof(name: str) -> ProofObject:
    return parse_proof(fixture_path(name).read_text(encoding="utf-8"))


def neg_neg_proof() -> ProofObject:
    """¬¬(0=0) in three steps."""
    zz = Eq(Zero(), Zero())
    goal = Not(Not(zz))
    return ProofObject((
        ProofStep(zz, LogicalAxiom("refl")),
        ProofStep(Implies(zz, goal), LogicalAxiom("dn_intro")),
        ProofStep(goal, ModusPonens(1, 0)),
    ))


def not_below_zero_proof(k: int) -> ProofObject:
    """¬(k̄<0) by instantiating the floor axiom."""
    theory = standard_theory()
    o1 = theory.axiom_formula("o1")
    kbar = numeral(k)
    goal = Not(Lt(kbar, Zero()))
    return ProofObject((
        ProofStep(o1, Axiom("o1")),
        ProofStep(Implies(o1, goal), LogicalAxiom("inst", (kbar,))),
        ProofStep(goal, ModusPonens(1, 0)),
    ))


def successor_bound_proof(k: int) -> ProofObject:
    """∀x(x<k̄+1 → x<k̄ ∨ x=k̄) from the successor-order axiom."""
    theory = standard_theory()
    o2 = theory.axiom_formula("o2")
    x = Var(0)
    kbar = numeral(k)
    inner = o2.body                       # ∀y(x<y+1 ↔ x<y ∨ x=y)
    iff_k = substitute(inner.body, 1, kbar)
    imp_k = Implies(iff_k.left, iff_k.right)
    steps = (
        ProofStep(o2, Axiom("o2")),
        ProofStep(Implies(o2, inner), LogicalAxiom("inst", (x,))),
        ProofStep(inner, ModusPonens(1, 0)),
        ProofStep(Implies(inner, iff_k), LogicalAxiom("inst", (kbar,))),
        ProofStep(iff_k, ModusPonens(3, 2)),
        ProofStep(Implies(iff_k, imp_k), LogicalAxiom("iff_left")),
        ProofStep(imp_k, ModusPonens(5, 4)),
        ProofStep(Forall(x, imp_k), Generalization(6, 0)),
    )
    return ProofObject(steps)


def remark_one_proof(theory: Optional[TheoryHandle] = None
                     ) -> tuple[ProofObject, TheoryHandle]:
    """Prove the negation of a provable sentence from its own
    anti-provability biconditional.

    The sentence is ¬¬(0=0); the extended theory adopts the
    biconditional ¬Pr(code) ↔ ¬¬(0=0) plus one certified proof fact, and
    then proves ¬¬¬(0=0).  The extension is flagged unsound: that it
    proves both the sentence and its negation is exactly the point.
    """
    theory = theory or standard_theory()
    base = neg_neg_proof()
    theta = base.conclusion
    code_term = quote(theta)
    p_term = numeral(proof_code(base))
    pr_at = pr_sentence(theta)
    fact = OracleAtom("prf", (p_term, code_term))
    biconditional = Iff(Not(pr_at), theta)
    handle = theory.extend(theory.name + "+remark", (biconditional, fact),
                           False)
    (bicond_id, _), (fact_id, _) = handle.axioms[-2:]
    to_neg = Implies(theta, Not(pr_at))
    flipped = Implies(pr_at, Not(theta))
    steps = base.steps + (
        ProofStep(fact, Axiom(fact_id)),
        ProofStep(Implies(fact, pr_at), LogicalAxiom("ex_intro", (p_term,))),
        ProofStep(pr_at, ModusPonens(4, 3)),
        ProofStep(biconditional, Axiom(bicond_id)),
        ProofStep(Implies(biconditional, to_neg), LogicalAxiom("iff_right")),
        ProofStep(to_neg, ModusPonens(7, 6)),
        ProofStep(Implies(to_neg, flipped), LogicalAxiom("contrapose2")),
        ProofStep(flipped, ModusPonens(9, 8)),
        ProofStep(Not(theta), ModusPonens(10, 5)),
    )
    return ProofObject(steps), handle


# -- bounded proof search --------------------------------------------------------------


@dataclass(frozen=True)
class NotFound:
    nodes_used: int
    reason: str


@dataclass(frozen=True)
class SearchReport:
    outcome: Union[ProofObject, NotFound]
    nodes_used: int


class _Found(Exception):
    pass


class _OutOfNodes(Exception):
    pass


def _sort_key(node):
    # length first, spelling second: total, deterministic, cheap on the
    # small nodes that survive the pool caps
    return (node.length, render(node, compact=True))


_CONNECTIVES = (Not, And, Or, Implies, Iff)


def _program(*names: str) -> tuple:
    """One postorder program that builds the instances of the schemes
    names over shared arguments, which fill the first slots: each row
    (connective, slot, slot) joins two earlier slots into the next one
    (a Not row's second slot is None), each distinct subpattern once.
    Returns the rows and, in the order of names, (name, instance slot)."""
    rows: dict[tuple, int] = {}
    roots = []
    for name in names:
        params = list(inspect.signature(_SCHEMES[name]).parameters)
        slots: list = []
        for node in reversed(list(preorder(_PATTERNS[name], lambda n: ()
                                           if isinstance(n, _Meta)
                                           else n._parts()))):
            if isinstance(node, _Meta):
                slots.append(params.index(node))
                continue
            right = slots.pop()
            row = ((Not, right, None) if type(node) is Not
                   else (type(node), slots.pop(), right))
            slots.append(rows.setdefault(row, len(params) + len(rows)))
        roots.append((name, slots[0]))
    return tuple(rows), tuple(roots)


# the scheme groups the search instantiates together, in the order the
# instances are added
_PAIR = _program("k", "contrapose2", "contr", "absurd", "and_intro",
                 "or_left", "or_right", "iff_intro")
_TRIPLE = _program("s", "or_elim")
_IFF_ELIM = _program("iff_left", "iff_right")
_AND_ELIM = _program("and_left", "and_right")
_DN_ELIM = _program("dn_elim")
_DN = _program("dn_intro", "dn_elim")


@lru_cache(maxsize=1024)
def _instance(body: Formula, index: int, term: Term) -> Formula:
    """substitute, memoized: universal and existential instances recur
    across searches (the theory's axioms at the same terms).  It holds
    syntax nodes, never a search's ids."""
    return substitute(body, index, term)


class _Searcher:
    """Forward saturation over schema instances drawn from the goal.

    Every newly proven formula costs one node.  Waves seed schema
    instances in increasing arity; after each seed the closure queue is
    drained, which fires modus ponens against an antecedent index, adds
    eliminations for proven compounds, instantiates proven universals
    once the expansion wave has opened, and generalizes toward subgoals
    of the target.  Pool membership is capped by token length so giant
    quoted numerals never enter a template.

    Inside one search a formula is an int id, its row in a search-scoped
    table (a connective over child ids, or a node for any other formula),
    so equal formulas are equal ints and nodes are built only for the
    steps of a returned proof.  The schemes seeded together run as one
    group program, so a subpattern they share is one row lookup, and
    universal and existential instances come from a memo of substitute
    shared by all searches; the ids themselves never outlive a search.
    """

    def __init__(self, goal: Formula, theory: TheoryHandle,
                 node_budget: int):
        self.theory = theory
        self.node_budget = node_budget
        self.rows: list[tuple] = []
        self.ids: dict[tuple, int] = {}
        self.goal = self._intern(goal)
        # every distinct subtree of the goal, equal subtrees once
        nodes: dict = {}

        def unseen_children(node) -> tuple:
            if node in nodes:
                return ()
            nodes[node] = None
            return _children(node)

        for _ in preorder(goal, unseen_children):
            pass
        subformulas = [n for n in nodes if isinstance(n, Formula)]
        subterms = [n for n in nodes if isinstance(n, Term)]

        # generalization targets, by premise and in variable order:
        # universal subformulas small enough to ever be reached by
        # closing over a derived premise in which the variable is free;
        # the cap is on tree size (each occurrence of a shared subtree,
        # no quantifier's variable), not tokens, so quoted codes pass
        cap = 4 * _POOL_FORMULA_LEN
        self.closures: dict[int, list[int]] = {}
        for f in sorted((f for f in subformulas if isinstance(f, Forall)
                         and f.var.index in f.body.fv
                         and sum(1 for _ in itertools.islice(
                             preorder(f), cap + 1)) <= cap),
                        key=lambda f: f.var.index):
            self.closures.setdefault(self._intern(f.body), []).append(
                self._intern(f))

        pool: dict[Formula, None] = {}
        for f in subformulas:
            if f.length <= _POOL_FORMULA_LEN:
                pool.setdefault(f, None)
        for f in list(pool):
            neg = Not(f)
            if neg.length <= _POOL_FORMULA_LEN:
                pool.setdefault(neg, None)
        self.pool = [self._intern(f) for f in sorted(pool, key=_sort_key)]

        terms: dict[Term, None] = {}
        for t in subterms:
            if t.length <= _POOL_TERM_LEN and not free_vars(t):
                terms.setdefault(t, None)
        for k in range(_NUMERAL_BOUND + 1):
            terms.setdefault(numeral(k), None)
        self.terms = sorted(terms, key=_sort_key)

        exists_targets: dict[Formula, None] = {}
        for f in subformulas:
            if isinstance(f, Exists) and f.length <= _POOL_FORMULA_LEN:
                exists_targets.setdefault(f, None)
        self.exists_targets = [(e, self._intern(e)) for e in
                               sorted(exists_targets, key=_sort_key)]

        self.facts: dict[int, tuple] = {}
        self.by_antecedent: dict[int, list[int]] = {}
        self.queue: deque[int] = deque()
        self.count = 0
        self.expand_universals = False

    def _id(self, row: tuple) -> int:
        i = self.ids.get(row)
        if i is None:
            i = self.ids[row] = len(self.rows)
            self.rows.append(row)
        return i

    def _intern(self, node: Formula) -> int:
        """The id of a formula, its connectives walked on a stack."""
        done: list[int] = []
        work: list = [node]
        while work:
            item = work.pop()
            if type(item) is type:  # a connective whose children are done
                right = done.pop()
                done.append(self._id((Not, right) if item is Not
                                     else (item, done.pop(), right)))
            elif type(item) in _CONNECTIVES:
                work.append(type(item))
                work.extend(reversed(item._parts()))
            else:
                done.append(self._id((type(item), item)))
        return done[0]

    def _node(self, f: int, built: dict[int, Formula]) -> Formula:
        """The syntax node of an id, built on a stack over built."""
        work = [f]
        while work:
            i = work[-1]
            row = self.rows[i]
            if type(row[1]) is not int:
                built[i] = row[1]
            else:
                kids = [k for k in row[1:] if k not in built]
                if kids:
                    work.extend(kids)
                    continue
                built[i] = row[0](*[built[k] for k in row[1:]])
            work.pop()
        return built[f]

    def _add(self, f: int, provenance: tuple) -> None:
        if f in self.facts:
            return
        if self.count >= self.node_budget:
            raise _OutOfNodes
        self.facts[f] = provenance
        self.count += 1
        self.queue.append(f)
        if f == self.goal:
            raise _Found

    def _drain(self) -> None:
        rows = self.rows
        while self.queue:
            f = self.queue.popleft()
            row = rows[f]
            kind, a = row[0], row[1]
            if kind is Implies:
                self.by_antecedent.setdefault(a, []).append(f)
                if a in self.facts:
                    self._add(row[2], ("mp", f, a))
            for imp in self.by_antecedent.get(f, ()):
                self._add(rows[imp][2], ("mp", imp, f))
            if kind is Iff:
                self._add_group(_IFF_ELIM, a, row[2])
            elif kind is And:
                self._add_group(_AND_ELIM, a, row[2])
            elif kind is Not and rows[a][0] is Not:
                self._add_group(_DN_ELIM, rows[a][1])
            elif kind is Forall and self.expand_universals:
                for t in self.terms:
                    instance = self._intern(_instance(a.body, a.var.index, t))
                    self._add(self._id((Implies, f, instance)),
                              ("logic", "inst", (t,)))
            for target in self.closures.get(f, ()):
                self._add(target, ("gen", f, rows[target][1].var.index))

    def run(self) -> SearchReport:
        try:
            self._waves()
        except _Found:
            proof = self._reconstruct()
            return SearchReport(proof, self.count)
        except _OutOfNodes:
            return SearchReport(NotFound(self.count, "node budget spent"),
                                self.count)
        return SearchReport(NotFound(self.count, "frontier exhausted"),
                            self.count)

    def _waves(self) -> None:
        for aid, phi in self.theory.axioms:
            self._add(self._intern(phi), ("axiom", aid))
            self._drain()
        for t in self.terms:
            self._add(self._intern(_SCHEMES["refl"](t)), ("logic", "refl", ()))
            self._drain()
        for f in self.pool:
            self._add_group(_DN, f)
            self._drain()
        for e, e_id in self.exists_targets:
            for t in self.terms:
                premise = self._intern(_instance(e.body, e.var.index, t))
                self._add(self._id((Implies, premise, e_id)),
                          ("logic", "ex_intro", (t,)))
                self._drain()
        self.expand_universals = True
        for f in [g for g in self.facts if self.rows[g][0] is Forall]:
            self.queue.append(f)
        self._drain()
        for a, b in itertools.product(self.pool, repeat=2):
            self._add_group(_PAIR, a, b)
            self._drain()
        for a, b, c in itertools.product(self.pool, repeat=3):
            self._add_group(_TRIPLE, a, b, c)
            self._drain()

    def _add_group(self, group: tuple, *args: int) -> None:
        program, roots = group
        slots = list(args)
        for op, left, right in program:
            slots.append(self._id((op, slots[left]) if right is None
                                  else (op, slots[left], slots[right])))
        for name, slot in roots:
            self._add(slots[slot], ("logic", name, ()))

    def _reconstruct(self) -> ProofObject:
        # the steps in the order of a depth-first walk of the provenance,
        # each after the steps it cites
        steps: list[ProofStep] = []
        indices: dict[int, int] = {}
        built: dict[int, Formula] = {}
        work = [self.goal]
        while work:
            f = work[-1]
            if f in indices:
                work.pop()
                continue
            prov = self.facts[f]
            cited = {"mp": prov[1:3], "gen": prov[1:2]}.get(prov[0], ())
            pending = [g for g in cited if g not in indices]
            if pending:
                work.extend(reversed(pending))
                continue
            work.pop()
            if prov[0] == "axiom":
                just: Justification = Axiom(prov[1])
            elif prov[0] == "logic":
                just = LogicalAxiom(prov[1], prov[2])
            elif prov[0] == "mp":
                just = ModusPonens(indices[prov[1]], indices[prov[2]])
            else:
                just = Generalization(indices[prov[1]], prov[2])
            steps.append(ProofStep(self._node(f, built), just))
            indices[f] = len(steps) - 1
        proof = ProofObject(tuple(steps))
        report = check_proof_report(proof, self.theory)
        if not report.ok:
            raise RuntimeError(f"search produced an invalid proof: "
                               f"step {report.failed_step}: {report.reason}")
        return proof


def search_report(goal: Formula, theory: TheoryHandle,
                  node_budget: int) -> SearchReport:
    return _Searcher(goal, theory, node_budget).run()


def bounded_proof_search(goal: Formula, theory: TheoryHandle,
                         node_budget: int) -> Union[ProofObject, NotFound]:
    return search_report(goal, theory, node_budget).outcome


# -- the two classical sentences -------------------------------------------------------


def goedel_sentence(theory: TheoryHandle) -> FixedPointCertificate:
    """A sentence equivalent to its own unprovability claim.

    The fixed point is purely syntactic; the theory enters through the
    prf oracle when the certificate is evaluated.
    """
    del theory  # the construction is theory-independent by design
    return diagonal_sentence(Not(pr_formula()))


@dataclass(frozen=True)
class RosserConstruction:
    rho: Formula
    biconditional: Formula
    theory: TheoryHandle
    certificate: FixedPointCertificate


def rosser_sentence(theory: TheoryHandle) -> RosserConstruction:
    """The fixed point of the outrun property, plus the extended theory
    that adopts its biconditional as an axiom."""
    certificate = diagonal_sentence(rosser_psi())
    biconditional = Iff(certificate.at_code, certificate.theta)
    extended = theory.extend(theory.name + "+rosser", (biconditional,),
                             theory.sound_for_standard_model)
    return RosserConstruction(certificate.theta, biconditional, extended,
                              certificate)


# -- sentence streams ------------------------------------------------------------------


def sentence_stream():
    """All closed formulas in enumeration order, smallest lengths first."""
    n = 3
    while True:
        for phi in formulas_of_length(n):
            if not free_vars(phi):
                yield phi
        n += 1


def tb_stream(psi: Formula):
    """Biconditionals Ψ(code of β) ↔ β over the sentence stream."""
    norm = normalize_psi(psi)
    for beta in sentence_stream():
        yield Iff(substitute(norm, 1, quote(beta)), beta)


# -- consistency witnesses ---------------------------------------------------------------


@dataclass(frozen=True)
class ConsistentBySoundness:
    detail: str = ""


@dataclass(frozen=True)
class RefutedByProof:
    proof: ProofObject
    detail: str = ""


def consistency_witness(sentence: Formula, theory: TheoryHandle,
                        budget: Optional[Budget] = None,
                        env: Optional[OracleEnv] = None,
                        certificate: Optional[FixedPointCertificate] = None,
                        search_nodes: int = 2000,
                        witnesses: Optional[WitnessMap] = None):
    """Judge a sentence against the theory without trusting either side.

    Truth comes from evaluation (or from a fixed-point certificate whose
    construction is re-run and machine-checked); refutation comes from a
    bounded proof search for the negation.  Certified truth plus a
    checked refutation is a contradiction in the calculus itself and
    raises instead of returning.
    """
    budget = budget or Budget()
    env = env or proofs_env(theory)
    detail = ""
    if certificate is not None and sentence in (
            Iff(certificate.at_code, certificate.theta),
            Iff(certificate.theta, certificate.at_code)):
        verdict = Truth.TRUE
        detail = ("true by construction: the certificate's splice "
                  "arithmetic is machine-checked and deterministic")
    else:
        verdict = evaluate(sentence, env, budget, witnesses=witnesses)
        detail = f"evaluation verdict {verdict.name}"
    refutation = bounded_proof_search(Not(sentence), theory, search_nodes)
    refuted = isinstance(refutation, ProofObject)
    if verdict is Truth.TRUE and refuted:
        raise InconsistencyAlarm(
            f"certified-true sentence has a checked refutation in "
            f"{theory.name}")
    if verdict is Truth.TRUE and theory.sound_for_standard_model:
        return ConsistentBySoundness(detail=detail)
    if refuted:
        return RefutedByProof(refutation, detail=detail)
    return Unknown(detail=f"{detail}; no refutation within "
                          f"{search_nodes} nodes")


# -- the weak diagonal-free equivalence demo ---------------------------------------------


@dataclass(frozen=True)
class WeakDLReport:
    psi: Formula
    first_hit: Formula
    scanned: int
    failing_verdict: Truth
    flipped_verdict: Truth
    flip_tautology: bool
    witness: object
    pr_witness_code: Optional[int] = None


def weak_dl_equivalence_demo(psi: Formula,
                             budget: Optional[Budget] = None,
                             theory: Optional[TheoryHandle] = None,
                             max_sentences: int = 400,
                             assist_nodes: int = 600) -> WeakDLReport:
    """Scan sentences for one whose negated-Ψ biconditional is false;
    flipping the negation then yields a true sentence propositionally
    equivalent to the failure's negation.

    When Ψ is the provability property itself, verdicts are assisted by
    a bounded proof search, and the found proof's code is carried into
    the truth evaluation as an explicit witness.
    """
    theory = theory or standard_theory()
    budget = budget or Budget()
    env = proofs_env(theory)
    norm = normalize_psi(psi)
    pr_assist = norm == normalize_psi(pr_formula())
    scanned = 0
    for beta in itertools.islice(sentence_stream(), max_sentences):
        scanned += 1
        at_code = substitute(norm, 1, quote(beta))
        witness_code: Optional[int] = None
        if pr_assist:
            found = bounded_proof_search(beta, theory, assist_nodes)
            if isinstance(found, ProofObject):
                psi_truth = Truth.TRUE
                witness_code = proof_code(found)
            else:
                psi_truth = Truth.UNKNOWN
            beta_truth = evaluate(beta, env, budget)
            failing_verdict = t_iff(~psi_truth, beta_truth)
            flipped_verdict = t_iff(psi_truth, beta_truth)
        else:
            failing_verdict = evaluate(Iff(Not(at_code), beta), env, budget)
            flipped_verdict = evaluate(Iff(at_code, beta), env, budget)
        if failing_verdict is Truth.FALSE:
            failing = Iff(Not(at_code), beta)
            flipped = Iff(at_code, beta)
            witness_map: Optional[WitnessMap] = None
            if witness_code is not None:
                witness_map = {(0,): witness_code}
            witness = consistency_witness(flipped, theory, budget=budget,
                                          env=env, search_nodes=assist_nodes,
                                          witnesses=witness_map)
            return WeakDLReport(psi=psi, first_hit=beta, scanned=scanned,
                                failing_verdict=failing_verdict,
                                flipped_verdict=flipped_verdict,
                                flip_tautology=taut_equiv(Not(failing),
                                                          flipped),
                                witness=witness,
                                pr_witness_code=witness_code)
    raise SearchExhausted(f"no false biconditional among the first "
                          f"{scanned} sentences")


# -- the remark demo ---------------------------------------------------------------------


@dataclass(frozen=True)
class RemarkReport:
    delta: Formula
    not_delta_proof: ProofObject
    not_delta_check: bool
    pr_at_delta: Formula
    reduction_to_pr: bool
    pr_verdict: Truth
    remark_theory: TheoryHandle
    remark_proof: ProofObject
    remark_check: bool
    remark_conclusion: Formula
    note: str = ""


def remark_demo(theory: Optional[TheoryHandle] = None) -> RemarkReport:
    """The refutable-fixed-point shortcut, end to end.

    For the refutable sentence δ = ¬(0=0), the anti-provability
    biconditional ¬Pr(code of δ) ↔ δ collapses propositionally to
    Pr(code of δ) itself, so no fixed point is needed: the calculus
    proves δ's negation outright, and adopting the biconditional for the
    provable sentence ¬δ forces the extended theory to prove ¬¬δ too.
    """
    theory = theory or standard_theory()
    delta = Not(Eq(Zero(), Zero()))
    not_delta = Not(delta)
    not_delta_proof = neg_neg_proof()
    not_delta_check = check_proof(not_delta_proof, theory,
                                  conclusion=not_delta)
    pr_at_delta = pr_sentence(delta)
    reduction = taut_equiv(Iff(Not(pr_at_delta), delta), pr_at_delta)
    pr_verdict = evaluate(pr_at_delta, proofs_env(theory), Budget())
    remark_proof, remark_theory = remark_one_proof(theory)
    remark_check = check_proof(remark_proof, remark_theory)
    note = ("the biconditional for δ reduces to a provability claim; "
            "adopted for the provable sentence instead, it makes the "
            "extension prove that sentence's negation as well, so the "
            "extension is flagged unsound")
    return RemarkReport(delta=delta, not_delta_proof=not_delta_proof,
                        not_delta_check=not_delta_check,
                        pr_at_delta=pr_at_delta,
                        reduction_to_pr=reduction,
                        pr_verdict=pr_verdict,
                        remark_theory=remark_theory,
                        remark_proof=remark_proof,
                        remark_check=remark_check,
                        remark_conclusion=remark_proof.conclusion,
                        note=note)
