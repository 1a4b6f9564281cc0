"""Diagonalization: sentences that speak about their own code.

The heart is a two-variable formula Diag(x, y) expressing "y is the
code of the formula coded by x after its free variable is replaced by
the numeral of x".  Substitution happens at the digit-string level:
an occurrence of the free variable is one digit (17) not followed by
a prime digit (18), and splicing a numeral into that position is pure
arithmetic on the surrounding chunks.  The numeral's own code is
reconstructed from its three periodic digit regions, anchored to the
single value W = 24**(x-1):

    U * 13823 = 1238 * (W**3 - 1)      the "1+(" run
    V * 23    = 15 * (W - 1)           the ")" run
    N         = U*24*W + 2*W + V       the full numeral code
    T         = 24 * W**4              shift by the numeral's width

W itself is pinned exactly with the length oracle: W is the unique
value with len(W) = x that is a successor of a value of length x - 1
(or 1 when x = 1).  Everything else is determined by polynomial
identities, so a checker that can add, compare and multiply by small
factors can verify the whole construction even when the values only
exist in run-length form.

Diag carries disjuncts for one, two or three free occurrences.  On
codes with several occurrences the relation also admits the partial
substitutions that miss some of them; the self-application below only
ever feeds it formulas built to have exactly one occurrence, where the
relation is single-valued.  To that end the input property is
normalized so that its lone free variable is y and every bound
variable has index two or more: the token "x" bare of primes then
appears exactly once in the whole of delta, inside the guard that
copies x to a bound stand-in.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as _cartesian

from .bignat import BASE, BigNat
from .coding import TOKEN_IDS, code_of_pieces, encode
from .semantics import (
    Budget, OracleEnv, Truth, WitnessMap, evaluate, evaluate_full,
    standard_oracle_env, t_iff,
)
from .syntax import (
    Add, And, Eq, Exists, Forall, Formula, Iff, Implies, Lt, Mul, Nat,
    Not, One, OracleAtom, OracleFun, Or, Term, Var, conj, disj,
    free_vars, length, numeral, preorder, render, substitute, token_pieces,
    _children, _rebuild,
)

_X, _Y = Var(0), Var(1)

VAR_DIGIT = TOKEN_IDS["x"]
PRIME_DIGIT = TOKEN_IDS["′"]

# beyond this code value the anchor values are kept in run form
_RUN_FORM_CUTOFF = 1 << 16


def const_term(k: int) -> Term:
    """A compact closed term with value k: Horner form in base 24."""
    if k < 0:
        raise ValueError("constants are naturals")
    if k <= 24:
        return numeral(k)
    digits = []
    n = k
    while n:
        n, d = divmod(n, BASE)
        digits.append(d)
    digits.reverse()
    term: Term = numeral(digits[0])
    for d in digits[1:]:
        term = Mul(term, numeral(BASE))
        if d:
            term = Add(term, numeral(d))
    return term


def _len_of(t: Term) -> Term:
    return OracleFun("len", (t,))


def _power_anchor(w: int, x_ref: Term, m: int) -> Formula:
    """Var(w) = 24**(x_ref - 1), with Var(m) as predecessor witness."""
    W = Var(w)
    return And(
        Eq(_len_of(W), x_ref),
        Or(
            Eq(W, One()),
            Exists(Var(m), And(
                Eq(W, Add(Var(m), One())),
                Eq(Add(_len_of(Var(m)), One()), x_ref),
            )),
        ),
    )


def _power_of_base(q: int, m: int) -> Formula:
    """Var(q) is 1, 24, 576, ...: its length drops when decremented."""
    Q = Var(q)
    return Or(
        Eq(Q, One()),
        Exists(Var(m), And(
            Eq(Q, Add(Var(m), One())),
            Eq(_len_of(Q), Add(_len_of(Var(m)), One())),
        )),
    )


def _boundary_ok(p: int, g: int, q: int, d: int, rest: int, m: int) -> Formula:
    """The digit following a spliced occurrence must not be a prime.

    Either the trailing chunk is empty (p = 1), or p = 24q with q a
    power of 24 and the chunk's leading digit d differs from 18.
    """
    P, G = Var(p), Var(g)
    return Or(
        Eq(P, One()),
        Exists(Var(q), conj(
            Eq(P, Mul(const_term(24), Var(q))),
            _power_of_base(q, m),
            Exists(Var(d), Exists(Var(rest), conj(
                Eq(G, Add(Mul(Var(d), Var(q)), Var(rest))),
                Lt(Var(rest), Var(q)),
                Lt(Var(d), const_term(24)),
                Not(Eq(Var(d), const_term(PRIME_DIGIT))),
            ))),
        )),
    )


# variable indices inside a branch (branches reuse them; their scopes
# are disjoint).  xh is the bound copy of the input x.
_XH, _W, _M, _U, _VT, _N, _T = 2, 3, 4, 5, 6, 7, 8
_BRANCH_BASE = 9  # per-occurrence blocks start here


def _block_indices(j: int) -> dict[str, int]:
    base = _BRANCH_BASE + 7 * j
    return {"p": base, "q": base + 1, "g": base + 2,
            "d": base + 3, "rest": base + 4, "m": base + 5}


def _g0_index(r: int) -> int:
    return _BRANCH_BASE + 7 * r


def _branch(r: int) -> Formula:
    """The disjunct of Diag for exactly r spliced occurrences.

    Each anchor value is introduced together with its constraint, so a
    sweep through a wrong branch dies at the outermost quantifier
    instead of descending the whole chain.
    """
    xh, W, U, Vt, N, T = (Var(i) for i in (_XH, _W, _U, _VT, _N, _T))
    w3 = Mul(Mul(W, W), W)
    w4 = Mul(w3, W)
    blocks = [_block_indices(j) for j in range(r)]
    g0 = _g0_index(r)
    x_acc: Term = Add(Mul(Var(g0), const_term(24)), const_term(VAR_DIGIT))
    y_acc: Term = Add(Mul(Var(g0), T), N)
    for j, blk in enumerate(blocks):
        P, G = Var(blk["p"]), Var(blk["g"])
        x_acc = Add(Mul(x_acc, P), G)
        y_acc = Add(Mul(y_acc, P), G)
        if j + 1 < r:
            x_acc = Add(Mul(x_acc, const_term(24)), const_term(VAR_DIGIT))
            y_acc = Add(Mul(y_acc, T), N)
    parts: list[Formula] = [Eq(xh, x_acc), Eq(_Y, y_acc)]
    for blk in blocks:
        parts.append(Lt(Var(blk["g"]), Var(blk["p"])))
        parts.append(_boundary_ok(blk["p"], blk["g"], blk["q"],
                                  blk["d"], blk["rest"], blk["m"]))
    body = conj(*parts)
    for index in reversed([g0] + [i for blk in blocks
                                  for i in (blk["p"], blk["g"])]):
        body = Exists(Var(index), body)
    layers = [
        (_T, Eq(T, Mul(const_term(24), w4))),
        (_N, Eq(N, Add(Add(Mul(Mul(U, const_term(24)), W),
                           Mul(numeral(2), W)), Vt))),
        (_VT, Eq(Mul(const_term(15), W),
                 Add(Mul(const_term(23), Vt), const_term(15)))),
        (_U, Eq(Mul(const_term(1238), w3),
                Add(Mul(const_term(13823), U), const_term(1238)))),
        (_W, _power_anchor(_W, xh, _M)),
    ]
    for index, constraint in layers:
        body = Exists(Var(index), And(constraint, body))
    return body


@lru_cache(maxsize=1)
def build_diag_formula() -> Formula:
    """Diag(x, y) with x = Var(0), y = Var(1).

    The free x occurs exactly once, in the guard of the bound copy, so
    that diagonalizing the surrounding formula splices one numeral.
    """
    body = disj(_branch(1), _branch(2), _branch(3))
    return Exists(Var(_XH), And(Eq(Var(_XH), _X), body))


# paths of the r-occurrence disjuncts inside Diag: under the guard,
# Or(Or(b1, b2), b3) keeps b1 leftmost
_BRANCH_PATHS = {1: (0, 1, 0, 0), 2: (0, 1, 0, 1), 3: (0, 1, 1)}


def meta_diagonalize(phi: Formula) -> Formula:
    """The substitution Diag describes, performed on the tree."""
    return substitute(phi, 0, numeral(encode(phi)))


def bare_occurrence_positions(token_list: list) -> list[int]:
    """Indices of variable tokens not followed by a prime."""
    n = len(token_list)
    return [i for i, t in enumerate(token_list)
            if t == "x" and (i + 1 == n or token_list[i + 1] != "′")]


def _splice_pieces(phi: Formula) -> list:
    """phi's token pieces, where a node that holds facts comes through
    whole only if its compact spelling holds no bare x token.

    A node's compact spelling ends with a whole token, and a prime only
    ever follows x or a prime, so the count within the spelling is exact.
    """
    pieces = token_pieces(phi, [])
    i = 0
    while i < len(pieces):
        p = pieces[i]
        # a term without variables (a numeral) spells no x at all
        if not isinstance(p, str) and (isinstance(p, Formula) or p.fv):
            text = render(p, compact=True)
            if text.count("x") != text.count("x′"):
                pieces[i:i + 1] = token_pieces(p, [])
                continue
        i += 1
    return pieces


def _width(pieces: list) -> int:
    """Token count of a list of token pieces."""
    return sum(1 if isinstance(p, str) else p.length for p in pieces)


@dataclass
class _Splice:
    """Everything needed to witness one full substitution."""

    r: int
    y_value: Nat
    solution: dict[int, Nat]


def _anchor_values(a: int) -> dict[int, Nat]:
    """The numeral-geometry witnesses for input value a >= 1."""
    if a <= _RUN_FORM_CUTOFF:
        w = BASE ** (a - 1)
        u = 1238 * (w**3 - 1) // 13823
        vt = 15 * (w - 1) // 23
        values: dict[int, Nat] = {
            _W: w, _M: w - 1, _U: u, _VT: vt,
            _N: u * 24 * w + 2 * w + vt,
            _T: 24 * w**4,
        }
        return values
    return {
        _W: BigNat.power24(a - 1),
        _M: BigNat.power24(a - 1).sub(1),
        _U: BigNat.from_runs([((2, 3, 14), a - 1)]),
        _VT: BigNat.from_runs([((15,), a - 1)]),
        _N: BigNat.from_runs([((2, 3, 14), a - 1), ((2,), 1),
                              ((15,), a - 1)]),
        _T: BigNat.power24(4 * a - 3),
    }


def _splice_all(pieces: list, a: int) -> _Splice:
    """Witness the substitution hitting every bare occurrence.

    pieces are as _splice_pieces lists them, so every bare occurrence
    is a token among them.
    """
    positions = bare_occurrence_positions(pieces)
    r = len(positions)
    if not 1 <= r <= 3:
        raise ValueError(
            f"supported splice counts are 1..3, found {r}"
        )
    solution = dict(_anchor_values(a))
    solution[_XH] = a
    n_val, t_val = solution[_N], solution[_T]

    chunks: list[list] = []
    prev = -1
    for pos in positions:
        chunks.append(pieces[prev + 1:pos])
        prev = pos
    chunks.append(pieces[prev + 1:])

    def fold(chunk: list) -> int:
        code = code_of_pieces(chunk)
        return code.to_int() if isinstance(code, BigNat) else code

    g0 = fold(chunks[0])
    solution[_g0_index(r)] = g0
    y: Nat = g0
    for j, chunk in enumerate(chunks[1:]):
        blk = _block_indices(j)
        g = fold(chunk)
        ell = _width(chunk)
        p = BASE**ell
        solution[blk["p"]] = p
        solution[blk["g"]] = g
        if ell > 0:
            q = BASE ** (ell - 1)
            solution[blk["q"]] = q
            solution[blk["d"]] = g // q
            solution[blk["rest"]] = g % q
            solution[blk["m"]] = q - 1
        y = (y * t_val + n_val) * p + g
    return _Splice(r=r, y_value=y, solution=solution)


def _witnesses_for(host: Formula, diag_path: tuple[int, ...],
                   splice: _Splice) -> WitnessMap:
    """Map existential paths of the active branch to their values.

    Only nodes inside the branch matching the splice count receive
    witnesses; the other branches are dead ends the evaluator skips.
    """
    witnesses: WitnessMap = {}
    branch = diag_path + _BRANCH_PATHS[splice.r]
    for path, node in preorder(((), host), _paths_below):
        if not isinstance(node, Exists):
            continue
        index = node.var.index
        if path == diag_path:
            witnesses[path] = splice.solution[_XH]
        elif path[:len(branch)] == branch and index in splice.solution:
            witnesses[path] = splice.solution[index]
    return witnesses


def _paths_below(item: tuple) -> list:
    """(path, subformula) for each subformula of a connective or
    quantifier, as the evaluator numbers them; terms are not entered."""
    path, node = item
    if isinstance(node, (Eq, Lt, OracleAtom)):
        return []
    return [(path + (i,), kid) for i, kid in enumerate(_children(node))]


@dataclass
class DiagInstanceReport:
    """A closed check of Diag at a concrete pair of codes."""

    source: Formula
    source_code: int
    image: Formula
    image_code: Nat
    truth: Truth
    nodes_used: int


def check_diag_instance(phi: Formula) -> DiagInstanceReport:
    """Evaluate Diag at the code of phi and of its diagonalization.

    phi must have x free; the witnesses walk the evaluator straight
    down the branch for phi's occurrence count.
    """
    a = encode(phi)
    if isinstance(a, BigNat):
        a = a.to_int()
    splice = _splice_all(_splice_pieces(phi), a)
    image = meta_diagonalize(phi)
    image_code = encode(image)
    if splice.y_value != image_code:
        raise AssertionError("splice arithmetic disagrees with encode")
    diag = build_diag_formula()
    instance = substitute(substitute(diag, 0, numeral(a)),
                          1, numeral(image_code))
    witnesses = _witnesses_for(instance, (), splice)
    report = evaluate_full(instance, standard_oracle_env(), Budget(),
                           witnesses)
    return DiagInstanceReport(
        source=phi, source_code=a, image=image, image_code=image_code,
        truth=report.truth, nodes_used=report.nodes_used,
    )


class NotOneFree(ValueError):
    """The property must have exactly one free variable."""


def normalize_psi(psi: Formula, binder_floor: int = 0) -> Formula:
    """Rewrite a one-free-variable property for use inside delta.

    The free variable becomes y (index 1) and every binder moves to a
    fresh index of at least 2, so no bare unprimed x token remains
    anywhere in the result.  Callers that reserve further low indices
    for their own scaffolding can push the binders higher with
    binder_floor.
    """
    fv = free_vars(psi)
    if len(fv) != 1:
        raise NotOneFree("the property must have exactly one free variable")
    (free,) = fv

    counter = max(max(fv | {1}) + 1, binder_floor)
    # (node, mapping) items are renamed onto `done` in preorder, so binders
    # are numbered left to right, outside in; (None, node, var) rebuilds
    # node from the results for its children
    done: list = []
    work: list[tuple] = [(psi, {free: 1})]
    while work:
        item = work.pop()
        if item[0] is None:
            _rebuild(item[1], done, item[2])
            continue
        node, mapping = item
        if isinstance(node, Var):
            node = Var(mapping.get(node.index, node.index))
        if not _children(node):
            done.append(node)
            continue
        var = None
        if isinstance(node, (Forall, Exists)):
            var = Var(counter)
            counter += 1
            mapping = {**mapping, node.var.index: var.index}
        work.append((None, node, var))
        work.extend((kid, mapping) for kid in reversed(_children(node)))
    return done[0]


def build_delta(psi: Formula) -> Formula:
    """delta(x) = some y: Diag(x, y) and psi(y)."""
    clean = normalize_psi(psi)
    return Exists(_Y, And(build_diag_formula(), clean))


@dataclass
class FixedPointCertificate:
    """A self-referential sentence with everything needed to check it.

    theta is delta applied to its own code; theta_code is the code of
    theta (a run-form giant in general); at_code is the property at
    theta's code, the other side of the equivalence; witnesses maps
    existential tree paths inside theta to the values realizing the
    splice.  The splice point of delta is unique, so the witnessed
    values are the only candidates and a failed check certifies
    falsity.
    """

    psi: Formula
    delta: Formula
    delta_code: int
    theta: Formula
    theta_code: Nat
    at_code: Formula
    witnesses: WitnessMap
    occurrence_position: int

    def summary(self) -> dict:
        # token count and code digit count coincide: one digit per token
        return {
            "delta_tokens": int(length(self.delta)),
            "theta_tokens": int(length(self.theta)),
            "witnessed_nodes": len(self.witnesses),
            "splice_position": self.occurrence_position,
        }


@lru_cache(maxsize=32)
def diagonal_sentence(psi: Formula) -> FixedPointCertificate:
    """Build theta with theta equivalent to psi at theta's own code.

    Cached: callers share the certificate and must not mutate it.
    """
    delta = build_delta(psi)
    a = encode(delta)
    if isinstance(a, BigNat):
        a = a.to_int()
    theta = substitute(delta, 0, numeral(a))
    theta_code = encode(theta)

    pieces = _splice_pieces(delta)
    positions = bare_occurrence_positions(pieces)
    if len(positions) != 1:
        raise AssertionError(
            f"delta must have exactly one splice point, found "
            f"{len(positions)}"
        )
    splice = _splice_all(pieces, a)
    if splice.y_value != theta_code:
        raise AssertionError("splice arithmetic disagrees with encode")

    witnesses = _witnesses_for(theta, (0, 0), splice)
    witnesses[()] = theta_code
    # delta's conjunct after Diag is the normalized property
    at_code = substitute(delta.body.right, 1, numeral(theta_code))
    return FixedPointCertificate(
        psi=psi, delta=delta, delta_code=a, theta=theta,
        theta_code=theta_code, at_code=at_code, witnesses=witnesses,
        occurrence_position=_width(pieces[:positions[0]]),
    )


@dataclass
class FixedPointReport:
    certificate: FixedPointCertificate
    theta_truth: Truth
    psi_at_code_truth: Truth
    equivalence: Truth
    nodes_used: int


def check_fixed_point(cert: FixedPointCertificate,
                      env: OracleEnv | None = None,
                      budget: Budget | None = None) -> FixedPointReport:
    """Evaluate both sides of the defining equivalence of theta.

    The left side runs with the certificate's witnesses; FALSE there
    relies on the witnessed values being the only candidates, which
    holds because delta has a single splice point.
    """
    env = env or standard_oracle_env()
    budget = budget or Budget()
    left = evaluate_full(cert.theta, env, budget, cert.witnesses)
    right = evaluate_full(cert.at_code, env, budget)
    return FixedPointReport(
        certificate=cert,
        theta_truth=left.truth,
        psi_at_code_truth=right.truth,
        equivalence=t_iff(left.truth, right.truth),
        nodes_used=left.nodes_used + right.nodes_used,
    )


@dataclass
class TruthRefutation:
    candidate: Formula
    certificate: FixedPointCertificate
    theta_truth: Truth
    candidate_at_code: Truth
    refuted: bool
    explanation: str


def refute_truth_definition(candidate: Formula,
                            budget: Budget | None = None
                            ) -> TruthRefutation:
    """Diagonalize against a proposed arithmetical definition of truth.

    theta says "my own code does not satisfy the candidate".  By
    construction theta is true exactly when the candidate rejects
    theta's code, so whenever both sides evaluate, the candidate's
    verdict at that code differs from the sentence's actual truth
    value: the candidate misclassifies theta and cannot define truth.
    """
    cert = diagonal_sentence(Not(candidate))
    env, budget = standard_oracle_env(), budget or Budget()
    theta_truth = evaluate(cert.theta, env, budget, cert.witnesses)
    # the certificate's property is the candidate's negation, and
    # normalize_psi renames below a negation as it does without one
    at_code = evaluate(cert.at_code.body, env, budget)
    known = Truth.UNKNOWN not in (theta_truth, at_code)
    refuted = known and theta_truth is not at_code
    if refuted:
        explanation = (
            "the candidate's verdict at the sentence's own code "
            "differs from the sentence's truth value, so the "
            "candidate misclassifies this very sentence"
        )
    elif known:
        explanation = (
            "the two sides agree, which the construction rules out; "
            "this would indicate a broken splice"
        )
    else:
        explanation = "one side did not settle within the budget"
    return TruthRefutation(
        candidate=candidate, certificate=cert, theta_truth=theta_truth,
        candidate_at_code=at_code, refuted=refuted, explanation=explanation,
    )


def taut_equiv(left: Formula, right: Formula, max_atoms: int = 16) -> bool:
    """Propositional equivalence, treating non-connective subformulas
    as letters.  Closed variable-free comparisons become constants.

    left ↔ right becomes a postorder program that must hold on every row:
    an int reads that entry of the row, which holds False, True and then
    each letter's value, and a connective applies its truth function.
    """
    letters: dict[Formula, int] = {}
    program: list = []
    for node in reversed(list(preorder(Iff(left, right), _connective_parts))):
        got = (evaluate(node) if isinstance(node, (Eq, Lt)) and not node.fv
               else Truth.UNKNOWN)
        if type(node) in _TRUTH_TABLES:
            program.append(_TRUTH_TABLES[type(node)])
        elif got is Truth.UNKNOWN:
            program.append(letters.setdefault(node, len(letters) + 2))
        else:
            program.append(int(got is Truth.TRUE))
    if len(letters) > max_atoms:
        raise ValueError(f"more than {max_atoms} distinct atoms")
    return all(_run_program(program, (False, True, *values))
               for values in _cartesian([False, True], repeat=len(letters)))


# each connective's truth function (on bools, <= is implication)
_TRUTH_TABLES = {Not: operator.not_, And: operator.and_, Or: operator.or_,
                 Implies: operator.le, Iff: operator.eq}


def _connective_parts(node) -> tuple:
    return _children(node) if type(node) in _TRUTH_TABLES else ()


def _run_program(program: list, row: tuple) -> bool:
    """A postorder program's value on a row, computed on a value stack."""
    values: list[bool] = []
    for op in program:
        if type(op) is int:
            values.append(row[op])
        elif op is operator.not_:
            values[-1] = not values[-1]
        else:
            b = values.pop()
            values[-1] = op(values[-1], b)
    return values[0]
