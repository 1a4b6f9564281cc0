"""The fixed oracle signature: every symbol parses without importing the
experiments that read it, and parse/render and decode/encode invert
each other over formulas drawing on all seven symbols."""

import subprocess
import sys
from functools import partial

from hypothesis import given, settings, strategies as st

from selfref.coding import NotACode, decode, encode
from selfref.parser import parse
from selfref.syntax import (
    ORACLE_ATOMS, ORACLE_FUNS, Add, And, Eq, Exists, Forall, Iff, Implies,
    Lt, Mul, Not, One, Or, OracleAtom, OracleFun, Var, Zero, render, tokens,
)


def test_signature_needs_no_experiment_import():
    script = (
        "import sys\n"
        "from selfref.parser import parse_formula\n"
        "from selfref.syntax import OracleFun, Zero\n"
        "parse_formula('Tr(x)')\n"
        "OracleFun('inst', (Zero(), Zero(), Zero()))\n"
        "assert 'selfref.berry' not in sys.modules\n"
        "assert 'selfref.domination' not in sys.modules\n"
    )
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


_VARS = st.integers(0, 2).map(Var)


def _oracle_nodes(ctor, table, args):
    """A node of any symbol in the table, over the given arguments."""
    return st.one_of(*(st.tuples(*[args] * arity).map(partial(ctor, name))
                       for name, arity in table.items()))


_TERMS = st.recursive(
    st.one_of(st.just(Zero()), st.just(One()), _VARS),
    lambda sub: st.one_of(
        st.builds(Add, sub, sub), st.builds(Mul, sub, sub),
        _oracle_nodes(OracleFun, ORACLE_FUNS, sub)),
    max_leaves=6,
)

_ATOMS = st.one_of(st.builds(Eq, _TERMS, _TERMS), st.builds(Lt, _TERMS, _TERMS),
                   _oracle_nodes(OracleAtom, ORACLE_ATOMS, _TERMS))

_FORMULAS = st.recursive(
    _ATOMS,
    lambda sub: st.one_of(
        st.builds(Not, sub),
        *[st.builds(ctor, sub, sub) for ctor in (And, Or, Implies, Iff)],
        st.builds(Forall, _VARS, sub), st.builds(Exists, _VARS, sub)),
    max_leaves=6,
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_FORMULAS)
def test_render_parse_and_encode_decode_invert(phi):
    assert parse(render(phi)) == phi
    uncoded = any(tok in ("Tr", "inst") for tok in tokens(phi))
    try:
        code = encode(phi)
    except NotACode:
        assert uncoded
    else:
        assert not uncoded
        assert decode(code) == phi
