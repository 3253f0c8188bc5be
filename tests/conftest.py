import sys
from pathlib import Path

import hypothesis.strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from lambdamu.terms import APP, ARROW, BOT, LAM, MU, VAR

names = st.sampled_from(["a", "b", "c", "x", "y", "z", "w'"])

type_exprs = st.recursive(
    st.just(BOT),
    lambda inner: st.tuples(st.just(ARROW), inner, inner),
    max_leaves=4,
)

annots = st.none() | type_exprs


def _lam(n, a, b):
    return (LAM, n, a, b)


def _mu(n, a, b):
    return (MU, n, a, b)


def _app(f, a):
    return (APP, f, a)


terms = st.recursive(
    st.builds(lambda n: (VAR, n), names),
    lambda inner: st.one_of(
        st.builds(_lam, names, annots, inner),
        st.builds(_mu, names, annots, inner),
        st.builds(_app, inner, inner),
    ),
    max_leaves=10,
)

# (M, x, N) triples that falsified the Lemma 3 inclusion while arg took a
# redex's open body and M's binders were not renamed apart
ARG_INCLUSION_REGRESSIONS = [
    ("x a", "x", "\\u. u u"),
    ("a a", "a", "\\a. a"),
    ("(\\x. x) a", "x", "\\u. u"),
    ("(\\y. x y) a", "x", "\\w. y"),
    ("\\x. y x", "x", "\\u. u"),
]
