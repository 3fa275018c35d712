"""Law strings: each one parses to a law or is rejected with one error."""

import warnings

import pytest
from hypothesis import given, settings, strategies as st

from phantomdf.config import parse_law
from phantomdf.distributions import _CATALOG, DistFn
from phantomdf.errors import InvalidArgumentError

_NUMBERS = st.one_of(
    st.floats().map(repr),
    st.integers(-5, 10**6).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", "1e-400", "0", "0.5",
                     "2", "", "x", "1e", "1,2"]),
)
_LAWS = st.builds(
    lambda name, args, shift: f"{name}({','.join(args)}){shift}",
    st.one_of(st.sampled_from(sorted(_CATALOG)), st.text(max_size=5)),
    st.lists(_NUMBERS, max_size=4),
    st.one_of(st.just(""),
              st.builds(str.__add__, st.sampled_from("+-"),
                        st.one_of(_NUMBERS, st.text("0123456789.eE+-", max_size=6)))),
)


@settings(max_examples=500, deadline=None)
@given(st.one_of(_LAWS, st.text(max_size=20)))
def test_parse_law_returns_a_law_or_rejects(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            law = parse_law(text)
        except InvalidArgumentError:
            return
    assert isinstance(law, DistFn)


@pytest.mark.parametrize("text", [
    "exp(nan)", "exp(inf)", "exp(1e400)", "pareto(nan,1)", "pareto(2,inf)",
    "beta(nan,1)", "uniform(-inf,1)", "pareto(2,1)-1e400", "exp(1)+1e400",
])
def test_non_finite_parameters_and_shifts_are_rejected(text):
    with pytest.raises(InvalidArgumentError, match="must be finite"):
        parse_law(text)


@pytest.mark.parametrize("text", [
    "exp(1,2)", "pareto()", "superheavy(1)", "jumpseq(1,3)",
    "mixture_component(1e300)", "mixture_component(2,3)", "exp(1)+1e",
])
def test_malformed_arguments_are_rejected(text):
    with pytest.raises(InvalidArgumentError):
        parse_law(text)


def test_finite_laws_still_parse():
    assert parse_law("pareto(2,1)-2").name == "pareto(2,1)-2"
    assert parse_law("mixture_component(3)").name == "mixture-component(k=3)"
