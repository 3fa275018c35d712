"""Law, mixing, integer-list and numeric config strings: each one parses
or is rejected with one error."""

import argparse
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from phantomdf.cli import _parse_mixing, _Settings
from phantomdf.config import parse_int_list, parse_law
from phantomdf.distributions import _CATALOG, DistFn
from phantomdf.errors import InvalidArgumentError, InvalidSpecError
from phantomdf.grids import PROBE_TAILS
from phantomdf.rates import ExponentialMixing, MDependent, PolynomialMixing

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
# log densities whose constant alpha / scale (or alpha / (2 scale)) would
# underflow to 0 or overflow
@example("pareto(1e-300,1e300)")
@example("symmetric_pareto(1,8.98846567431158e+307)")
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


@pytest.mark.parametrize("text, error", [
    ("pareto(1e-300,1)", "has no finite median: its tail at the largest double is 1"),
    ("symmetric_pareto(1e-300,1)",
     "has no finite median: its tail at the largest double is 0.5"),
    ("pareto(0.01,1e-300)", "has an infinite quantile at p = 0.99951171875"),
    ("symmetric_pareto(0.01,1e-300)", "has an infinite quantile at p = 0.999755859375"),
    ("pareto(0.01,1e-300)+1", "has an infinite quantile at p = 0.99951171875"),
])
def test_laws_whose_quantile_overflows_are_rejected(text, error):
    # the quantile overflows at a probe level whose tail lies above the
    # law's tail at the largest double; the check itself warns nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError) as info:
            parse_law(text)
    assert str(info.value) == f"law {text!r} {error}"


@pytest.mark.parametrize("text", ["exp(1e-300)", "uniform(0,1e308)", "pareto(0.01,1)"])
def test_laws_whose_mass_beyond_the_doubles_is_below_every_probe_tail_parse(text):
    # pareto(0.01,1) puts 8.3e-4 beyond the largest double: its quantile
    # overflows only at probe tails below that, which no double reaches
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        law = parse_law(text)
        with np.errstate(over="ignore"):
            xs = np.asarray(law.quantile(1.0 - PROBE_TAILS), dtype=float)
        beyond = float(law.tail(sys.float_info.max))
    assert np.isfinite(xs[PROBE_TAILS > beyond]).all()


def test_finite_laws_still_parse():
    assert parse_law("pareto(2,1)-2").name == "pareto(2,1)-2"
    assert parse_law("mixture_component(3)").name == "mixture-component(k=3)"


_MIXINGS = st.builds(
    lambda name, args: f"{name}({','.join(args)})",
    st.one_of(st.sampled_from(["m_dependent", "exponential", "polynomial"]),
              st.text(max_size=5)),
    st.lists(_NUMBERS, max_size=2),
)


@settings(max_examples=500, deadline=None)
@given(st.one_of(_MIXINGS, st.text(max_size=20)))
def test_parse_mixing_returns_a_case_or_rejects(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            case = _parse_mixing(text)
        except InvalidArgumentError:
            return
    assert case is None or isinstance(case, (MDependent, ExponentialMixing, PolynomialMixing))


@pytest.mark.parametrize("text", [
    "m_dependent(inf)", "m_dependent(2.7)", "m_dependent(-1)", "m_dependent(1e400)",
    "polynomial(nan)", "polynomial(inf)", "polynomial(0)", "exponential(1)",
    "exponential(nan)", "polynomial(x)", "polynomial(1,2)", "geometric(2)",
    "exponential", "polynomial()", "exponential( )", "polynomial(4", "polynomial(4)))",
    "polynomial)4(", "polynomial((4))", "polynomial(4)x", "(4)",
])
def test_malformed_mixing_cases_are_rejected(text):
    with pytest.raises(InvalidArgumentError):
        _parse_mixing(text)


def test_mixing_cases_still_parse():
    assert _parse_mixing("  ") is None
    assert _parse_mixing("M_Dependent(3)") == MDependent(3)
    assert _parse_mixing("m_dependent(3.0)") == MDependent(3)
    assert _parse_mixing("exponential(0.5)") == ExponentialMixing(rho=0.5)
    assert _parse_mixing("polynomial(4)") == PolynomialMixing(beta=4.0)


_INT_LISTS = st.lists(st.one_of(st.integers().map(str), _NUMBERS, st.text(max_size=4)),
                      max_size=5).map(",".join)


@settings(max_examples=500, deadline=None)
@given(st.one_of(_INT_LISTS, st.text(max_size=20)))
def test_parse_int_list_returns_ints_or_rejects(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            values = parse_int_list(text)
        except InvalidArgumentError:
            return
    assert isinstance(values, list)
    assert all(type(v) is int for v in values)


# (section, key, getter, type of the value read)
_NUMERIC_FIELDS = [
    ("phantom-fit", "seed", lambda s: s.seed, int),
    ("phantom-fit", "replicas", lambda s: s.replicas, int),
    ("phantom-fit", "workers", lambda s: s.workers, int),
    ("phantom-fit", "gamma", lambda s: s.gamma, float),
    ("simulate", "length", lambda s: s.number("length"), int),
    ("regen", "length", lambda s: s.number("length"), int),
    ("rates", "b", lambda s: s.number("b", float), float),
    ("rates", "beta", lambda s: s.number("beta", float), float),
    ("extremal-index", "window", lambda s: s.spec().window, int),
]


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(_NUMERIC_FIELDS),
       st.one_of(_NUMBERS, st.integers().map(str), st.text(max_size=12),
                 st.sampled_from(["1e3", "2.5", " 7 ", "1_000", "0x10", "-0", "+3",
                                  "9" * 5000, str(2**64), str(10**15)])))
def test_numeric_config_fields_read_their_type_or_reject(field, text):
    """The getters the commands read numbers through, called directly (no
    command runs, so nothing is simulated)."""
    section, key, read, kind = field
    config = _Settings(argparse.Namespace(config=None, seed=None, replicas=None,
                                          workers=None, out=None), section)
    config.cp.set(section, key, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = read(config)
        except (InvalidArgumentError, InvalidSpecError):
            return
    assert type(value) is kind
