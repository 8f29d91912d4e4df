import math

import pytest

from enmsim.errors import ConfigError
from enmsim.expressions import compile_rate_expression


def test_constants_and_variable():
    assert compile_rate_expression("2.5")(0.0) == 2.5
    assert compile_rate_expression("t")(1.5) == 1.5


def test_arithmetic():
    fn = compile_rate_expression("1 + 2*t - t/4")
    assert fn(2.0) == pytest.approx(1 + 4 - 0.5)
    assert compile_rate_expression("(1 + t)^2")(2.0) == pytest.approx(9.0)
    assert compile_rate_expression("-t")(3.0) == -3.0


def test_functions():
    assert compile_rate_expression("exp(-2*t)")(1.0) == pytest.approx(math.exp(-2))
    assert compile_rate_expression("tanh(t)")(0.7) == pytest.approx(math.tanh(0.7))
    fn = compile_rate_expression("-0.5*sinh(2*t)/(cosh(t)^2)")
    assert fn(1.0) == pytest.approx(-math.tanh(1.0))


def test_rejects_unknown_names():
    with pytest.raises(ConfigError):
        compile_rate_expression("u + 1")
    with pytest.raises(ConfigError):
        compile_rate_expression("sin(t)")
    with pytest.raises(ConfigError):
        compile_rate_expression("__import__('os')")


def test_rejects_bad_syntax():
    with pytest.raises(ConfigError):
        compile_rate_expression("1 +")
    with pytest.raises(ConfigError):
        compile_rate_expression("t; t")
    with pytest.raises(ConfigError):
        compile_rate_expression("[1,2]")


def test_values_match_plain_float_arithmetic():
    fn = compile_rate_expression("-0.5*sinh(2*t)/(cosh(t)^2) + exp(-t)^1.5")
    for t in (0.0, 0.3, 1.7, 12.0):
        expected = -0.5 * math.sinh(2 * t) / (math.cosh(t) ** 2) + math.exp(-t) ** 1.5
        assert fn(t) == expected


@pytest.mark.parametrize(
    "text, t",
    [
        ("exp(1000*t)", 1.0),  # overflow
        ("(-1)^t", 0.5),  # complex result
        ("1/(t-1)", 1.0),  # division by zero
        ("t*1e308*10", 1.0),  # infinite result
        ("1e400", 0.0),  # infinite literal
    ],
)
def test_arithmetic_failures_are_config_errors(text, t):
    fn = compile_rate_expression(text)
    with pytest.raises(ConfigError):
        fn(t)


def test_oversized_expressions_are_config_errors():
    with pytest.raises(ConfigError):
        compile_rate_expression("1" * 400)  # integer literal beyond float range
    with pytest.raises(ConfigError):
        compile_rate_expression("-" * 5000 + "t")  # nesting beyond the recursion limit
