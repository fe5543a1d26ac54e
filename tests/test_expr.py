import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hjblab.errors import (
    ArityError,
    DomainFaultError,
    ExprParseError,
    UnboundVariableError,
    UnknownIdentifierError,
)
from hjblab.expr import Bin, Call, Neg, Num, Var, evaluate, free_vars, parse, pretty


def ev(src, **bindings):
    return evaluate(parse(src), bindings)


def test_parse_sum_of_power_and_product():
    assert parse("x1^2 + 3*x1") == Bin(
        "+", Bin("^", Var("x1"), Num(2.0)), Bin("*", Num(3.0), Var("x1"))
    )


def test_parse_power_over_product():
    tree = parse("(x1*(1-x1))^0.75")
    assert isinstance(tree, Bin) and tree.op == "^"
    assert isinstance(tree.lhs, Bin) and tree.lhs.op == "*"
    assert tree.rhs == Num(0.75)


def test_parse_error_offset():
    with pytest.raises(ExprParseError) as err:
        parse("x1 +")
    assert err.value.offset == 4


def test_eval_polynomial():
    assert ev("x1^2 + 3*x1", x1=2) == 10.0


def test_eval_fractional_power():
    assert ev("(x1*(1-x1))^0.75", x1=0.5) == 2.0**-1.5


def test_eval_log_domain_fault():
    with pytest.raises(DomainFaultError):
        ev("log(x1)", x1=0)


def test_free_vars():
    assert free_vars(parse("3.0")) == set()
    assert free_vars(parse("x1*(1-x1)")) == {"x1"}
    assert free_vars(parse("min(d, x2)")) == {"d", "x2"}


def test_precedence():
    assert ev("2+3*4") == 14.0
    assert ev("2^3^2") == 512.0  # right associative
    assert ev("-x1^2", x1=3) == -9.0
    assert ev("2^-3") == 0.125
    assert ev("6/3/2") == 1.0
    assert ev("1-2-3") == -4.0


def test_whitespace_insensitive():
    assert parse(" x1 ^ 2+ 3 * x1 ") == parse("x1^2+3*x1")


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError):
        parse("x3 + 1")
    with pytest.raises(UnknownIdentifierError):
        parse("sqrt(x1)")


def test_arity_mismatch():
    with pytest.raises(ArityError):
        parse("min(d)")
    with pytest.raises(ArityError):
        parse("exp(x1, d)")


def test_malformed():
    for bad in ("", "()", "x1 x1", "1 + * 2", "min(,)", "(x1", "1..2"):
        with pytest.raises(ExprParseError):
            parse(bad)


def test_unbound_variable():
    with pytest.raises(UnboundVariableError):
        evaluate(parse("x1+d"), {"x1": 1.0})


def test_domain_faults():
    with pytest.raises(DomainFaultError):
        ev("1/x1", x1=0)
    with pytest.raises(DomainFaultError):
        ev("x1^-1", x1=0)
    with pytest.raises(DomainFaultError):
        ev("x1^0.5", x1=-2)
    with pytest.raises(DomainFaultError):
        ev("exp(x1)", x1=1e9)
    assert ev("x1^3", x1=-2) == -8.0  # integer power of a negative base is fine
    assert ev("pow(x1, 2)", x1=-3) == 9.0


def test_calls():
    assert ev("max(x1, d)", x1=1, d=4) == 4.0
    assert ev("abs(x1)", x1=-2.5) == 2.5
    assert ev("cos(x1)", x1=0.0) == 1.0
    assert math.isclose(ev("sin(x1)", x1=math.pi / 2), 1.0)


def test_purity_bit_identical():
    tree = parse("exp(sin(x1)*d) - d^0.3/(1+x1)")
    vals = {evaluate(tree, {"x1": 0.37, "d": 0.12}) for _ in range(8)}
    assert len(vals) == 1


_leaf = st.one_of(
    st.builds(Num, st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)),
    st.sampled_from([Var("x1"), Var("x2"), Var("d")]),
)


def _compound(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(Bin, st.sampled_from(["+", "-", "*", "/", "^"]), children, children),
        st.builds(lambda f, a: Call(f, (a,)), st.sampled_from(["exp", "log", "sin", "cos", "abs"]), children),
        st.builds(lambda f, a, b: Call(f, (a, b)), st.sampled_from(["min", "max", "pow"]), children, children),
    )


@settings(max_examples=200, deadline=None)
@given(st.recursive(_leaf, _compound, max_leaves=12))
@example(Num(-1.0))
@example(Neg(Num(1.0)))
@example(Bin("^", Num(-0.0), Var("x1")))
@example(Bin("^", Num(2.0), Num(-3.0)))
def test_pretty_round_trip(tree):
    # repr, not ==: Num(-0.0) == Num(0.0), but the float repr keeps the sign and every bit
    assert repr(parse(pretty(tree))) == repr(tree)


def test_pretty_fixed_cases():
    for src in ("x1^2+3*x1", "-(x1*x2)", "-x1*x2", "2^3^2", "x1-(x2-d)", "min(d,x2)^0.5"):
        tree = parse(src)
        assert repr(parse(pretty(tree))) == repr(tree)


def test_array_fault_names_subexpression_and_first_bad_point():
    x1 = np.linspace(0.1, 1.0, 50)
    x1[17] = x1[31] = 0.0
    with pytest.raises(DomainFaultError) as err:
        evaluate(parse("2 + 1/x1"), {"x1": x1, "d": np.arange(50.0)})
    assert err.value.expression == "1.0/x1"
    assert err.value.point == {"x1": 0.0, "d": 17.0}
    d = np.full(40, 0.25)
    d[3] = -1.0
    with pytest.raises(DomainFaultError) as err:
        evaluate(parse("x1 + d^0.75"), {"x1": np.arange(40.0), "d": d})
    assert err.value.expression == "d^0.75"
    assert err.value.point == {"x1": 3.0, "d": -1.0}
    assert "x1=3.0" in str(err.value)


def test_sum_and_difference_overflow_raise():
    with pytest.raises(DomainFaultError, match="overflow") as err:
        evaluate(parse("x1*1e308 + x1*1e308"), {"x1": 1.0})
    assert err.value.expression == "x1*1e+308+x1*1e+308"
    # every operand is finite; only the difference overflows, first at x1 = 1
    with pytest.raises(DomainFaultError, match="overflow") as err:
        evaluate(parse("-1e308*x1 - 1e308"), {"x1": np.array([0.5, 1.0, 1.5])})
    assert err.value.point == {"x1": 1.0}


def test_overflowing_literal_is_refused_at_parse_time():
    for src, offset in (("1e999", 0), ("x1 - 1e999", 5), ("-1e999", 1), ("2^-1E400", 3)):
        with pytest.raises(ExprParseError, match="overflows") as err:
            parse(src)
        assert err.value.offset == offset
    assert parse("1e308") == Num(1e308)
    assert parse("1e-999") == Num(0.0)  # underflow to zero is exact enough to keep


def test_array_and_pointwise_evaluation_agree_bit_for_bit():
    rng = np.random.default_rng(3)
    x1 = rng.uniform(1e-9, 1.0, 2000)
    d = rng.uniform(1e-9, 0.5, 2000)
    for src in ("(x1*(1-x1))^0.4*(1-2*x1)", "(x1*(1-x1))^0.75", "exp(sin(x1)*d) - d^0.3/(1+x1)",
                "log(d)*cos(x1) + pow(d, 1.5)", "min(x1, d) - max(x1^2, abs(d-0.2))"):
        tree = parse(src)
        batch = evaluate(tree, {"x1": x1, "d": d})
        single = np.array([evaluate(tree, {"x1": float(a), "d": float(b)}) for a, b in zip(x1, d)])
        assert batch.shape == (2000,)
        assert np.array_equal(batch, single), src


def test_result_shapes():
    assert isinstance(ev("x1 + 1", x1=2.0), float)
    assert evaluate(parse("3"), {"x1": np.zeros(4)}).tolist() == [3.0] * 4
    assert evaluate(parse("x1*d"), {"x1": np.ones((2, 3)), "d": 2.0}).shape == (2, 3)
