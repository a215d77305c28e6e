from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from affdef.scalar import LinForm, NonlinearProduct, format_rational, parse_rational


def lf(const=0, **terms):
    return LinForm(const, terms)


def test_add_cancellation():
    assert lf(3, a1=2) + lf(-3, a1=1) == lf(0, a1=3)


def test_add_identity():
    x = lf(0, a2=Fraction(7, 3), c=-1)
    assert LinForm(0) + x == x


def test_add_map_merge():
    # term-by-term hand sum
    left = lf(0, a3=84, c=12)
    right = lf(0, b3=-18, b5=6)
    assert left + right == lf(0, a3=84, b3=-18, b5=6, c=12)


def test_scale_zero():
    assert lf(5, a1=3).scale(0) == LinForm(0)
    assert not lf(5, a1=3).scale(0)


def test_scale_row_content():
    assert lf(0, a4=112, a5=-28).scale(-6) == lf(0, a4=-672, a5=168)


def test_scale_rational():
    assert lf(0, c=3).scale(Fraction(4, 3)) == lf(0, c=4)


def test_unit_scaling_shares_the_form():
    # a form is immutable, so scaling by one hands back the form itself
    x = lf(2, a1=3, c=-1)
    assert x.scale(1) is x and x.scale(Fraction(3, 3)) is x
    assert x * 1 is x and 1 * x is x and Fraction(1) * x is x
    assert x * LinForm(1) is x and LinForm(1) * x is x
    assert x.scale(-1) is not x and x.scale(-1).scale(-1) == x


def test_mul_constant_left():
    assert LinForm(2) * lf(3, a1=1) == lf(6, a1=2)


def test_mul_constant_right():
    assert lf(3, a1=1) * LinForm(2) == lf(6, a1=2)
    assert LinForm(-1) * LinForm(-6) == LinForm(6)


def test_mul_nonlinear_guard():
    with pytest.raises(NonlinearProduct):
        LinForm.symbol("c") * LinForm.symbol("a1")


def test_zero_pruning_idempotent():
    x = lf(1, a1=2) + lf(0, a1=-2)
    assert x.terms == {}
    assert x == LinForm(1)
    assert (x + LinForm(0)).terms == {}


def test_render_symbol_order():
    x = lf(0, a2=-42, a4=-56, c=9)
    assert str(x) == "-42*a2 - 56*a4 + 9*c"


def test_render_c_last():
    x = lf(0, c=1, c1=2, b1=-1)
    assert str(x) == "-b1 + 2*c1 + c"


def test_render_constant_and_zero():
    assert str(LinForm(0)) == "0"
    assert str(lf(3, a1=2)) == "3 + 2*a1"
    assert str(lf(Fraction(-4, 3))) == "-4/3"


def test_parse_format_rational():
    assert parse_rational("-4/3") == Fraction(-4, 3)
    assert parse_rational("7") == Fraction(7)
    assert format_rational(Fraction(10, 5)) == "2"
    assert format_rational(Fraction(-4, 3)) == "-4/3"
    with pytest.raises(ValueError):
        parse_rational("nope")
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_immutability():
    x = lf(1, a1=1)
    with pytest.raises(AttributeError):
        x.constant = Fraction(2)


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=9)
names = st.sampled_from(["a1", "a2", "b4", "c1", "c"])
linforms = st.builds(
    LinForm,
    rationals,
    st.dictionaries(names, rationals, max_size=4),
)


@given(linforms, linforms, linforms)
def test_add_associative_commutative(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x


@given(rationals, linforms, linforms)
def test_scale_distributes(r, x, y):
    assert (x + y).scale(r) == x.scale(r) + y.scale(r)


@given(linforms)
def test_neg_inverse(x):
    assert x + (-x) == LinForm(0)


@given(rationals, rationals, linforms)
def test_scale_composes(r, s, x):
    assert x.scale(r).scale(s) == x.scale(r * s)


def test_constant_form_hashes_like_its_value():
    for value in (3, Fraction(1, 2)):
        assert LinForm(value) == value
        assert hash(LinForm(value)) == hash(value)
        assert len({LinForm(value), value}) == 1
        assert {value: "found"}[LinForm(value)] == "found"


# --- the coefficient rule: an int when integral, a Fraction otherwise ---

def follows_the_rule(q) -> bool:
    """``exact``'s rational rule, by type: never a float, a bool or an integral Fraction."""
    return type(q) is int or (type(q) is Fraction and q.denominator != 1)


def test_symbol_stores_an_integral_coefficient_as_int():
    x = LinForm.symbol("c", Fraction(4, 2))
    assert x.terms == {"c": 2} and type(x.terms["c"]) is int


def test_coefficient_of_an_absent_symbol_is_zero():
    zero = LinForm.symbol("c").coefficient("a1")
    assert zero == 0 and type(zero) is int


def test_int_and_fraction_inputs_give_one_form():
    as_int = LinForm(2, {"a1": Fraction(1, 2), "c": 3})
    as_fraction = LinForm(Fraction(4, 2), {"a1": Fraction(1, 2), "c": Fraction(3)})
    assert as_int == as_fraction and hash(as_int) == hash(as_fraction)
    assert len({as_int, as_fraction}) == 1
    assert all(follows_the_rule(q) for q in (as_fraction.constant, *as_fraction.terms.values()))


def test_other_inputs_follow_the_rule():
    x = LinForm(True, {"a1": False, "b1": "0/3", "c": 0.5})
    assert (x.constant, x.terms) == (1, {"c": Fraction(1, 2)})
    assert follows_the_rule(x.constant) and follows_the_rule(x.terms["c"])
    assert type(lf(0, c=3).scale(1.0).terms["c"]) is int
    with pytest.raises(TypeError):
        LinForm(0, {"c": LinForm.symbol("a1")})


@given(rationals, linforms, linforms)
def test_arithmetic_keeps_the_rule(r, x, y):
    for z in (x + y, x - y, -x, x.scale(r), LinForm(r) * x, x + r):
        assert all(follows_the_rule(q) for q in (z.constant, *z.terms.values())), z


def test_pipelines_build_every_linform_under_the_rule(monkeypatch):
    from affdef.liealg import sl2, sln
    from affdef.rigidity import admissible_pipeline, cross_check, integral_pipeline

    seen, broken = set(), []
    init = LinForm.__init__

    def checked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        for q in (self.constant, *self.terms.values()):
            seen.add(type(q))
            if not follows_the_rule(q):
                broken.append((str(self), type(q)))

    monkeypatch.setattr(LinForm, "__init__", checked)
    for g, top in ((sl2(), 4), (sln(3), 2)):
        for k in range(1, top + 1):
            assert integral_pipeline(g, k).c_forced_zero
    assert admissible_pipeline().c_forced_zero
    assert len(cross_check()) == 10
    assert not broken, broken[:5]
    assert seen == {int, Fraction}  # both branches of the rule were built
