"""Exact values: Fraction for finite ones, INF for the toughness of K_n."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tough2f import INF, Rational, complete, cycle, is_t_tough
from tough2f.cli import _parse_fraction


def test_construction_reduces():
    assert Rational is Fraction  # the older name still imports
    assert Fraction(6, 4) == Fraction(3, 2)
    assert Fraction(3, 2).numerator == 3
    assert Fraction(3, 2).denominator == 2
    assert Fraction(5).denominator == 1


def test_parse():
    assert _parse_fraction("3/5") == Fraction(3, 5)
    assert _parse_fraction("7") == Fraction(7)
    assert _parse_fraction(" 3 / 2") == Fraction(3, 2)
    assert _parse_fraction("3/-2") == Fraction(-3, 2)
    for text in ("three", "inf", " inf ", "Infinity", "1.5", "3/", "/2",
                 "1/2/3", "1/0", "0/0"):
        with pytest.raises(ValueError):
            _parse_fraction(text)


def test_str():
    # the CLI prints tau and ratios with str()
    assert str(Fraction(3, 5)) == "3/5"
    assert str(Fraction(4, 2)) == "2"
    assert str(INF) == "inf"


def test_infinity_ordering():
    assert INF > Fraction(10 ** 9) and INF > 10 ** 400
    assert Fraction(10 ** 9) < INF
    assert INF >= INF and INF <= INF and INF == INF
    assert not INF < INF
    assert not INF > INF
    assert INF != Fraction(10 ** 9)


def test_infinity_guards():
    # INF is no Fraction, so is_t_tough must test for it before converting
    with pytest.raises(OverflowError):
        Fraction(INF)
    assert is_t_tough(complete(3), INF)
    assert not is_t_tough(cycle(5), INF)


def test_mixed_comparisons():
    assert Fraction(3, 2) > 1
    assert 2 > Fraction(3, 2)
    assert Fraction(3, 2) <= Fraction(3, 2)
    assert Fraction(1, 2) != "1/2"
    assert Fraction(3, 2) < INF and 2 < INF


def test_arithmetic():
    # the families' claimed values, Fraction in and Fraction out
    n = 1
    ghat = 2 - Fraction(n + 3, 3 * (2 * n + 1) + 1)
    assert type(ghat) is Fraction and ghat == Fraction(8, 5)
    assert Fraction(1, 2) - 1 == Fraction(-1, 2)
    assert 1 / Fraction(4) == Fraction(1, 4)


def test_hashable():
    assert len({Fraction(1, 2), Fraction(2, 4), INF}) == 2


fractions = st.fractions(min_value=-100, max_value=100,
                         max_denominator=50)


@given(fractions, fractions)
def test_matches_fraction_semantics(a, b):
    # every finite value sits below INF, whatever the order between them
    assert a < INF and not a >= INF and a != INF
    assert min(a, b, INF) == min(a, b) and max(a, b, INF) == INF
