"""Exact values: ``fractions.Fraction`` for finite ones, ``INF`` for +infinity.

Toughness of a complete graph is infinite (Chvátal's convention); every other
value handled by the package (toughness, thresholds, cut ratios) is a
Fraction. ``math.inf`` compares exactly with ints and Fractions and prints
as "inf". No infinite value reaches arithmetic.
"""

import math
from fractions import Fraction

INF = math.inf

# Older name for Fraction, kept for callers that still import it.
Rational = Fraction
