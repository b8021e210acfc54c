"""Built-in parametric instance families.

These are the families the CLI exposes under `generate --family {thm1,thm4,
thm5,thm7}`: exact witnesses for how expensive EF1/balanced/round-robin
constraints and welfare-maximizer filters can be for the worst-off agent.
All parameters are exact rationals and every generator output passes
validate_instance.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InfeasibleParams, ParamOutOfRange
from .model import ONE, ZERO, Instance, _check_list_size, as_rational, validate_instance


def gen_thm1(n: int, m: int, eps=None) -> Instance:
    """Family with one single-minded agent, eps-flat middle agents and an
    eps^2-flat last agent; forcing near-even splits crushes the minimum.

    Defaults eps to 1/(10*m), comfortably below the 1/m feasibility wall.
    """
    if n < 3:
        raise ParamOutOfRange(f"need n >= 3, got {n}")
    if m < n:
        raise ParamOutOfRange(f"need m >= n, got m={m}, n={n}")
    _check_list_size("m", m)
    eps = as_rational(eps) if eps is not None else Fraction(1, 10 * m)
    if eps <= 0:
        raise ParamOutOfRange("eps must be positive")
    if (m - 1) * eps >= 1:
        raise ParamOutOfRange(f"(m-1)*eps = {(m - 1) * eps} >= 1")
    if eps >= 1 - (m - 1) * eps:
        raise ParamOutOfRange("eps must stay below 1 - (m-1)*eps")
    rows = [[ONE] + [ZERO] * (m - 1)]
    for _ in range(2, n):
        rows.append([1 - (m - 1) * eps] + [eps] * (m - 1))
    rows.append([1 - (m - 1) * eps**2] + [eps**2] * (m - 1))
    return validate_instance(rows)


def gen_thm4(eps) -> Instance:
    """Two agents, three goods; the unique utilitarian maximizer leaves the
    second agent with only the 2*eps good."""
    eps = as_rational(eps)
    if not 0 < eps < Fraction(1, 4):
        raise ParamOutOfRange(f"need 0 < eps < 1/4, got {eps}")
    half = Fraction(1, 2)
    rows = [
        [half, half, ZERO],
        [half - eps, half - eps, 2 * eps],
    ]
    return validate_instance(rows)


def thm5_x_feasible(x) -> bool:
    """Is there any y making gen_thm5(x, y) feasible?

    The y-interval (1/(x + sqrt(x)), 1/x^2) is nonempty exactly when
    x*(x-1)^2 < 1; squaring x^2 - x < sqrt(x) is valid because x > 1 makes
    both sides positive. The boundary is the square of the real root of
    t^3 - t - 1.
    """
    x = as_rational(x)
    if x <= 1:
        raise ParamOutOfRange(f"need x > 1, got {x}")
    return x * (x - 1) ** 2 < 1


def gen_thm5(x, y) -> Instance:
    """Two agents, three goods, parameterized so the Nash maximizer and the
    egalitarian optimum disagree by exactly a factor of x.

    Requires x > 1 and y strictly inside (1/(x + sqrt(x)), 1/x^2); both
    bounds are checked through squared rational inequalities, so no root is
    ever materialized.
    """
    x = as_rational(x)
    y = as_rational(y)
    if x <= 1:
        raise ParamOutOfRange(f"need x > 1, got {x}")
    if x**2 * y >= 1:
        raise InfeasibleParams(f"y = {y} is not below 1/x^2 = {1 / x**2}")
    # y < 1/x^2 makes 1 - x*y positive, so squaring the lower bound is valid
    if y <= 0 or (1 - x * y) ** 2 >= x * y**2:
        raise InfeasibleParams(f"y = {y} is not above 1/(x + sqrt(x))")
    rows = [
        [x * y, 1 - x * y, ZERO],
        [1 - x * y, (x - 1) * y, y],
    ]
    return validate_instance(rows)


def gen_thm7(eps) -> Instance:
    """Three agents, three goods; the Nash maximizer starves the third agent
    down to eps^2/2 while eps/2 is achievable."""
    eps = as_rational(eps)
    if not 0 < eps <= Fraction(1, 10):
        raise ParamOutOfRange(f"need 0 < eps <= 1/10, got {eps}")
    third = Fraction(1, 3)
    rows = [
        [ONE, ZERO, ZERO],
        [third - eps / 2, eps / 2, Fraction(2, 3)],
        [1 - eps / 2 - eps**2 / 2, eps**2 / 2, eps / 2],
    ]
    return validate_instance(rows)


def pad_instance(inst: Instance, k: int) -> Instance:
    """Append k agents and k goods, each new agent valuing only her own new
    good. Original indices are preserved, and all of the best egalitarian,
    utilitarian-restricted and Nash-restricted welfares are unchanged."""
    if k < 0:
        raise ParamOutOfRange(f"need k >= 0, got {k}")
    if k == 0:
        return inst
    _check_list_size("m + k", inst.m + k)
    rows = [list(row) + [ZERO] * k for row in inst.u]
    for i in range(k):
        row = [ZERO] * (inst.m + k)
        row[inst.m + i] = ONE
        rows.append(row)
    return validate_instance(rows)
