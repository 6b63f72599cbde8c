import math
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hintlock import bounds
from hintlock.disks import build_delta_scheme, choose_pr
from hintlock.prob import DomainError, JointPmf, Pmf
from hintlock.twohint import InfeasibleBoundError, build_two_hint, choose_triple

L4 = 1 + math.log(4)  # Arikan's (1 + ln|X|) at |X| = 4


@cache
def uniform(nx: int) -> JointPmf:
    return JointPmf.from_marginal(Pmf.uniform(nx, exact=True))


def test_list_room():
    assert bounds.list_room(6, 8) and not bounds.list_room(5, 8)  # log2 8 + 2 = 5
    assert bounds.list_room(4, 2) and not bounds.list_room(3, 2)


def test_bob_bounds_closed_forms():
    assert bounds.bob_direct(3.0, 1.0, 4, 8, "guessing") == 5.0  # 1 + 2^(3 - 2 + 1)
    assert bounds.bob_direct(2.0, 2.0, 2, None, "guessing") == 17.0  # 1 + 2^(2 * 2)
    assert bounds.bob_direct(3.0, 1.0, 9, 8, "list") == 9.0  # 1 + 2^(3 - log2(9 - 5) + 2)
    assert bounds.bob_direct(3.0, 1.0, 5, 8, "list") == math.inf  # no list room: no bound
    assert bounds.bob_converse(4.0, 1.0, 4, 1, "guessing") == 4.0  # ln 1 = 0: 2^(4 - 2)
    assert bounds.bob_converse(4.0, 1.0, 4, 4, "guessing") == pytest.approx(4 / L4, rel=1e-15)
    assert bounds.bob_converse(1.0, 1.0, 8, 4, "guessing") == 1.0  # floored at 1
    assert bounds.bob_converse(3.0, 2.0, 2, 4, "list") == 16.0  # 2^(2 * (3 - 1))
    assert bounds.bob_converse(1.0, 1.0, 8, 4, "list") == 1.0


def test_eve_bounds_closed_forms():
    assert bounds.eve_direct(5.0, 1.0, 4, 1) == 8.0  # 2^(5 - 2)
    assert bounds.eve_direct(5.0, 2.0, 4, 4) == pytest.approx(64 / L4**2, rel=1e-15)
    assert bounds.eve_converse(3.0, 1.0, 2, 1.5) == 3.0  # min(2 * 1.5, 8)
    assert bounds.eve_converse(1.0, 2.0, 4, 2.0) == 4.0  # min(16 * 2, 2^2)


def test_theorem_rows_sides_and_right_hand_sides():
    # uniform |X| = 8: h = 3 at every order
    rows = bounds.theorem_rows("s", "i", uniform(8), 1.0, "guessing", 1.5, 2.5, (4, 16, 2, 2))
    assert [(r.check, r.relation, r.lhs, r.note) for r in rows] == [
        ("bob-direct-g", "<", 1.5, ""),
        ("eve-direct-g", ">=", 2.5, ""),
        ("bob-converse-g", ">=", 1.5, ""),
        ("eve-converse-g", "<=", 2.5, ""),
    ]
    expected = [
        5.0,  # 1 + 2^(3 - 2 + 1)
        4 / (1 + math.log(8)),  # 2^(3 - 1) / (1 + ln 8)
        1.0,  # 2^(3 - 4) / (1 + ln 8), floored at 1
        3.0,  # min(2 * 1.5, 2^3): Eve's converse rides on Bob's value
    ]
    assert [r.rhs for r in rows] == pytest.approx(expected, rel=1e-14)


def test_privacy_exponent_closed_forms():
    out = bounds.privacy_exponent(1.5, 0.75, 1.0, 1.5)
    assert out.value == 0.75 and out.boundary  # bob rate on the threshold
    assert bounds.privacy_exponent(1.0, 0.5, 1.0, 1.5).value == -math.inf
    assert bounds.privacy_exponent(2.0, 2.0, 0.5, 1.5).value == 0.75  # capped at rho * h
    assert bounds.privacy_exponent(0.8, 0.4, 1.0, 1.2, e_bob=0.5).value == pytest.approx(0.9)
    assert bounds.privacy_exponent(0.6, 0.4, 1.0, 1.2, e_bob=0.5).value == -math.inf
    for args in ((1.0, 1.0, 0.0, 1.0), (1.0, 1.0, 1.0, -0.1), (1.0, 1.0, 1.0, 1.0, -0.5)):
        with pytest.raises(DomainError):
            bounds.privacy_exponent(*args)


RHO = st.sampled_from([0.5, 1.0, 2.0])
VERSION = st.sampled_from(["guessing", "list"])
NX = st.sampled_from([2, 4, 16])


@settings(max_examples=300, deadline=None)
@given(
    m1=st.integers(1, 16),
    m2=st.integers(1, 16),
    h=st.floats(0.0, 6.0),
    rho=RHO,
    u_bound=st.floats(1.0, 1e3),
    version=VERSION,
    nx=NX,
)
def test_choose_triple_builds_and_fits(m1, m2, h, rho, u_bound, version, nx):
    try:
        cs, c1, c2 = choose_triple(u_bound, m1, m2, h, rho, version, nx)
    except (DomainError, InfeasibleBoundError):
        return
    build_two_hint(uniform(nx), cs, c1, c2, version, m1, m2)
    assert bounds.bob_direct(h, rho, cs * c1 * c2, nx, version) <= u_bound


@st.composite
def disk_shapes(draw):
    delta = draw(st.integers(1, 4))
    nu = draw(st.integers(1, delta))
    return draw(st.integers(1, 4)), nu, draw(st.integers(0, nu - 1)), delta


@settings(max_examples=200, deadline=None)
@given(shape=disk_shapes(), h=st.floats(0.0, 6.0), rho=RHO, u_bound=st.floats(1.0, 1e3), version=VERSION, nx=NX)
def test_choose_pr_builds_and_fits(shape, h, rho, u_bound, version, nx):
    s, nu, eta, delta = shape
    try:
        p, r = choose_pr(u_bound, s, nu, eta, delta, h, rho, version, nx)
    except (DomainError, InfeasibleBoundError):
        return
    build_delta_scheme(uniform(nx), delta, nu, eta, s, p, r, version)
    assert bounds.bob_direct(h, rho, 2 ** (nu * s - eta * r), nx, version) <= u_bound
