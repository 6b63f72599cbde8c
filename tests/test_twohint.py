import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from hintlock.adversary import cells, eve_bracket, support_moment
from hintlock.guessing import grouped_moment, optimal_guesser, random_joint
from hintlock.prob import DomainError, JointPmf, Pmf, RenyiOrder, renyi_cond_entropy
from hintlock.report import all_passed
from hintlock.twohint import (
    InfeasibleBoundError,
    _eve_floor,
    bob_ambiguity,
    build_eve_list_scheme,
    build_secret_hint,
    build_secret_key,
    build_two_hint,
    choose_triple,
    eve_ambiguity_exact,
    eve_ambiguity_weak,
    eve_list_ambiguity,
    scheme_from_law,
    two_hint_exponents,
    verify_eve_list,
    verify_finite_blocklength,
    verify_secret_hint,
    verify_secret_key,
)

BIT = JointPmf.from_marginal(Pmf.of([Fraction(1, 2), Fraction(1, 2)], exact=True))
U4 = JointPmf.from_marginal(Pmf.of([Fraction(1, 4)] * 4, exact=True))
SKEW4 = JointPmf.from_marginal(
    Pmf.of([Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)], exact=True)
)


def guess_moment_given(law, obs, rho):
    """Optimal guessing moment of X given obs(key), by the shared kernel."""
    return grouped_moment(((obs(k), k[0], float(p)) for k, p in law.items() if p > 0), rho)


def list_moment_given(law, obs, rho):
    """E[|support of X given obs(key)|^rho], by the shared support moment."""
    return support_moment(cells(law, lambda k: (obs(k),)), rho)


def pad_pair_moment(scheme, rho):
    """Optimal moment of the pair (X, U) given Y; U is the uniform pad."""
    return grouped_moment(
        ((y, (x, m2 // scheme.c2), float(p)) for (x, y, _, m2), p in scheme.law.items() if p > 0), rho
    )


def admissible_triples(m1, m2):
    out = []
    for cs in range(1, min(m1, m2) + 1):
        for c1 in range(1, m1 // cs + 1):
            for c2 in range(1, m2 // cs + 1):
                out.append((cs, c1, c2))
    return out


def test_build_examples():
    s = build_two_hint(BIT, 2, 1, 1)
    assert bob_ambiguity(s, 1.0, "guessing") == pytest.approx(1.0)
    assert bob_ambiguity(s, 1.0, "list") == pytest.approx(1.0)
    s2 = build_two_hint(U4, 1, 4, 1)
    assert bob_ambiguity(s2, 1.0, "guessing") == pytest.approx(1.0)
    s3 = build_two_hint(U4, 2, 2, 1)
    assert bob_ambiguity(s3, 1.0, "guessing") == pytest.approx(1.0)
    h = renyi_cond_entropy(U4, RenyiOrder.from_rho(1.0))
    assert 1 + 2 ** (1.0 * (h - math.log2(4) + 1)) == pytest.approx(3.0)


def test_build_precondition_errors():
    with pytest.raises(DomainError):
        build_two_hint(U4, 5, 1, 1, m1_size=4, m2_size=4)
    with pytest.raises(DomainError):
        build_two_hint(U4, 2, 3, 1, m1_size=4, m2_size=4)
    with pytest.raises(DomainError):
        build_two_hint(U4, 2, 2, 1, "list")  # 4 <= log2(4)+2


def test_pad_coordinates_exactly_uniform():
    for joint in (U4, SKEW4):
        s = build_two_hint(joint, 2, 2, 2, m1_size=4, m2_size=4)
        pad1, pad2 = s.pad_coordinate_laws()
        for (x, y), row in pad2.items():
            total = sum(row.values())
            assert set(row) == {0, 1}
            assert all(v * 2 == total for v in row.values())  # exactly uniform
        for (x, y), row in pad1.items():
            total = sum(row.values())
            assert all(v * 2 == total for v in row.values())


def typed_items(laws) -> list:
    """Pad laws as nested item lists, with each value's type: order and types count."""
    return [[(xy, [(k, type(v), v) for k, v in by_pad.items()]) for xy, by_pad in law.items()] for law in laws]


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("triple", [(2, 2, 2), (3, 1, 2), (4, 4, 4)])
def test_pad_coordinate_laws_equal_fraction_reference(exact, triple):
    joint = random_joint(np.random.default_rng(sum(triple)), 5, 3, exact=exact, zeros=0.2)
    s = build_two_hint(joint, *triple)
    assert typed_items(s.pad_coordinate_laws()) == typed_items(oracles.pad_coordinate_laws(s))
    law = dict(s.law)  # one mass off: the sums still agree
    law[next(iter(law))] += Fraction(1, 2**40) if exact else 2.0**-40
    off = dataclasses.replace(s, law=law)
    assert typed_items(off.pad_coordinate_laws()) == typed_items(oracles.pad_coordinate_laws(off))


def test_eve_examples_from_fixed_laws():
    law1 = {}
    for x in (0, 1):
        law1[(x, 0, x, 2)] = Fraction(1, 4)
        law1[(x, 0, 2, x)] = Fraction(1, 4)
    s1 = scheme_from_law(BIT, law1, 3, 3)
    assert eve_ambiguity_exact(s1, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert eve_ambiguity_weak(s1, 1.0) == pytest.approx(1.25, abs=1e-12)
    otp = build_two_hint(BIT, 2, 1, 1)
    assert eve_ambiguity_exact(otp, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert eve_ambiguity_weak(otp, 1.0) == pytest.approx(1.5, abs=1e-12)


def test_eve_bounds_bracket_exact():
    # the certified bracket used when the exact oracles are out of budget
    for joint in (U4, SKEW4):
        for triple in ((1, 2, 2), (2, 2, 2), (4, 1, 1)):
            s = build_two_hint(joint, *triple, m1_size=4, m2_size=4)
            for rho in (0.5, 1.0, 2.0):
                exact = eve_ambiguity_exact(s, rho)
                bracket = eve_bracket(s.eve_cells, rho, _eve_floor(s, rho))
                assert bracket.lower - 1e-12 <= exact <= bracket.upper + 1e-12


def test_eve_exact_never_exceeds_weak():
    rng = np.random.default_rng(4)
    for _ in range(25):
        j = random_joint(rng, int(rng.integers(2, 5)), 1, exact=True)
        for cs, c1, c2 in ((1, 2, 2), (2, 1, 1), (2, 2, 1)):
            s = build_two_hint(j, cs, c1, c2)
            for rho in (0.5, 1.0):
                assert eve_ambiguity_exact(s, rho) <= eve_ambiguity_weak(s, rho) + 1e-12


def test_full_sweep_uniform4():
    for version in ("guessing", "list"):
        for triple in admissible_triples(4, 4):
            if version == "list" and not triple[0] * triple[1] * triple[2] > math.log2(4) + 2:
                continue
            s = build_two_hint(U4, *triple, version, 4, 4)
            rows = verify_finite_blocklength(s, 1.0, version)
            assert all_passed(rows), [r for r in rows if not r.passed]


def test_universal_converses_on_random_schemes():
    # adversarially random encoder laws still satisfy every converse
    rng = np.random.default_rng(77)
    for _ in range(30):
        nx = int(rng.integers(2, 4))
        j = random_joint(rng, nx, 1, exact=True)
        m1 = m2 = 2
        law = {}
        for i, x in enumerate(j.x_alphabet):
            p = j.table[i][0]
            if p <= 0:
                continue
            weights = rng.integers(0, 5, size=m1 * m2)
            if weights.sum() == 0:
                weights[0] = 1
            denom = int(weights.sum())
            k = 0
            for a in range(m1):
                for b in range(m2):
                    if weights[k]:
                        law[(x, 0, a, b)] = p * Fraction(int(weights[k]), denom)
                    k += 1
        s = scheme_from_law(j, law, m1, m2)
        for rho in (0.5, 1.0, 2.0):
            h = renyi_cond_entropy(j, RenyiOrder.from_rho(rho))
            a_bg = guess_moment_given(law, lambda key: key[1:], rho)
            a_bl = list_moment_given(law, lambda key: key[1:], rho)
            a_e = eve_ambiguity_exact(s, rho)
            a_ew = eve_ambiguity_weak(s, rho)
            assert a_bg >= max(1.0, (1 + math.log(nx)) ** -rho * 2 ** (rho * (h - math.log2(m1 * m2)))) - 1e-9
            assert a_bl >= max(1.0, 2 ** (rho * (h - math.log2(m1 * m2)))) - 1e-9
            for val in (a_e, a_ew):
                assert val <= min(m1, m2) ** rho * a_bg + 1e-9
                assert val <= 2 ** (rho * h) + 1e-9
            assert a_e <= a_ew + 1e-12


def test_choose_triple_cases_and_oracle():
    h = renyi_cond_entropy(U4, RenyiOrder.from_rho(1.0))
    assert choose_triple(100.0, 4, 4, h, 1.0, "guessing", nx=4) == (4, 1, 1)
    assert choose_triple(1.6, 4, 4, h, 1.0, "guessing", nx=4) == (1, 4, 4)
    with pytest.raises(InfeasibleBoundError):
        choose_triple(0.9, 4, 4, h, 1.0, "guessing", nx=4)
    # rebuilt scheme honors the budget; search oracle confirms the case rule
    for u_bound in (1.55, 1.8, 2.5, 3.5, 10.0):
        triple = choose_triple(u_bound, 4, 4, h, 1.0, "guessing", nx=4)
        s = build_two_hint(U4, *triple, "guessing", 4, 4)
        assert bob_ambiguity(s, 1.0) < u_bound
        # oracle: the rule's cs is the largest whose direct RHS fits the budget
        # whenever the tight third case applies
        feasible = [
            (cs, c1, c2)
            for (cs, c1, c2) in admissible_triples(4, 4)
            if 1 + 2 ** (1.0 * (h - math.log2(cs * c1 * c2) + 1)) <= u_bound
        ]
        assert feasible, u_bound
        assert triple in feasible


def test_choose_triple_list_version():
    h = renyi_cond_entropy(U4, RenyiOrder.from_rho(1.0))
    triple = choose_triple(100.0, 4, 4, h, 1.0, "list", nx=4)
    s = build_two_hint(U4, *triple, "list", 4, 4)
    assert bob_ambiguity(s, 1.0, "list") < 100.0
    with pytest.raises(InfeasibleBoundError):
        choose_triple(0.5, 4, 4, h, 1.0, "list", nx=4)


def test_secret_hint_examples_and_verify():
    for version in ("guessing", "list"):
        for c, ms in ((2, 4), (4, 2), (2, 8)):
            if version == "list" and not c * ms > math.log2(4) + 2:
                continue
            sch = build_secret_hint(U4, c, ms, version)
            rows = verify_secret_hint(sch, 1.0)
            assert all_passed(rows), [r for r in rows if not r.passed]
    # c = |X| with trivial secret part: the public hint reveals X
    sch = build_secret_hint(U4, 4, 1)
    a_e = guess_moment_given(sch.law, lambda k: (k[1], k[2]), 1.0)
    assert a_e == pytest.approx(1.0)


def test_secret_key_examples_and_verify():
    sk = build_secret_key(U4, 1, 4)
    a_e = guess_moment_given(sk.law, lambda k: (k[1], k[3]), 1.0)
    assert a_e == pytest.approx(2.5)  # hint independent of X
    sk2 = build_secret_key(U4, 4, 1)
    a_e2 = guess_moment_given(sk2.law, lambda k: (k[1], k[3]), 1.0)
    assert a_e2 == pytest.approx(1.0)
    for version in ("guessing", "list"):
        for c, ks in ((2, 2), (1, 8), (2, 4)):
            if version == "list" and not c * ks > math.log2(4) + 2:
                continue
            sch = build_secret_key(U4, c, ks, version)
            rows = verify_secret_key(sch, 1.0)
            assert all_passed(rows), [r for r in rows if not r.passed]
    with pytest.raises(DomainError):
        build_secret_key(U4, 3, 2, m_size=4)  # c|K| > |M|


def test_eve_list_scheme():
    sch = build_eve_list_scheme(U4, 4, 4, 20.0)
    assert eve_list_ambiguity(sch, 1.0) == pytest.approx(4.0, abs=1e-12)
    rows = verify_eve_list(sch, 1.0)
    assert all_passed(rows), [r for r in rows if not r.passed]
    # X deterministic given Y: every list is a singleton
    det = JointPmf.of([[Fraction(1, 2), 0], [0, Fraction(1, 2)]], exact=True)
    sd = build_eve_list_scheme(det, 2, 2, 20.0)
    assert eve_list_ambiguity(sd, 1.0) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        build_eve_list_scheme(U4, 4, 4, 0.0)  # degenerate mixing weight
    with pytest.raises(DomainError):
        build_eve_list_scheme(U4, 2, 4, 20.0)  # min size below 1 + floor(log2 4)


def test_eve_list_single_hint_lists_cover_everything():
    sch = build_eve_list_scheme(SKEW4, 6, 6, 8.0)
    support = {(k[0], k[1]) for k in sch.law}
    by_m1: dict = {}
    by_m2: dict = {}
    for (x, y, m1, m2), p in sch.law.items():
        if p > 0:
            by_m1.setdefault((y, m1), set()).add(x)
            by_m2.setdefault((y, m2), set()).add(x)
    full = {y: {x for (x, yy) in support if yy == y} for y in (0,)}
    assert all(v == full[y] for (y, _), v in by_m1.items())
    assert all(v == full[y] for (y, _), v in by_m2.items())


def test_exponent_examples():
    assert two_hint_exponents(1.0, 1.0, 1.0, 1.5).value == pytest.approx(1.0)
    assert two_hint_exponents(0.5, 0.9, 1.0, 1.5).value == -math.inf
    assert two_hint_exponents(0.4, 0.4, 1.0, 1.2, e_bob=0.5).value == pytest.approx(0.9)
    out = two_hint_exponents(0.75, 0.75, 1.0, 1.5)
    assert out.boundary
    # rate-splitting witness covers the three proof cases
    assert two_hint_exponents(0.5, 2.0, 1.0, 1.5).witness == (0.0, 1.0, 0.5)
    assert two_hint_exponents(1.0, 1.0, 1.0, 1.5).witness == (0.5, 0.5, 0.5)
    assert two_hint_exponents(2.0, 2.0, 1.0, 1.5).witness == (2.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        two_hint_exponents(0.0, 1.0, 1.0, 1.0)


def test_remark_guessing_to_list_pipeline():
    # augmenting the hints with the floor-log of Bob's optimal rank makes the
    # list-version ambiguity no larger than the guessing-version ambiguity
    for joint in (U4, SKEW4):
        for triple in ((1, 2, 2), (2, 1, 1), (2, 2, 2)):
            s = build_two_hint(joint, *triple, "guessing", 4, 4)
            a_g = bob_ambiguity(s, 1.0, "guessing")
            ranks: dict = {}
            groups: dict = {}
            for (x, y, m1, m2), p in s.law.items():
                if p > 0:
                    groups.setdefault((y, m1, m2), []).append((x, p))
            for ctx, members in groups.items():
                for r, (x, _) in enumerate(
                    sorted(members, key=lambda kv: (-float(kv[1]), kv[0])), start=1
                ):
                    ranks[(ctx, x)] = r
            aug_law = {
                (x, y, (m1, math.floor(math.log2(ranks[((y, m1, m2), x)]))), m2): p
                for (x, y, m1, m2), p in s.law.items()
            }
            a_l = list_moment_given(aug_law, lambda key: key[1:], 1.0)
            assert a_l <= a_g + 1e-12


def test_scheme_json_round_trip():
    from hintlock.twohint import TwoHintScheme
    import json

    s = build_two_hint(U4, 2, 2, 1, m1_size=4, m2_size=4)
    doc = json.loads(s.to_json())
    assert doc["cs"] == 2 and doc["m1_size"] == 4
    assert doc["kind"] == "two-hint"
    back = TwoHintScheme.from_json(s.to_json())
    assert back.law == s.law
    assert bob_ambiguity(back, 1.0, "guessing") == bob_ambiguity(s, 1.0, "guessing")


def test_exponent_trend_finite_n():
    # IID uniform bit, R1 = R2 = 1: Bob pinned at 1, Eve's certified floor
    # exponent climbs to within 0.25 of rho*min(R1,R2,H) = 1 by n = 8
    prev_bob = math.inf
    floors = {}
    for n in range(1, 9):
        nx = 2**n
        joint = JointPmf.from_marginal(Pmf.of([Fraction(1, nx)] * nx, exact=True))
        s = build_two_hint(joint, nx, 1, 1)
        bob = bob_ambiguity(s, 1.0, "guessing")
        assert bob <= prev_bob + 1e-12
        prev_bob = bob
        z = s.cs * (s.c1 + s.c2)
        floors[n] = z ** (-1.0) * pad_pair_moment(s, 1.0)
    assert prev_bob == pytest.approx(1.0)
    rate = math.log2(floors[8]) / 8
    assert abs(rate - 1.0) <= 0.25
