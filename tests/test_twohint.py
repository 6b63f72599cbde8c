import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from oracles import as_view, grouped_moment, scheme_from_law
from hintlock.adversary import support_moment
from hintlock.guessing import optimal_guesser, random_joint
from hintlock.prob import DomainError, JointPmf, Pmf, RenyiOrder, renyi_cond_entropy, replace
from hintlock.report import all_passed
from hintlock.twohint import (
    build_eve_list_scheme,
    build_secret_hint,
    build_secret_key,
    build_two_hint,
    eve_ambiguity_weak,
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
    return support_moment(as_view(oracles.cells(law, lambda k: (obs(k),))), rho)


def pad_pair_moment(scheme, rho):
    """Optimal moment of the pair (X, U) given Y; U is the uniform pad."""
    return grouped_moment(
        ((y, (x, m2 // scheme.c2), float(p)) for (x, y, _, m2), p in oracles.full_law(scheme).items() if p > 0), rho
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
    assert s.bob(1.0, "guessing") == pytest.approx(1.0)
    assert s.bob(1.0, "list") == pytest.approx(1.0)
    s2 = build_two_hint(U4, 1, 4, 1)
    assert s2.bob(1.0, "guessing") == pytest.approx(1.0)
    s3 = build_two_hint(U4, 2, 2, 1)
    assert s3.bob(1.0, "guessing") == pytest.approx(1.0)
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
    assert typed_items(s.pad_coordinate_laws()) == typed_items(oracles.pad_coordinate_laws(s, oracles.full_law(s)))
    law = oracles.law_dict(s.law)  # one quotient mass off: its pads still agree with the full law spread from it
    law[next(iter(law))] += Fraction(1, 2**40) if exact else 2.0**-40
    off = replace(s, law=oracles.coded(law))
    spread = oracles.two_hint_spread(off)
    assert typed_items(off.pad_coordinate_laws()) == typed_items(oracles.pad_coordinate_laws(off, spread))


def test_eve_examples_from_fixed_laws():
    law1 = {}
    for x in (0, 1):
        law1[(x, 0, x, 2)] = Fraction(1, 4)
        law1[(x, 0, 2, x)] = Fraction(1, 4)
    s1 = scheme_from_law(BIT, law1, 3, 3)
    assert s1.eve(1.0) == pytest.approx(1.0, abs=1e-12)
    assert eve_ambiguity_weak(s1, 1.0) == pytest.approx(1.25, abs=1e-12)
    otp = build_two_hint(BIT, 2, 1, 1)
    assert otp.eve(1.0) == pytest.approx(1.0, abs=1e-12)
    assert eve_ambiguity_weak(otp, 1.0) == pytest.approx(1.5, abs=1e-12)


def test_scheme_from_law_sizes():
    # no pad: cs = 1, c1 = |M1|, c2 = |M2|
    s = scheme_from_law(BIT, {(0, 0, 0, 0): Fraction(1, 2), (1, 0, 1, 2): Fraction(1, 2)}, 2, 3)
    assert (s.cs, s.c1, s.c2) == (1, 2, 3)
    assert s.sizes == (6, 6, 5, 2)


def test_mergeable_law_is_rejected():
    # two realizations of x = "a" share Eve's context M1 = 0: routing both there
    # merges their mass, which the matching cannot price
    joint = JointPmf.from_marginal(Pmf.of([Fraction(3, 5), Fraction(2, 5)], symbols=("a", "b"), exact=True))
    law = {("a", 0, 0, 0): Fraction(3, 10), ("a", 0, 0, 1): Fraction(3, 10), ("b", 0, 0, 2): Fraction(2, 5)}
    s = scheme_from_law(joint, law, 1, 3)
    assert oracles.has_mergeable_cells(list(s.eve_cells))
    assert oracles.eve_exact_enumeration(s.eve_cells, 1.0) == pytest.approx(1.0)
    with pytest.raises(DomainError, match="share a context"):
        s.eve(1.0)
    with pytest.raises(DomainError, match="share a context"):
        verify_finite_blocklength(s, 1.0)


def test_eve_exact_never_exceeds_weak():
    rng = np.random.default_rng(4)
    for _ in range(25):
        j = random_joint(rng, int(rng.integers(2, 5)), 1, exact=True)
        for cs, c1, c2 in ((1, 2, 2), (2, 1, 1), (2, 2, 1)):
            s = build_two_hint(j, cs, c1, c2)
            for rho in (0.5, 1.0):
                assert s.eve(rho) <= eve_ambiguity_weak(s, rho) + 1e-12


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
            a_e = oracles.eve_exact_enumeration(s.eve_cells, rho)  # these laws can merge cells
            a_ew = eve_ambiguity_weak(s, rho)
            assert a_bg >= max(1.0, (1 + math.log(nx)) ** -rho * 2 ** (rho * (h - math.log2(m1 * m2)))) - 1e-9
            assert a_bl >= max(1.0, 2 ** (rho * (h - math.log2(m1 * m2)))) - 1e-9
            for val in (a_e, a_ew):
                assert val <= min(m1, m2) ** rho * a_bg + 1e-9
                assert val <= 2 ** (rho * h) + 1e-9
            assert a_e <= a_ew + 1e-12


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
    a_e = guess_moment_given(oracles.law_dict(sch.law), lambda k: (k[1], k[2]), 1.0)
    assert a_e == pytest.approx(1.0)


def test_secret_key_examples_and_verify():
    sk = build_secret_key(U4, 1, 4)
    a_e = guess_moment_given(oracles.full_law(sk), lambda k: (k[1], k[3]), 1.0)
    assert a_e == pytest.approx(2.5)  # hint independent of X
    assert sk.eve(1.0) == pytest.approx(2.5)
    sk2 = build_secret_key(U4, 4, 1)
    a_e2 = guess_moment_given(oracles.full_law(sk2), lambda k: (k[1], k[3]), 1.0)
    assert a_e2 == pytest.approx(1.0)
    assert sk2.eve(1.0) == pytest.approx(1.0)
    for version in ("guessing", "list"):
        for c, ks in ((2, 2), (1, 8), (2, 4)):
            if version == "list" and not c * ks > math.log2(4) + 2:
                continue
            sch = build_secret_key(U4, c, ks, version)
            rows = verify_secret_key(sch, 1.0)
            assert all_passed(rows), [r for r in rows if not r.passed]
    with pytest.raises(DomainError):
        build_secret_key(U4, 3, 2, m_size=4)  # c|K| > |M|


def test_sweep_eve_list_rows_are_exact():
    # The benchmark's scheme-sweep-exact sources at seed 1, where c1 = c2 = 1:
    # on the pad quotient Eve's two lists and the no-hint list both hold every
    # x of y, and their moments add the same masses in the same order.
    rng = np.random.default_rng(1)
    for _ in range(3):
        sch = build_eve_list_scheme(random_joint(rng, 16, 32, exact=True), 8, 8, 20)
        assert sch.c1 == sch.c2 == 1
        for rho in (0.5, 1.0, 2.0):
            slack = {r.check: r.slack for r in verify_eve_list(sch, rho)}
            assert slack["eve-equals-no-hint-list"] == 0.0
            assert slack["eve-converse-list"] == 0.0


def test_eve_list_scheme():
    sch = build_eve_list_scheme(U4, 4, 4, 20.0)
    assert sch.eve(1.0) == pytest.approx(4.0, abs=1e-12)
    rows = verify_eve_list(sch, 1.0)
    assert all_passed(rows), [r for r in rows if not r.passed]
    # X deterministic given Y: every list is a singleton
    det = JointPmf.of([[Fraction(1, 2), 0], [0, Fraction(1, 2)]], exact=True)
    sd = build_eve_list_scheme(det, 2, 2, 20.0)
    assert sd.eve(1.0) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        build_eve_list_scheme(U4, 4, 4, 0.0)  # degenerate mixing weight
    with pytest.raises(DomainError):
        build_eve_list_scheme(U4, 2, 4, 20.0)  # min size below 1 + floor(log2 4)


def test_eve_list_single_hint_lists_cover_everything():
    sch = build_eve_list_scheme(SKEW4, 6, 6, 8.0)
    law = oracles.full_law(sch)  # the built law is its pad quotient
    support = {(k[0], k[1]) for k in law}
    by_m1: dict = {}
    by_m2: dict = {}
    for (x, y, m1, m2), p in law.items():
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
            a_g = s.bob(1.0, "guessing")
            ranks: dict = {}
            groups: dict = {}
            law = oracles.full_law(s)
            for (x, y, m1, m2), p in law.items():
                if p > 0:
                    groups.setdefault((y, m1, m2), []).append((x, p))
            for ctx, members in groups.items():
                for r, (x, _) in enumerate(
                    sorted(members, key=lambda kv: (-float(kv[1]), kv[0])), start=1
                ):
                    ranks[(ctx, x)] = r
            aug_law = {
                (x, y, (m1, math.floor(math.log2(ranks[((y, m1, m2), x)]))), m2): p
                for (x, y, m1, m2), p in law.items()
            }
            a_l = list_moment_given(aug_law, lambda key: key[1:], 1.0)
            assert a_l <= a_g + 1e-12


@pytest.mark.parametrize("field, value, match", [("m1_size", 1, "exceeds min"), ("version", "banana", "unknown version")])
def test_the_builder_refuses_an_inadmissible_scheme(field, value, match):
    params = {"version": "guessing", "m1_size": 4, "m2_size": 4, field: value}
    with pytest.raises(DomainError, match=match):
        build_two_hint(U4, 2, 2, 2, **params)


def test_exponent_trend_finite_n():
    # IID uniform bit, R1 = R2 = 1: Bob pinned at 1, Eve's certified floor
    # exponent climbs to within 0.25 of rho*min(R1,R2,H) = 1 by n = 8
    prev_bob = math.inf
    floors = {}
    for n in range(1, 9):
        nx = 2**n
        joint = JointPmf.from_marginal(Pmf.of([Fraction(1, nx)] * nx, exact=True))
        s = build_two_hint(joint, nx, 1, 1)
        bob = s.bob(1.0, "guessing")
        assert bob <= prev_bob + 1e-12
        prev_bob = bob
        z = s.cs * (s.c1 + s.c2)
        floors[n] = z ** (-1.0) * pad_pair_moment(s, 1.0)
    assert prev_bob == pytest.approx(1.0)
    rate = math.log2(floors[8]) / 8
    assert abs(rate - 1.0) <= 0.25


def test_eve_keeps_her_value_at_a_hint_of_2_60_values():
    # M1 = (v_s + U mod cs) * c1 + v1 stays below 2^62: no int64 code wraps
    for c1 in (2, 1000, 2**60):
        s = build_two_hint(U4, 4, c1, 1)
        assert (s.eve(1.0), eve_ambiguity_weak(s, 1.0)) == (1.5, 2.5)


def test_hint_alphabets_beyond_2_62_are_rejected():
    big = 2**62 // 4 + 1  # cs * big exceeds 2^62 at cs = 4
    for build in (
        lambda: build_two_hint(U4, 4, big, 1),
        lambda: build_two_hint(U4, 4, 1, big),
        lambda: build_secret_key(U4, big, 4),
    ):
        with pytest.raises(DomainError, match="exceeds 2\\^62"):
            build()
    build_secret_key(U4, big - 1, 4)  # c * |K| = 2^62 fits
