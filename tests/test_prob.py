import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hintlock.prob import (
    AlphabetMismatchError,
    BudgetExceededError,
    DomainError,
    JointPmf,
    NormalizationError,
    Pmf,
    RenyiOrder,
    common_denominator,
    kl_divergence,
    product_pmf,
    renyi_cond_entropy,
    replace,
    shannon_cond_entropy,
    validate,
)
from hintlock.distortion import DistortionSpec
from hintlock.exponents import RdQuery
from hintlock.report import ReportRow
from hintlock.tasks import DetTaskEncoder, decoding_lists

import oracles


def direct_renyi(table, alpha):
    """Independent evaluation of the defining expression."""
    total = 0.0
    ncols = len(table[0])
    for j in range(ncols):
        inner = sum(row[j] ** alpha for row in table if row[j] > 0)
        total += inner ** (1.0 / alpha)
    return alpha / (1.0 - alpha) * math.log2(total)


def test_uniform_entropy_all_orders():
    j = JointPmf.from_marginal(Pmf.uniform(4))
    for a in (0.0, 0.25, 0.5, 1.0, 2.0, math.inf):
        assert renyi_cond_entropy(j, a) == pytest.approx(2.0, abs=1e-12)


def test_deterministic_given_context_is_zero():
    j = JointPmf.of([[0.5, 0.0], [0.0, 0.5]])
    for a in (0.0, 0.5, 1.0, 3.0, math.inf):
        assert renyi_cond_entropy(j, a) == pytest.approx(0.0, abs=1e-12)


def test_half_order_value_matches_direct_formula():
    j = JointPmf.from_marginal(Pmf.of([0.5, 0.25, 0.25]))
    expected = direct_renyi([[0.5], [0.25], [0.25]], 0.5)
    got = renyi_cond_entropy(j, 0.5)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(2 * math.log2(1 + math.sqrt(0.5)), abs=1e-9)
    assert round(got, 3) == 1.543


def test_order_one_limit_matches_shannon():
    rng = np.random.default_rng(11)
    for _ in range(20):
        t = rng.dirichlet(np.ones(12)).reshape(4, 3)
        j = JointPmf.of(t.tolist())
        h1 = shannon_cond_entropy(j)
        lo = renyi_cond_entropy(j, 1 - 1e-5)
        hi = renyi_cond_entropy(j, 1 + 1e-5)
        # first-order terms cancel in the symmetric mean; one-sided values converge too
        assert 0.5 * (lo + hi) == pytest.approx(h1, abs=1e-6)
        assert lo == pytest.approx(h1, abs=1e-4) and hi == pytest.approx(h1, abs=1e-4)


def test_monotone_in_added_variable():
    # H_a(X|Y) <= H_a(X,Z|Y) over sampled triples and an order grid
    rng = np.random.default_rng(7)
    alphas = [0.0, 0.3, 0.7, 1.0, 1.5, 4.0, math.inf]
    for _ in range(40):
        nx, ny, nz = rng.integers(2, 4, size=3)
        t = rng.dirichlet(np.ones(nx * ny * nz)).reshape(nx, ny, nz)
        xy = JointPmf.of(t.sum(axis=2).tolist())
        xz_y = JointPmf.of(t.transpose(0, 2, 1).reshape(nx * nz, ny).tolist())
        for a in alphas:
            assert renyi_cond_entropy(xy, a) <= renyi_cond_entropy(xz_y, a) + 1e-9


def test_chain_rule_lower_bound():
    # H_a(X|Y,Z) >= H_a(X,Z|Y) - log|Z|
    rng = np.random.default_rng(13)
    alphas = [0.0, 0.4, 1.0, 2.5, math.inf]
    for _ in range(40):
        nx, ny, nz = rng.integers(2, 4, size=3)
        t = rng.dirichlet(np.ones(nx * ny * nz)).reshape(nx, ny, nz)
        x_yz = JointPmf.of(t.reshape(nx, ny * nz).tolist())
        xz_y = JointPmf.of(t.transpose(0, 2, 1).reshape(nx * nz, ny).tolist())
        for a in alphas:
            lhs = renyi_cond_entropy(x_yz, a)
            rhs = renyi_cond_entropy(xz_y, a) - math.log2(nz)
            assert lhs >= rhs - 1e-9


def test_ceiling_power_identity():
    rng = np.random.default_rng(3)
    xs = np.concatenate([rng.uniform(0, 50, 9990), np.array([0.0, 1.0, 2.0, 0.5, 1e-3, 7.0, 31.0, 32.0, 1e3, 0.999])])
    for rho in (0.5, 1.0, 2.0):
        lhs = np.ceil(xs) ** rho
        rhs = 1 + 2**rho * xs**rho
        assert (lhs < rhs).all()


def test_kl_examples():
    p = JointPmf.from_marginal(Pmf.of([0.5, 0.5]))
    q = JointPmf.from_marginal(Pmf.of([1.0, 0.0]))
    assert kl_divergence(p, p) == 0.0
    assert kl_divergence(q, p) == pytest.approx(1.0, abs=1e-12)
    q2 = JointPmf.from_marginal(Pmf.of([0.6, 0.4]))
    assert kl_divergence(q2, p) == pytest.approx(0.029049, abs=1e-6)
    assert kl_divergence(p, q) == math.inf
    with pytest.raises(AlphabetMismatchError):
        kl_divergence(q2, JointPmf.from_marginal(Pmf.of([0.5, 0.5], symbols=("a", "b"))))


def test_product_identity_and_fair_bit():
    j = JointPmf.from_marginal(Pmf.of([0.5, 0.5]))
    assert product_pmf(j, 1) is j
    cubed = product_pmf(j, 3)
    assert len(cubed.x_alphabet) == 8
    assert all(p == pytest.approx(0.125) for p in (v for row in cubed.table for v in row))


def test_product_additivity():
    j = JointPmf.from_marginal(Pmf.of([0.5, 0.25, 0.25]))
    two = product_pmf(j, 2)
    for a in (0.5, 0.2, 2.0):
        h1 = renyi_cond_entropy(j, a)
        h2 = renyi_cond_entropy(two, a)
        assert h2 == pytest.approx(2 * h1, abs=2e-9)
    assert renyi_cond_entropy(two, 0.5) == pytest.approx(3.086, abs=5e-4)


def test_product_budget():
    j = JointPmf.from_marginal(Pmf.uniform(4))
    with pytest.raises(BudgetExceededError):
        product_pmf(j, 20)


def test_validate_diagnostics():
    assert validate({"x": [0, 1], "p": [0.5, 0.5]}) == []
    assert validate({"x": [0, 1], "p": [0.5, 0.4999999995]}) == []  # within 1e-9
    bad = validate({"x": [0, 1], "p": [1.2, -0.2]})
    assert any("negative" in w for w in bad)
    dup = validate({"x": [0, 0], "p": [0.5, 0.5]})
    assert any("duplicate" in w for w in dup)
    # a JSON array or object is an unhashable symbol, which the constructors cannot take
    for source in (
        {"x": [[0], [1]], "p": [0.5, 0.5]},
        {"x": [0, {"a": 1}], "p": [0.5, 0.5]},
        {"x": [0, 1], "y": [[0]], "p": [[0.5], [0.5]]},
    ):
        assert any("JSON array or object" in w for w in validate(source)), source


def test_constructor_rejections():
    with pytest.raises(NormalizationError):
        Pmf.of([0.7, 0.7])
    with pytest.raises(NormalizationError):
        Pmf.of([-0.5, 1.5])
    with pytest.raises(NormalizationError):
        Pmf((0, 0), (0.5, 0.5))


def test_nan_mass_rejected():
    """NaN fails `p < 0` and `gap > tol` alike, so both tests are written to fail on it."""
    for make in (lambda: Pmf.of([math.nan, 1.0]), lambda: JointPmf.of([[math.nan, 1.0]])):
        with pytest.raises(NormalizationError):
            make()
    assert any("nan" in w for w in validate({"x": [0, 1], "p": [math.nan, 1.0]}))
    assert validate({"x": [0, 1], "y": [0], "p": [[math.nan], [1.0]]})


def test_json_round_trip_rational():
    j = JointPmf.of([[Fraction(1, 2)], [Fraction(1, 2)]], exact=True)
    doc = json.loads(j.to_json())
    assert doc == {"x": [0, 1], "y": [0], "p": [["1/2"], ["1/2"]]}
    assert JointPmf.of(doc["p"], doc["x"], doc["y"], exact=True).table == j.table


def test_renyi_order_and_domain():
    assert RenyiOrder.from_rho(1.0).alpha == pytest.approx(0.5)
    with pytest.raises(Exception):
        RenyiOrder(-0.1)
    with pytest.raises(Exception):
        renyi_cond_entropy(JointPmf.from_marginal(Pmf.uniform(2)), -1.0)


def test_mixed_fraction_float_tables_rejected():
    # Fraction + float sums to the float 1.0, so no exact normalisation check exists
    with pytest.raises(NormalizationError):
        JointPmf((0, 1), (0,), ((Fraction(1, 3),), (0.6666666666666666,)))
    with pytest.raises(NormalizationError):
        Pmf((0, 1), (Fraction(1, 2), 0.5))
    assert JointPmf((0, 1), (0,), ((Fraction(1, 3),), (Fraction(2, 3),))).exact


TINY = Fraction(1, 10**400)  # positive, but 0.0 as a float


def _tables(nx, ny, exact, tiny, data):
    """A float or Fraction table of shape nx x ny; with `tiny`, a Fraction table
    holds a positive mass below the float range in place of a zero."""
    weights = data.draw(st.lists(st.integers(0, 6), min_size=nx * ny, max_size=nx * ny).filter(any))
    cells = [Fraction(w, sum(weights)) if exact else w / sum(weights) for w in weights]
    if exact and tiny and 0 in weights:
        k, big = weights.index(0), weights.index(max(weights))
        cells[k], cells[big] = TINY, cells[big] - TINY
    return JointPmf.of([cells[i * ny : (i + 1) * ny] for i in range(nx)], exact=exact)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.integers(1, 4), st.booleans(), st.booleans(), st.data())
def test_masses_are_the_float_of_each_entry(nx, ny, exact, tiny, data):
    joint = _tables(nx, ny, exact, tiny, data)
    masses = joint.masses
    assert masses.dtype == np.float64 and masses.shape == (nx, ny) and joint.masses is masses
    assert [[v.hex() for v in row] for row in masses.tolist()] == [[float(p).hex() for p in row] for row in joint.table]
    with pytest.raises(ValueError):
        masses[0, 0] = 0.5
    # the kept support is support_items' cells, x-major, with their floats, ranks and common_denominator
    xs, ys, items = joint.x_alphabet, joint.y_alphabet, list(joint.support_items())
    x, y, mass, rank = joint.support
    assert [(xs[i], ys[j]) for i, j in zip(x.tolist(), y.tolist())] == [(a, b) for a, b, _ in items]
    assert [v.hex() for v in mass.tolist()] == [float(p).hex() for *_, p in items]
    assert rank.tolist() == [oracles.per_context_ranks(joint)[j][i] for i, j in zip(x.tolist(), y.tolist())]
    nums, scale = joint.numerators
    assert (tuple(nums), scale) == common_denominator(p for *_, p in items) and joint.numerators is joint.numerators
    for cached in (x, y, mass, rank, *([nums] if scale is None else [])):
        with pytest.raises(ValueError):
            cached[0] = cached[0]
    # supports and decoding lists read the exact table, so a tiny mass stays in both
    support = {(x, y) for x, y, _ in joint.support_items()}
    assert support == {(x, y) for x, row in zip(xs, joint.table) for y, p in zip(ys, row) if p > 0}
    lists = decoding_lists(DetTaskEncoder(xs, ys, (0,), {(x, y): 0 for x in xs for y in ys}), joint)
    assert {(x, y) for (y, _), members in lists.lists.items() for x in members} == support


def test_tiny_positive_mass_is_zero_in_masses_only():
    joint = JointPmf.of([[Fraction(1, 2), TINY], [Fraction(1, 2) - TINY, Fraction(0)]], exact=True)
    assert joint.masses.tolist() == [[0.5, 0.0], [0.5, 0.0]]
    assert (0, 1, TINY) in joint.support_items()
    one_z = DetTaskEncoder((0, 1), (0, 1), (0,), {(x, y): 0 for x in (0, 1) for y in (0, 1)})
    assert decoding_lists(one_z, joint).list_for(1, 0) == (0,)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 5), st.integers(1, 4), st.booleans(), st.booleans(), st.data())
def test_float_columns_and_entropies_equal_the_masses(nx, ny, exact, tiny, data):
    q, p = _tables(nx, ny, exact, tiny, data), _tables(nx, ny, exact, tiny, data)
    assert [[v.hex() for v in col] for col in q.columns] == [[v.hex() for v in col] for col in q.masses.T.tolist()]
    for a in (0.0, 0.5, 1.0, 2.0, math.inf):
        assert renyi_cond_entropy(q, a).hex() == oracles.renyi_on_masses(q, a).hex(), a
        assert a in q.entropies and renyi_cond_entropy(q, a).hex() == oracles.renyi_on_masses(q, a).hex(), a  # kept
    assert shannon_cond_entropy(q).hex() == oracles.shannon_on_masses(q).hex()
    assert kl_divergence(q, p).hex() == oracles.kl_on_masses(q, p).hex()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 100])
@pytest.mark.parametrize("alpha", [1e-300, 2000.0, 1e308])
def test_uniform_source_at_orders_beyond_the_float_range(n, alpha):
    # p^alpha underflows to 0 for every mass at the large orders, and the inner
    # sum's 1/alpha-th power overflows at the tiny one; both read log2 n
    joint = JointPmf.from_marginal(Pmf.uniform(n))
    assert renyi_cond_entropy(joint, alpha) == pytest.approx(math.log2(n), rel=1e-15, abs=1e-15)


def test_orders_beyond_the_float_range_stay_between_the_limits():
    joint = JointPmf.of([[0.3, 0.2], [0.1, 0.4]])
    h0, h_inf = renyi_cond_entropy(joint, 0.0), renyi_cond_entropy(joint, math.inf)
    assert renyi_cond_entropy(joint, 1e-300) == pytest.approx(h0, rel=1e-15)
    assert renyi_cond_entropy(joint, 1e308) == pytest.approx(h_inf, rel=1e-15)
    # at order 800 every p^800 of the first column underflows to 0 and the
    # second column's inner sum is subnormal; both are scaled by their maxima
    values = [renyi_cond_entropy(joint, a) for a in (1e-300, 1e-20, 0.5, 2.0, 800.0, 2000.0, 1e308)]
    assert values == sorted(values, reverse=True)  # nonincreasing in the order


# a record, its dataclass twin, every field by position, and how many fields lack a default
RECORDS = {
    "ReportRow": [ReportRow, oracles.ReportRowTwin, ("verify", "rho=1", "bob-direct-g", "<", 1.0, 2.5, "n"), 6],
    "RdQuery": [RdQuery, oracles.RdQueryTwin, (500, 3, 4, 7), 0],
    "DistortionSpec": [DistortionSpec, oracles.DistortionSpecTwin, ((0, 1), ("a", "b"), [[0, 1], [1, 0]], 0.5), 4],
}


@pytest.mark.parametrize("cls, twin, values, required", RECORDS.values(), ids=RECORDS)
def test_records_behave_as_their_dataclass_twins(cls, twin, values, required):
    names = [f.name for f in dataclasses.fields(twin)]
    keywords = dict(zip(names, values))
    calls = [  # (args, kwargs): by position, by keyword, mixed, from the defaults
        (values, {}),
        ((), keywords),
        (values[:1], dict(list(keywords.items())[1:])),
        (values[:required], {}),
    ]
    for args, kwargs in calls:
        ours, ref = cls(*args, **kwargs), twin(*args, **kwargs)
        assert repr(ours) == repr(ref) and hash(ours) == hash(ref)
        assert ours == cls(*args, **kwargs) and not ours != cls(*args, **kwargs)
        assert ours != ref and not ours == ref  # another class, though the fields are equal
    ours, ref = cls(*values), twin(*values)
    assert ours != replace(ours, **{names[-1]: values[-1] * 2})
    bad_calls = [  # too many fields, an unknown one, a repeated one, and (if any is required) a missing one
        (values + (0,), {}),
        (values, {"bogus": 1}),
        (values, {names[0]: values[0]}),
        *([(values[: required - 1], {})] if required else []),
    ]
    for make in (cls, twin):
        for args, kwargs in bad_calls:
            with pytest.raises(TypeError):
                make(*args, **kwargs)
    for obj in (ours, ref):  # the dataclass raises FrozenInstanceError, an AttributeError
        for name in (names[0], "unknown"):
            with pytest.raises(AttributeError):
                setattr(obj, name, values[0])
            with pytest.raises(AttributeError):
                delattr(obj, name)
    assert repr(ours) == repr(ref)


def test_replace_builds_and_validates_again():
    with pytest.raises(DomainError):
        replace(RdQuery(), seed=-1)
    fields = ("verify", "rho=1", "bob-direct-g", "<", 1.0, 2.5)
    row = replace(ReportRow(*fields), note="seed=5")
    assert repr(row) == repr(dataclasses.replace(oracles.ReportRowTwin(*fields), note="seed=5"))
    assert replace(row, note="") == ReportRow(*fields)
