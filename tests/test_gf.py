import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hintlock.gf import GenMatrix, _batched_nonsingular, field_make, mds_check, rs_generator
from hintlock.prob import DomainError
from oracles import gf_mul, gf_nonsingular, gf_power

FIELDS = {ell: field_make(ell) for ell in range(1, 17)}


def alpha(ell: int) -> int:
    """The primitive element the tables are built from: x, reduced by the field's polynomial."""
    return 1 if ell == 1 else 2


def test_gf4_arithmetic():
    f = field_make(2)  # x^2 + x + 1
    assert f.mul(2, 2) == 3  # alpha * alpha = alpha + 1
    for a in range(4):
        assert f.mul(1, a) == a
    for a in range(1, 4):
        assert f.mul(a, f.inv(a)) == 1


def test_all_fields_generate_and_invert():
    for ell in range(1, 17):
        f = field_make(ell)
        q = f.q
        seen = {int(f.exp[i]) for i in range(q - 1)}
        assert seen == set(range(1, q)), f"alpha does not generate GF(2^{ell})"
        for a in (1, 2, q // 2 + 1, q - 1):
            if 0 < a < q:
                assert f.mul(a, f.inv(a)) == 1


def test_unsupported_degree():
    with pytest.raises(DomainError):
        field_make(17)
    with pytest.raises(DomainError):
        field_make(0)


def test_generator_shapes_and_examples():
    f = field_make(2)
    g1 = rs_generator(1, 4, f)
    assert (g1.entries == np.array([[1, 1, 1, 1]])).all()  # weight-n repetition row
    for ell, k, n in ((1, 1, 2), (2, 3, 4), (3, 4, 8), (4, 5, 16), (8, 3, 256)):
        g = rs_generator(k, n, FIELDS[ell])
        # column 0 evaluates z^i at 0; column j >= 1 at alpha^(j-1)
        expected = [[int(i == 0)] + [gf_power(alpha(ell), i * (j - 1), ell) for j in range(1, n)] for i in range(k)]
        assert g.entries.tolist() == expected
    gsq = rs_generator(4, 4, f)
    assert mds_check(gsq)  # k = n: a single invertible submatrix
    g24 = rs_generator(2, 4, f)
    assert mds_check(g24)  # all 6 column pairs invertible
    with pytest.raises(DomainError):
        rs_generator(3, 5, f)  # n > q


def test_mds_full_small_sweep():
    for ell in (2, 3):
        f = field_make(ell)
        for n in range(1, f.q + 1):
            for k in range(1, n + 1):
                g = rs_generator(k, n, f)
                assert mds_check(g), (ell, k, n)


def test_first_rows_property():
    f = field_make(3)
    g = rs_generator(4, 7, f)
    for kp in range(1, 5):
        top = g.first_rows(kp)
        assert (top.entries == rs_generator(kp, 7, f).entries).all()
        assert mds_check(top)


def test_non_mds_detected():
    f = field_make(2)
    g = rs_generator(2, 4, f)
    bad = g.entries.copy()
    bad[:, 3] = bad[:, 2]  # repeated column
    assert not mds_check(GenMatrix(2, 4, f, bad))
    zero = np.zeros((2, 3), dtype=np.int64)
    assert not mds_check(GenMatrix(2, 3, f, zero))


def test_identity_square_is_mds():
    f = field_make(3)
    eye = np.eye(4, dtype=np.int64)
    assert mds_check(GenMatrix(4, 4, f, eye))


def test_encode_matches_polynomial_evaluation():
    f = field_make(3)
    g = rs_generator(3, 8, f)
    rng = np.random.default_rng(1)
    messages = rng.integers(0, 8, size=(20, 3))
    words = g.encode(messages)  # one message per row, in one call
    assert words.shape == (20, 8) and g.encode(messages[:0]).shape == (0, 8)
    for msg, word in zip(messages, words):
        assert np.array_equal(word, g.encode(msg))
        # column j >= 1 evaluates the message polynomial at alpha^(j-1)
        assert word[0] == msg[0]
        for j in range(1, 8):
            point = gf_power(alpha(3), j - 1, 3)
            acc = 0
            power = 1
            for coef in msg:
                acc ^= gf_mul(int(coef), power, 3)
                power = gf_mul(power, point, 3)
            assert word[j] == acc


def test_mul_equals_shift_and_add_on_every_pair():
    for ell in range(1, 5):
        f, q = FIELDS[ell], 1 << ell
        expected = [[gf_mul(a, b, ell) for b in range(q)] for a in range(q)]
        assert f.mul(np.arange(q)[:, None], np.arange(q)).tolist() == expected
        assert [[f.mul(a, b) for b in range(q)] for a in range(q)] == expected  # on Python ints


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([5, 8, 12, 16]), st.data())
def test_mul_equals_shift_and_add_on_drawn_pairs(ell, data):
    f = FIELDS[ell]
    elements = st.one_of(st.just(0), st.integers(0, f.q - 1))
    a, b = data.draw(elements), data.draw(elements)
    assert f.mul(a, b) == gf_mul(a, b, ell)
    col = data.draw(st.lists(elements, min_size=1, max_size=6))
    row = data.draw(st.lists(elements, min_size=1, max_size=6))
    assert f.mul(np.array(col)[:, None], np.array(row)).tolist() == [[gf_mul(c, r, ell) for r in row] for c in col]
    assert f.mul(a, np.array(row)).tolist() == [gf_mul(a, r, ell) for r in row]


def test_inverse_of_every_nonzero_element():
    for ell in range(1, 9):
        f = FIELDS[ell]
        a = np.arange(1, f.q)
        inv = f.inv(a)
        assert (f.mul(a, inv) == 1).all()
        assert all(gf_mul(int(x), int(y), ell) == 1 for x, y in zip(a, inv))
        assert all(f.inv(int(x)) == y for x, y in zip(a, inv))
        with pytest.raises(ZeroDivisionError):
            f.inv(0)
        with pytest.raises(ZeroDivisionError):
            f.inv(np.array([1, 0, f.q - 1]))


@st.composite
def square_batches(draw):
    """(ell, a batch of k x k matrices, the members planted singular): about 80%
    nonzero entries, some members with a zero column, a repeated row, or a row
    that is a field multiple of another."""
    ell, k, b = draw(st.sampled_from([1, 2, 3, 4, 8])), draw(st.integers(1, 5)), draw(st.integers(1, 8))
    q = 1 << ell
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = rng.integers(1, q, size=(b, k, k)) * (rng.random((b, k, k)) < 0.8)
    plants = ["none", "zero column"] + (["repeated row", "multiple row"] if k > 1 else [])
    planted = []
    for m in mats:
        plant = draw(st.sampled_from(plants))
        if plant == "zero column":
            m[:, draw(st.integers(0, k - 1))] = 0
        elif plant != "none":
            r, s = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
            c = 1 if plant == "repeated row" else draw(st.integers(1, q - 1))
            m[r] = [gf_mul(c, int(v), ell) for v in m[s]]
        planted.append(plant != "none")
    return ell, mats, planted


@settings(max_examples=150, deadline=None)
@given(square_batches())
def test_mds_verdicts_equal_gaussian_elimination(batch):
    ell, mats, planted = batch
    f, k = FIELDS[ell], mats.shape[1]
    verdicts = [gf_nonsingular(m, ell) for m in mats]
    assert not any(v and p for v, p in zip(verdicts, planted))
    assert _batched_nonsingular(mats, f).tolist() == verdicts  # live and dead members in one batch
    assert [mds_check(GenMatrix(k, k, f, m)) for m in mats] == verdicts
