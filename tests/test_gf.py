import numpy as np
import pytest

from hintlock.gf import GenMatrix, field_make, mds_check, rs_generator
from hintlock.prob import DomainError


def test_gf4_arithmetic():
    f = field_make(2)  # x^2 + x + 1
    assert f.mul(2, 2) == 3  # alpha * alpha = alpha + 1
    for a in range(4):
        assert f.add(a, a) == 0
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
            point = f.pow_alpha(j - 1)
            acc = 0
            power = 1
            for coef in msg:
                acc ^= f.mul(int(coef), power)
                power = f.mul(power, point)
            assert word[j] == acc


def test_csv_export():
    f = field_make(2)
    g = rs_generator(2, 3, f)
    lines = g.to_csv().splitlines()
    assert lines[0] == "1,1,1"
