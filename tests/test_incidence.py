import hashlib
import random

import pytest

from qnull import grassmann
from qnull.fields import field
from qnull.grassmann import (
    contains,
    enumerate_subspaces,
    gaussian_binomial,
    index_of,
)
from qnull.incidence import (
    apply_check,
    read_matrix,
    wilson_matrix,
    write_matrix,
)


# every lane layout (one bit, odd p, extension fields) at every layer pair of
# the small spaces, so t = 0, t = k and k = n among them
EVERY_LAYOUT = [
    (q, n, t, k)
    for q in (2, 3, 4, 5, 7, 8, 9)
    for n in range(5 if q <= 3 else 4)
    for k in range(n + 1)
    for t in range(k + 1)
]


@pytest.mark.parametrize(
    "q,n,t,k",
    [(2, 4, 1, 2), (2, 5, 1, 3), (3, 3, 1, 2), (4, 3, 1, 2), (2, 4, 0, 2)]
    + EVERY_LAYOUT
    # the odd-p points against planes, past EVERY_LAYOUT's n = 3 for q >= 4
    + [(5, 4, 1, 3), (7, 4, 1, 3)],
)
def test_shape_and_entries_match_containment(q, n, t, k):
    m = wilson_matrix(q, n, t, k)
    assert m.rows == gaussian_binomial(n, t, q)
    assert m.cols == gaussian_binomial(n, k, q)
    rows = list(enumerate_subspaces(field(q), n, t))
    cols = m.col_subspaces()
    for i, y in enumerate(rows):
        assert index_of(y) == i
    for j, x in enumerate(cols):
        assert m.col_rows[j] == tuple(
            i for i, y in enumerate(rows) if contains(x, y)
        )


@pytest.mark.parametrize("cap", [1, 2, 5])
def test_matrix_is_the_same_in_capped_blocks(monkeypatch, cap):
    # the row multiples are shared per block of the column layer, and row 0's
    # list is batched over the block, so smaller blocks, which split that
    # list (t = 1 and t = 2 below), must give the same columns; so must the
    # hyperplanes (k = n - 1) and the one column of k = 0
    for q, n, t, k in ((2, 5, 1, 2), (2, 5, 2, 3), (3, 4, 1, 2), (4, 3, 1, 2),
                       (5, 3, 0, 2), (2, 4, 2, 4), (2, 6, 1, 3), (3, 4, 2, 3),
                       (2, 6, 2, 3), (3, 4, 1, 3), (2, 5, 2, 4), (3, 3, 0, 0)):
        want = wilson_matrix(q, n, t, k)
        monkeypatch.setattr(grassmann, "_STREAM_CAP", cap)
        got = wilson_matrix(q, n, t, k)
        monkeypatch.undo()
        assert got == want, (q, n, t, k)


# sha256 of write_matrix at the cells that the benchmark's lattice and elim
# workloads build, taken from the column-at-a-time build that the batched
# one replaced
WRITTEN_SHA256 = {
    (4, 5, 2, 3): "e1b305af6eab030704f4c7c786cb5152b6e9cf29e80dccc4374b9d7c77ee38ad",
    (2, 7, 1, 3): "d79cb672894a1de54f0dc7e4ec69a47bca159d002bf7c5139825a17d7d400bd0",
    (2, 6, 2, 3): "2161c321c76fba86c1d3adfe6d192786073c767c5ac4c51af98c6aa6d51d2fbe",
    (2, 5, 1, 2): "bbce0339631deaff804af80fdf93ae49a9fb3595c5983919fda4fc5617cace45",
    (2, 5, 1, 3): "5b4ec6079d2e66e7ed6dc8daead67661bfb76422b03df76d8891220cb360cd81",
    (3, 7, 1, 6): "3ddc87fa4e51072bdbc737b1f1d0c5bab720c5bba3f82ceb45848a457cc9a079",
    (5, 5, 1, 4): "8caab211a7df98abaea0dc9ea6233224b9e932dc402c4ec3d2df0904d56dae2e",
    (7, 4, 1, 3): "27fa945d765f922898f5869c6e04250e5653622d7d5b63ceb59fa3c5c054d51d",
    (3, 5, 1, 2): "514d665ff141a18611bd820418a6d52185dad82f1add8358ed61430caafb7f5c",
    (2, 6, 1, 3): "acd28b2e820b45e33b4edf5bc80dbcdda811686d0913dcefb3efec5ec170284b",
    (2, 5, 2, 3): "a2ec779399e4ee1ef7a8fb43ae76ca4792b8fcaf059e28a9e3919cfa3ad88fc9",
}


@pytest.mark.parametrize("cell", WRITTEN_SHA256)
def test_written_matrix_is_pinned(cell):
    text = write_matrix(wilson_matrix(*cell))
    assert hashlib.sha256(text.encode()).hexdigest() == WRITTEN_SHA256[cell]


def test_column_and_row_sums():
    # every k-space holds the same number of t-subspaces, and every t-space
    # sits inside the same number of k-spaces
    for q, n, t, k in [(2, 4, 1, 2), (3, 4, 1, 2), (2, 5, 2, 3)]:
        m = wilson_matrix(q, n, t, k)
        d = m.dense()
        col_sums = {sum(d[i][j] for i in range(m.rows)) for j in range(m.cols)}
        row_sums = {sum(row) for row in d}
        assert col_sums == {gaussian_binomial(k, t, q)}
        assert row_sums == {gaussian_binomial(n - t, k - t, q)}


def test_t_equals_k_is_identity():
    m = wilson_matrix(3, 3, 2, 2)
    d = m.dense()
    assert m.rows == m.cols
    for i in range(m.rows):
        for j in range(m.cols):
            assert d[i][j] == (1 if i == j else 0)


def test_t_zero_is_all_ones_row():
    m = wilson_matrix(2, 4, 0, 2)
    assert m.rows == 1
    assert m.dense() == [[1] * m.cols]


def test_parameter_validation():
    with pytest.raises(ValueError):
        wilson_matrix(2, 4, 3, 2)  # t > k
    with pytest.raises(ValueError):
        wilson_matrix(2, 4, 1, 5)  # k > n
    with pytest.raises(ValueError):
        wilson_matrix(2, 4, -1, 2)
    with pytest.raises(ValueError):
        wilson_matrix(6, 4, 1, 2)  # not a prime power


def test_apply_check_is_matrix_vector_product():
    m = wilson_matrix(4, 3, 1, 2)
    d = m.dense()
    coeffs = [(3 * j + 1) % 4 for j in range(m.cols)]
    for r in (2, 4):
        got = apply_check(m, coeffs, r)
        want = [
            sum(d[i][j] * coeffs[j] for j in range(m.cols)) % r
            for i in range(m.rows)
        ]
        assert got == want


def _apply_check_every_column(m, c, r):
    """W c mod r, visiting every column."""
    out = [0] * m.rows
    for j, cj in enumerate(c):
        if cj % r:
            for i in m.col_rows[j]:
                out[i] = (out[i] + cj % r) % r
    return out


@pytest.mark.parametrize(
    "q,n,t,k", [(2, 4, 1, 2), (4, 3, 1, 2), (8, 3, 0, 2), (9, 3, 1, 3)]
)
def test_apply_check_on_dense_vectors_with_negative_and_large_entries(q, n, t, k):
    m = wilson_matrix(q, n, t, k)
    rng = random.Random(q * 100 + n)
    for r in (r for r in (2, 3, 4, 8, 9) if field(q).is_modulus(r)):
        for _ in range(5):
            c = [rng.randint(-3 * r, 3 * r) for _ in range(m.cols)]
            assert apply_check(m, c, r) == _apply_check_every_column(m, c, r)


def test_apply_check_validation():
    m = wilson_matrix(3, 3, 1, 2)
    ok = [1] * m.cols
    with pytest.raises(ValueError):
        apply_check(m, ok[:-1], 3)  # wrong length
    with pytest.raises(ValueError):
        apply_check(m, ok, 2)  # 2 is not a power of 3
    with pytest.raises(ValueError):
        apply_check(m, ok, 9)  # exceeds q
    with pytest.raises(ValueError):
        apply_check(m, ok, 1)
    assert apply_check(m, ok, 3) == [
        gaussian_binomial(2, 1, 3) % 3
    ] * m.rows


def test_write_read_round_trip():
    m = wilson_matrix(2, 4, 1, 2)
    text = write_matrix(m)
    back = read_matrix(text)
    assert back == m
    assert back.dense() == m.dense()
    head = text.splitlines()[0].split()
    assert head == ["2", "4", "1", "2", "15", "35"]


@pytest.mark.parametrize(
    "q,n,t,k", [(2, 4, 0, 2), (3, 3, 2, 2), (2, 4, 1, 4), (4, 3, 0, 3)]
)
def test_write_matrix_lists_the_nonzeros_row_major(q, n, t, k):
    m = wilson_matrix(q, n, t, k)
    pairs = sorted((i, j) for j, col in enumerate(m.col_rows) for i in col)
    lines = [f"{q} {n} {t} {k} {m.rows} {m.cols}"] + [f"{i} {j}" for i, j in pairs]
    assert write_matrix(m) == "\n".join(lines) + "\n"


def test_read_matrix_rejects_malformed_input():
    with pytest.raises(ValueError):
        read_matrix("")
    with pytest.raises(ValueError):
        read_matrix("2 4 1 2 15\n")  # short header
    with pytest.raises(ValueError):
        read_matrix("2 4 1 2 15 35\n99 0\n")  # row index out of bounds
    with pytest.raises(ValueError):
        read_matrix("2 4 1 2 15 35\n0 99\n")  # column index out of bounds
    # a repeated entry would count twice in apply_check but once in dense()
    with pytest.raises(ValueError, match=r"entry \(0,0\) listed twice"):
        read_matrix("2 2 1 1 1 1\n0 0\n0 0\n")
    # negative sizes, and columns without rows: a 0-row GfpMatrix has no
    # width, so its kernel would be lost instead of being everything
    for shape in ("-1 3", "2 -1", "0 3"):
        with pytest.raises(ValueError, match="bad shape"):
            read_matrix(f"2 3 1 2 {shape}\n")
    assert read_matrix("2 3 1 2 0 0\n").col_rows == ()
    # the header is checked before anything is allocated
    for head, message in (
        ("2 3 1 2 99999999999 1", "99999999999 rows exceed the 7 1-subspaces"),
        ("2 3 1 2 1 99999999999", "99999999999 cols exceed the 7 2-subspaces"),
        ("6 1 0 1 1 2", "6 is not a prime power"),
        ("10007 1 0 1 1 2", "field order 10007 is above the limit 1024"),
        ("2 3 2 1 1 1", "need 0 <= t <= k <= n"),
        ("2 3 -1 2 1 1", "need 0 <= t <= k <= n"),
        ("2 3 1 4 1 1", "need 0 <= t <= k <= n"),
        # [n,0] = 1 however large n is, and it is not built from q^n
        ("2 256 0 1 2 1", "2 rows exceed the 1 0-subspaces"),
        # reading the subspaces back would build the layout of GF(2)^n
        ("2 1000000000000 1 2 3 3", "dimension 1000000000000 is above the limit 256"),
    ):
        with pytest.raises(ValueError, match=message):
            read_matrix(head + "\n0 0\n")
    assert read_matrix("2 256 1 2 3 3\n").rows == 3
    for line in ("1", "0 1 2", "x 0"):
        with pytest.raises(ValueError, match=f"^bad matrix line '{line}'$"):
            read_matrix(f"2 3 1 2 1 1\n{line}\n")


def test_row_and_col_subspace_lists_are_fresh_and_ordered():
    m = wilson_matrix(3, 3, 1, 2)
    a = m.col_subspaces()
    b = m.col_subspaces()
    assert a == b and a is not b
    assert a == list(enumerate_subspaces(field(3), 3, 2))
