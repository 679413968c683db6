import csv
import warnings

import numpy as np
import pytest

from weighted_ensemble import TransitionMatrix, serialize
from weighted_ensemble.serialize import (
    BLOCK_ROWS,
    NONZERO_LIMIT,
    RUNS_HEADER,
    config_hash,
    read_matrix_csv,
    read_vector_csv,
    write_matrix_csv,
    write_rows,
    write_runs,
    write_v_table_csv,
    write_vector_csv,
)


def test_config_hash_is_stable_and_short():
    h = config_hash("a=1\nb=2\n")
    assert h == config_hash("a=1\nb=2\n")
    assert len(h) == 16
    assert h != config_hash("a=1\nb=3\n")


def test_write_rows_layout(tmp_path):
    path = tmp_path / "t.csv"
    write_rows(path, ("a", "b"), [(1, 0.5), (2, True)], cfg_hash="deadbeef")
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_hash=deadbeef"
    assert lines[1] == "a,b"
    assert lines[2] == "1,0.5"
    assert lines[3] == "2,1"


def reference_write_rows(path, header, rows, cfg_hash=None):
    """The writer write_rows replaced: one type dispatch per cell, then
    csv.writer one row at a time."""
    def fmt(x):
        if isinstance(x, (float, np.floating)):
            return repr(float(x))
        if isinstance(x, (bool, np.bool_)):
            return "1" if x else "0"
        return str(x)

    with open(path, "w", newline="") as fh:
        if cfg_hash is not None:
            fh.write(f"# config_hash={cfg_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(x) for x in row])


AWKWARD_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324,
                  1e16, 1e-5, 0.1 + 0.2, 2.0**60, 1 / 3, -1.5e-300]
CELLS = [
    *AWKWARD_FLOATS,
    *map(np.float64, AWKWARD_FLOATS),
    True, False, 0, -7, 2**70, -(2**64) + 1,
    "adaptive", "a,b", 'say "hi"', "two\nlines", "cr\r", "", " padded ",
]


def assert_same_bytes(tmp_path, header, rows, cfg_hash="deadbeef"):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_rows(got, header, iter(rows), cfg_hash)
    reference_write_rows(want, header, rows, cfg_hash)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("cell", CELLS, ids=repr)
def test_each_cell_type_matches_the_reference_writer(tmp_path, cell):
    # alone, beside other cells, and in a column of its own type
    assert_same_bytes(tmp_path, ("x",), [(cell,)])
    assert_same_bytes(tmp_path, ("a", "x", "b"), [(1, cell, 0.5), (2, cell, 0.25)])


def test_mixed_columns_match_the_reference_writer(tmp_path):
    # each column holds every kind of cell, in a different order
    rows = [tuple(CELLS[(i + k) % len(CELLS)] for k in range(4))
            for i in range(len(CELLS))]
    assert_same_bytes(tmp_path, ("a", "b,c", 'q"', ""), rows)


def test_blocks_match_the_reference_writer(tmp_path):
    # rows across several blocks, numpy scalars among Python cells
    rng = np.random.default_rng(0)
    n = 2 * BLOCK_ROWS + 5
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    rows = [(i, values[i], float(values[i]), bool(i % 3), "naive")
            for i in range(n)]
    assert_same_bytes(tmp_path, ("i", "np", "py", "flag", "mode"), rows, None)


def test_header_only_matches_the_reference_writer(tmp_path):
    assert_same_bytes(tmp_path, ("a", "b"), [])


# a block of one replicate wider than BLOCK_ROWS; blocks of 25 replicates of
# 10 generations, the last one short
@pytest.mark.parametrize("reps, width", [(4, BLOCK_ROWS + 3), (30, 10)])
def test_runs_files_match_the_reference_writer(tmp_path, reps, width):
    """Each file of one run takes its prefix of every replicate's traces,
    with its own extinct flags, in the bytes of the per-cell writer."""
    rng = np.random.default_rng(width)
    etas = rng.choice(AWKWARD_FLOATS, (reps, width))
    weights = (rng.standard_normal((reps, width))
               * 10.0 ** rng.integers(-300, 300, (reps, width)))
    counts = rng.integers(0, 2**62, (reps, width))
    files = [(tmp_path / f"n{n}.csv", n, rng.random(reps) < 0.5)
             for n in (0, 1, width // 2, width - 1)]
    write_runs(files, etas, weights, counts, "deadbeef")
    for path, n, extinct in files:
        want = tmp_path / "want.csv"
        reference_write_rows(want, RUNS_HEADER, [
            (r, p, etas[r, p], weights[r, p], counts[r, p], extinct[r])
            for r in range(reps) for p in range(n + 1)], "deadbeef")
        assert path.read_bytes() == want.read_bytes(), path.name


@pytest.mark.parametrize("cell", [np.int64(3), np.bool_(True), None, np.float32(0.5),
                                  [1.0]], ids=repr)
def test_unsupported_cells_raise_type_error(tmp_path, cell):
    with pytest.raises(TypeError, match="cannot write a CSV cell of type"):
        write_rows(tmp_path / "t.csv", ("a", "b"), [(1, 0.5), (2, cell)])


@pytest.mark.parametrize("rows", [[(1, 2), (3,)], [(1, 2, 3)]], ids=["short", "long"])
def test_rows_of_the_wrong_width_raise(tmp_path, rows):
    with pytest.raises(ValueError, match="needs 2 cells"):
        write_rows(tmp_path / "t.csv", ("a", "b"), rows)


def test_matrix_round_trip(tmp_path, two_state):
    path = tmp_path / "K.csv"
    write_matrix_csv(path, two_state, cfg_hash="00")
    back = read_matrix_csv(path)
    assert np.array_equal(back.to_dense(), two_state.to_dense())
    # 1-indexed on disk
    assert path.read_text().splitlines()[2].startswith("1,1,")


def test_matrix_round_trip_is_byte_exact_for_awkward_floats(tmp_path):
    m = np.array([[1 / 3, 2 / 3], [0.1 + 0.2, 1.0 - (0.1 + 0.2)]])
    K = TransitionMatrix.from_dense(m / m.sum(axis=1, keepdims=True))
    path = tmp_path / "K.csv"
    write_matrix_csv(path, K)
    assert np.array_equal(read_matrix_csv(path).to_dense(), K.to_dense())


def test_vector_round_trip(tmp_path):
    v = np.array([0.25, 0.5, 0.25])
    path = tmp_path / "v.csv"
    write_vector_csv(path, v)
    assert np.array_equal(read_vector_csv(path), v)


def test_v_table_uses_zero_based_generations(tmp_path):
    v = np.arange(6, dtype=float).reshape(2, 3)
    path = tmp_path / "vt.csv"
    write_v_table_csv(path, v)
    lines = path.read_text().splitlines()
    assert lines[0] == "p,r,value"
    assert lines[1] == "0,1,0.0"
    assert lines[-1] == "1,3,5.0"


def test_identical_writes_are_byte_identical(tmp_path, two_state):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_matrix_csv(a, two_state, cfg_hash="x")
    write_matrix_csv(b, two_state, cfg_hash="x")
    assert a.read_bytes() == b.read_bytes()


def write_csv(path, header, *rows):
    path.write_text("\n".join([header, *rows]) + "\n")
    return path


def write_noisy_csv(path, header, *rows, fill=("", "# between rows")):
    """The same CSV with comment and blank lines before its header, a line of
    ``fill`` (in turn) after each row, and CRLF line endings. The readers
    skip them all; numpy's parser fails on a line of whitespace, so a slice
    that holds one is read by the csv module's."""
    lines = ["# a comment", "", header, "# another"]
    for k, row in enumerate(rows):
        lines += [row, fill[k % len(fill)]]
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    return path


BAD_MATRIX_ROWS = [
    (("1,1,1.0", "2,2,1.0", "0,1,1.0"), "row '0,1,1.0' has an index outside 1..2"),
    (("1,1,1.0", "2,3,1.0"), "row '2,3,1.0' has an index outside 1..2"),
    (("1,1,1.0", "2,-1,1.0"), "row '2,-1,1.0' has an index outside 1..2"),
    (("1,1,0.5", "2,2,1.0", "1,1,0.5"), "row '1,1,0.5' repeats the index"),
    (("1,1,1.0", "2,2"), "row '2,2' needs 3 fields"),
    ((), "no data rows"),
]
BAD_MATRIX_IDS = ["index_0", "column_above_n", "negative", "repeat", "short_row", "empty"]


@pytest.mark.parametrize("rows, match", BAD_MATRIX_ROWS, ids=BAD_MATRIX_IDS)
def test_matrix_reader_rejects_bad_rows(tmp_path, rows, match):
    path = write_csv(tmp_path / "K.csv", "i,j,value", *rows)
    with pytest.raises(ValueError, match=match):
        read_matrix_csv(path)


@pytest.mark.parametrize("fill", [("", "# between rows"), ("# c", "   ", "\t")],
                         ids=["comments", "whitespace"])
@pytest.mark.parametrize("rows, match", BAD_MATRIX_ROWS, ids=BAD_MATRIX_IDS)
def test_bad_rows_are_named_past_comments(tmp_path, rows, match, fill):
    # the same row is named, counted in data rows, by either parser
    path = write_noisy_csv(tmp_path / "K.csv", "i,j,value", *rows, fill=fill)
    with pytest.raises(ValueError, match=match):
        read_matrix_csv(path)


@pytest.mark.parametrize("rows, match", [
    (("0,1.0", "2,0.0"), "row '0,1.0' has an index outside 1..2"),
    (("1,1.0", "2,0.0", "1,0.5"), "row '1,0.5' repeats the index"),
], ids=["index_0", "repeat"])
def test_vector_reader_rejects_bad_rows(tmp_path, rows, match):
    path = write_csv(tmp_path / "v.csv", "i,value", *rows)
    with pytest.raises(ValueError, match=match):
        read_vector_csv(path)


def test_readers_reject_more_states_than_the_limit(tmp_path):
    # rejected before any array of n states is allocated: a chain needs a
    # positive entry per state, so it has at most NONZERO_LIMIT states
    row = f"{NONZERO_LIMIT + 1},1,1.0"
    with pytest.raises(ValueError, match=f"names state {NONZERO_LIMIT + 1}"):
        read_matrix_csv(write_csv(tmp_path / "K.csv", "i,j,value", row))
    with pytest.raises(ValueError, match="at most"):
        read_vector_csv(write_csv(tmp_path / "v.csv", "i,value",
                                  f"{NONZERO_LIMIT + 1},1.0"))


def test_matrix_reader_rejects_one_nonzero_past_the_limit(tmp_path):
    # the reader stops at the first nonzero entry past the limit and names
    # its row; a zero entry does not count
    k = np.arange(NONZERO_LIMIT + 1)
    rows = [f"{i},{j},0.5" for i, j in zip((k // 1000 + 1).tolist(),
                                           (k % 1000 + 1).tolist())]
    last = rows[-1]
    path = write_csv(tmp_path / "K.csv", "i,j,value", "5000,5000,0.0", *rows)
    with pytest.raises(ValueError, match=f"row '{last}' is nonzero entry "
                                         f"{NONZERO_LIMIT + 1}"):
        read_matrix_csv(path)


def test_matrix_reader_rejects_rows_padded_past_the_limit(tmp_path):
    # ELL rows are padded to the widest row: 1001 states, one of them with
    # 1000 entries, would take 1001 x 1000 slots
    n = NONZERO_LIMIT // 1000 + 1
    wide = [f"1,{j},{1 / (n - 1)!r}" for j in range(2, n + 1)]
    rest = [f"{i},1,1.0" for i in range(2, n + 1)]
    path = write_csv(tmp_path / "K.csv", "i,j,value", *wide, *rest)
    with pytest.raises(ValueError, match=f"state 1 has {n - 1} nonzero entries"):
        read_matrix_csv(path)


def test_quoted_fields_read_as_unquoted_ones(tmp_path):
    # numpy's parser refuses a quoted field, so these files are read by the
    # csv module's
    K = write_csv(tmp_path / "K.csv", "i,j,value", "1,1,0.9", "1,2,0.1", "2,1,0.2",
                  "2,2,0.8")
    quoted = write_csv(tmp_path / "Kq.csv", '"i","j","value"', '"1","1","0.9"',
                       '1,"2",0.1', '"2",1,"0.2"', '2,2,"0.8"')
    assert np.array_equal(read_matrix_csv(quoted).to_dense(),
                          read_matrix_csv(K).to_dense())
    v = read_vector_csv(write_csv(tmp_path / "v.csv", "i,value", '"1","0.25"',
                                  '2,"-1.5"'))
    assert v.tolist() == [0.25, -1.5]


def test_sparse_rows_leave_zeros(tmp_path):
    path = write_csv(tmp_path / "K.csv", "i,j,value", "2,1,1.0", "1,2,1.0")
    assert np.array_equal(read_matrix_csv(path).to_dense(), [[0.0, 1.0], [1.0, 0.0]])


CHAIN_ROWS = ("1,1,0.25", "1,2,0.75", "2,1,0.5", "2,3,0.5", "3,3,1.0")


def same_kernel(a, b):
    return (np.array_equal(a.columns, b.columns)
            and a.probs.tobytes() == b.probs.tobytes())


def test_comment_blank_and_crlf_lines_are_skipped(tmp_path, monkeypatch):
    plain = read_matrix_csv(write_csv(tmp_path / "K.csv", "i,j,value", *CHAIN_ROWS))
    spaced = write_noisy_csv(tmp_path / "Ks.csv", "i,j,value", *CHAIN_ROWS,
                             fill=("  ", "\t", " # indented"))
    assert same_kernel(read_matrix_csv(spaced), plain)
    # numpy's parser skips the others itself
    monkeypatch.setattr(csv, "reader", None)
    noisy = write_noisy_csv(tmp_path / "Kn.csv", "i,j,value", *CHAIN_ROWS)
    assert b"\r\n\r\n1,2,0.75\r\n# between rows\r\n" in noisy.read_bytes()
    assert same_kernel(read_matrix_csv(noisy), plain)
    for end in ("\r\n", "\r"):
        path = tmp_path / "Kc.csv"
        path.write_bytes((end.join(["i,j,value", "# c", *CHAIN_ROWS]) + end).encode())
        assert same_kernel(read_matrix_csv(path), plain)


@pytest.mark.parametrize("chunk", [1, 2, 3, 4])
def test_slices_that_end_on_comments(tmp_path, monkeypatch, chunk):
    # the file is parsed a slice of raw lines at a time; a slice may begin
    # or end on a comment or hold nothing else, or only a line of whitespace,
    # which the csv module's parser reads
    plain = read_matrix_csv(write_csv(tmp_path / "K.csv", "i,j,value", *CHAIN_ROWS))
    rows = [CHAIN_ROWS[0], "# a", "  ", "# c", *CHAIN_ROWS[1:], "# d", "# e"]
    path = write_csv(tmp_path / "Kn.csv", "i,j,value", *rows)
    monkeypatch.setattr(serialize, "_CHUNK_LINES", chunk)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a slice with no data warns no one
        assert same_kernel(read_matrix_csv(path), plain)
    with pytest.raises(ValueError, match="row '1,2,0.75' repeats the index"):
        read_matrix_csv(write_csv(tmp_path / "Kr.csv", "i,j,value", *rows, "1,2,0.75"))


@pytest.mark.parametrize("chunk", [2, 1 << 16])
def test_nonzero_limit_names_its_data_row_past_comments(tmp_path, monkeypatch, chunk):
    # comment and zero rows before it do not count toward the limit
    monkeypatch.setattr(serialize, "NONZERO_LIMIT", 3)
    monkeypatch.setattr(serialize, "_CHUNK_LINES", chunk)
    path = write_csv(tmp_path / "K.csv", "i,j,value", "# one", "1,1,0.5", "# two",
                     "1,2,0.0", "", "1,3,0.5", "# three", "2,1,1.0", "3,3,1.0",
                     "# four", "3,1,0.0")
    with pytest.raises(ValueError, match="row '3,3,1.0' is nonzero entry 4; "
                                         "a CSV holds at most 3"):
        read_matrix_csv(path)


def test_quoted_fields_among_comments(tmp_path):
    # a quoted field sends its slice to the csv module's parser, which skips
    # the same lines and cuts the same comments as numpy's
    plain = read_matrix_csv(write_csv(tmp_path / "K.csv", "i,j,value", *CHAIN_ROWS))
    path = write_noisy_csv(tmp_path / "Kq.csv", '"i","j","value"', '"1",1,0.25',
                           '1,2,"0.75" # quoted', *CHAIN_ROWS[2:])
    assert same_kernel(read_matrix_csv(path), plain)
    with pytest.raises(ValueError, match="row '2,3,0.5' repeats the index"):
        read_matrix_csv(write_noisy_csv(tmp_path / "Kr.csv", "i,j,value",
                                        '"1",1,0.25', *CHAIN_ROWS[1:], "2,3,0.5"))


@pytest.mark.parametrize("rows", [
    ("1,1,0.25 # note", "1,2,0.75#note", "2,1,0.5", "2,3,0.5 #", "3,3,1.0"),
    ('"1",1,0.25 # note', "1,2,0.75#note", "2,1,0.5", "2,3,0.5 #", "3,3,1.0"),
], ids=["numpy", "csv_module"])
def test_a_comment_may_follow_a_value(tmp_path, rows):
    # a # starts a comment that runs to the end of its line, after data too
    plain = read_matrix_csv(write_csv(tmp_path / "K.csv", "i,j,value", *CHAIN_ROWS))
    path = write_csv(tmp_path / "Kn.csv", "i,j,value # header", *rows)
    assert same_kernel(read_matrix_csv(path), plain)
    v = read_vector_csv(write_csv(tmp_path / "v.csv", "i,value", "1,0.25 # a", "2,-1.5"))
    assert v.tolist() == [0.25, -1.5]
