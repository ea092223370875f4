import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carqte import (
    Dataset,
    DataValidationError,
    DegenerateCellError,
    QuantileGrid,
    load_csv,
)
from carqte.data import _per_stratum, index_strata
from conftest import load_csv_reference, pi_by_stratum, weighted_arm_counts


def test_balanced_split_counts():
    ds = Dataset.from_arrays([9.0, 8.0, 7.0, 6.0], [1, 0, 1, 0], [1, 1, 2, 2], np.zeros((4, 1)))
    st_ = ds.strata
    assert st_.n.tolist() == [2, 2]
    assert st_.n1.tolist() == [1, 1]
    assert st_.pi_hat.tolist() == [0.5, 0.5]


def test_direct_count_arithmetic():
    ds = Dataset.from_arrays([1.0, 2.0, 3.0], [1, 1, 0], [1, 1, 1], np.zeros((3, 1)))
    st_ = ds.strata
    assert st_.pi_hat[0] == pytest.approx(2 / 3)


def test_weighted_counts_by_hand():
    # n1w = 2, nw = 3, weighted treated fraction 2/3 for weights (2, 1)
    ds = Dataset.from_arrays([1.0, 2.0], [1, 0], [1, 1], np.zeros((2, 1)))
    n1w, nw = weighted_arm_counts(ds, [2.0, 1.0])
    assert n1w[0] == 2.0
    assert nw[0] == 3.0
    pis = pi_by_stratum(ds, np.array([2.0, 1.0]))
    assert pis[0] == pytest.approx(2 / 3)


def test_validate_flags_degenerate_cells():
    ds = Dataset.from_arrays([1.0, 2.0, 3.0, 4.0], [1, 0, 1, 1], ["a", "a", "b", "b"], np.zeros((4, 1)))
    st_ = ds.strata
    assert st_.degenerate == (1,)  # stratum "b" has no controls

    healthy = Dataset.from_arrays([1.0, 2.0, 3.0, 4.0], [1, 0, 1, 0], ["a", "a", "b", "b"], np.zeros((4, 1)))
    assert healthy.strata.degenerate == ()


def test_zero_weight_arm_is_flagged():
    ds = Dataset.from_arrays([1.0, 2.0, 3.0, 4.0], [1, 0, 1, 0], [1, 1, 1, 1], np.zeros((4, 1)))
    w = np.array([0.0, 1.0, 0.0, 1.0])
    with pytest.raises(DegenerateCellError, match="degenerate"):
        pi_by_stratum(ds, w)


def test_empty_stratum_raises():
    ds = Dataset.from_arrays([1.0, 2.0, 3.0], [1, 0, 1], [1, 1, 2], np.zeros((3, 1)))
    # A label without rows can only come from the raw constructor.
    extra = Dataset(ds.y, ds.a, ds.s, ds.x, ds.strata_labels + ("empty",))
    with pytest.raises(DataValidationError, match=r"strata without rows: \['empty'\]"):
        extra.strata


@pytest.mark.parametrize("values,match", [
    ([0.5] * 3, "one value per stratum"),
    (np.array(0.5), "one value per stratum"),
    ([0.5, 1.0], "strictly inside"),
])
def test_per_stratum_fractions_are_checked(values, match):
    assert _per_stratum(0.3, 2, "fixed pi").tolist() == [0.3, 0.3]
    assert _per_stratum([0.2, 0.7], 2, "fixed pi").tolist() == [0.2, 0.7]
    with pytest.raises(DataValidationError, match=f"fixed pi.*{match}"):
        _per_stratum(values, 2, "fixed pi")


def test_strata_is_computed_once_and_equals_index_strata():
    ds = Dataset.from_arrays([1.0, 2.0, 3.0, 4.0, 5.0], [1, 0, 1, 1, 0], ["b", "a", "a", "b", "b"],
                             np.zeros((5, 1)))
    assert ds.strata is ds.strata
    fresh = index_strata(ds)
    for name in ("n", "n1", "n0", "pi_hat"):
        assert np.array_equal(getattr(ds.strata, name), getattr(fresh, name))
    assert ds.strata.degenerate == fresh.degenerate


@settings(deadline=None, max_examples=50)
@given(st.data())
def test_weighted_total_matches_weight_sum(data):
    n = data.draw(st.integers(2, 60))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    ds = Dataset.from_arrays(
        rng.normal(size=n), rng.integers(0, 2, n), rng.integers(0, 3, n), np.zeros((n, 1))
    )
    w = rng.exponential(1.0, n) + 1e-9
    _, nw = weighted_arm_counts(ds, w)
    assert np.sum(nw) == pytest.approx(np.sum(w), rel=1e-10)


def test_unit_weights_equal_all_ones_bootstrap():
    rng = np.random.default_rng(7)
    ds = Dataset.from_arrays(rng.normal(size=30), rng.integers(0, 2, 30), rng.integers(0, 3, 30), np.zeros((30, 1)))
    st_ = ds.strata
    n1w, nw = weighted_arm_counts(ds, np.ones(30))
    assert np.array_equal(n1w, st_.n1) and np.array_equal(nw, st_.n)
    assert np.array_equal(nw - n1w, st_.n0)


def test_stratum_totals_order_independent():
    rng = np.random.default_rng(12)
    n = 500
    ds = Dataset.from_arrays(
        rng.normal(size=n), rng.integers(0, 2, n), rng.integers(0, 4, n), np.zeros((n, 1))
    )
    w = rng.exponential(1.0, n)
    n1w_a, nw_a = weighted_arm_counts(ds, w)
    perm = rng.permutation(n)
    ds_p = Dataset.from_arrays(ds.y[perm], ds.a[perm], ds.s[perm], ds.x[perm])
    n1w_b, nw_b = weighted_arm_counts(ds_p, w[perm])
    assert np.allclose(nw_a, nw_b, rtol=1e-12)
    assert np.allclose(n1w_a, n1w_b, rtol=1e-12)


def test_stratum_labels_map_to_dense_codes():
    ds = Dataset.from_arrays([1.0, 2.0, 3.0], [1, 0, 1], ["x", "z", "x"], np.zeros((3, 1)))
    assert ds.strata_labels == ("x", "z")
    assert ds.s.tolist() == [0, 1, 0]


@pytest.mark.parametrize(
    "y,a,s",
    [
        ([1.0, np.nan], [1, 0], [1, 1]),
        ([1.0, 2.0], [1, 2], [1, 1]),
        ([1.0, 2.0], [1], [1, 1]),
        ([1.0, 2.0], [1, 0], [1.0, np.nan]),  # a NaN label equals no other label
    ],
)
def test_bad_inputs_rejected(y, a, s):
    with pytest.raises(DataValidationError):
        Dataset.from_arrays(y, a, s, np.zeros((len(y), 1)))


def test_dataset_arrays_immutable():
    ds = Dataset.from_arrays([1.0, 2.0], [1, 0], [1, 1], np.zeros((2, 1)))
    with pytest.raises(ValueError):
        ds.y[0] = 5.0


def test_quantile_grid_validation():
    with pytest.raises(DataValidationError):
        QuantileGrid.of([0.5, 0.5])
    with pytest.raises(DataValidationError):
        QuantileGrid.of([0.0, 0.5])
    g = QuantileGrid.of([0.25, 0.75])
    assert g.index_of(0.75) == 1


def test_unit_weights_must_be_ones():
    # The point solve reads the count fractions pi_hat: they are the
    # weighted fractions of all-ones weights bit for bit.
    rng = np.random.default_rng(5)
    ds = Dataset.from_arrays(rng.normal(size=40), np.tile([0, 1], 20), rng.integers(0, 3, 40),
                             np.zeros((40, 1)))
    pis = pi_by_stratum(ds, np.ones(40))
    assert np.array_equal(pis, ds.strata.pi_hat)


def test_csv_round_trip(tmp_path):
    path = tmp_path / "exp.csv"
    path.write_text("y,a,s,x1,x2\n1.5,1,u,0.1,-2\n2.5,0,u,0.3,0.4\n0.5,1,v,0.0,1\n3.5,0,v,1,1\n")
    ds = load_csv(path)
    assert ds.n == 4
    assert ds.strata_labels == ("u", "v")
    assert ds.x.shape == (4, 2)
    assert ds.y.tolist() == [1.5, 2.5, 0.5, 3.5]


def test_csv_with_utf8_byte_order_mark(tmp_path):
    body = "y,a,s,x1\n1.5,1,u,0.1\n2.5,0,u,0.3\n0.5,1,v,0.0\n3.5,0,v,1\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_text(body, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + body.encode("utf-8"))
    want, got = load_csv(plain), load_csv(marked)
    assert got.strata_labels == want.strata_labels
    for name in ("y", "a", "s", "x"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    # Error messages still count lines from the header.
    marked.write_bytes(b"\xef\xbb\xbf" + (body + "1.0,1,u,oops\n").encode("utf-8"))
    with pytest.raises(DataValidationError, match=r":6: column 'x1' is not a float"):
        load_csv(marked)


_NOT_UTF8 = "not valid UTF-8"


@pytest.mark.parametrize(
    "raw,message",
    [
        (b"y,a,s\n1.0,1,u\n2.0,0,\xff\n", f":3: {_NOT_UTF8}"),
        (b"y,a,s\n1.0,1,u\n2.\xff0,0,v\n", f":3: {_NOT_UTF8}"),
        (b"y,a,\xffs\n1.0,1,u\n", f":1: {_NOT_UTF8}"),
        (b"\xef\xbb\xbfy,a,s\n1.0,1,u\n\xc3,0,u\n", f":3: {_NOT_UTF8}"),
        (b"y,a,s\n1.0,1,u\n2.0,0\n\xff,1,v\n", ":3: wrong number of fields"),
        (b"y,a,s\n" + b"1.0,1,u\n" * 5000 + b"1.0,0,\xed\xa0\x80\n", f":5002: {_NOT_UTF8}"),
    ],
    ids=["label", "outcome", "header", "bom-then-cut-sequence", "earlier-bad-line-wins",
         "late-encoded-surrogate"],
)
def test_csv_that_is_not_utf8_names_its_first_bad_line(tmp_path, raw, message):
    path = tmp_path / "latin.csv"
    path.write_bytes(raw)
    with pytest.raises(DataValidationError) as err:
        load_csv(path)
    assert str(err.value) == f"{path}{message}"


def test_csv_with_non_ascii_labels_still_loads(tmp_path):
    path = tmp_path / "utf8.csv"
    path.write_bytes("\ufeffy,a,s\n1.0,1,é\n2.0,0,é\n3.0,1,ü\n4.0,0,ü\n".encode("utf-8"))
    assert load_csv(path).strata_labels == ("é", "ü")


@pytest.mark.parametrize(
    "body",
    [
        "y,a,s\n1.0,2,u\n",          # bad treatment value
        "y,a,s\n,1,u\n",             # missing y
        "y,s\n1.0,u\n",              # missing column
        "y,a,s,x1\n1.0,1,u,\n",      # missing covariate
        "y,a,s,x1\n1.0,1,u,oops\n",  # non-numeric covariate
    ],
)
def test_csv_rejects_malformed(tmp_path, body):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(DataValidationError):
        load_csv(path)


# -- columnar loader against the row-by-row reference -------------------------

_PAD = st.sampled_from(["", " ", "  ", "\t", " \t", "\xa0", "\u2003"])
_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-310, 1.7976931348623157e308]),
)
_LABELS = st.text(st.sampled_from("abXY09 ,\"éü中\n\r-_."), min_size=1, max_size=6).filter(
    lambda v: v.strip() != ""
)


@st.composite
def _number_cell(draw, pad=_PAD):
    v = draw(_FLOATS)
    text = draw(st.sampled_from([repr(v), f"{v:.17g}", f"{v:.17e}"]))
    if draw(st.booleans()) and not text.startswith("-"):
        text = "+" + text
    return draw(pad) + text + draw(pad)


@st.composite
def _label_cell(draw):
    label = draw(_LABELS)
    if draw(st.booleans()) or any(c in label for c in ',"\n\r'):
        return '"' + label.replace('"', '""') + '"'
    return draw(_PAD) + label + draw(_PAD)


@st.composite
def _csv_tables(draw):
    """File bytes of a valid experiment table in a random layout."""
    header = ["y", "a", "s"] + [f"x{k}" for k in range(draw(st.integers(0, 3)))]
    header = draw(st.permutations(header))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        cells = {
            "y": draw(_number_cell()),
            "a": draw(_PAD) + draw(st.sampled_from("01")) + draw(_PAD),
            "s": draw(_label_cell()),
        }
        # Covariates are stripped before float(), so separators pad them too.
        rows.append([cells.get(h) or draw(_number_cell(_PAD | st.just("\x1d"))) for h in header])
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in range(len(rows) + 1)]
    if draw(st.booleans()):
        ends[-1] = ""
    lines = [" , ".join(header) if draw(st.booleans()) else ",".join(header)]
    lines += [",".join(row) for row in rows]
    text = "".join(line + end for line, end in zip(lines, ends))
    bom = b"\xef\xbb\xbf" if draw(st.booleans()) else b""
    return bom + text.encode("utf-8")


def _assert_same_dataset(got, want):
    for name in ("y", "a", "s", "x"):
        g, w = getattr(got, name), getattr(want, name)
        assert (g.dtype, g.shape) == (w.dtype, w.shape), name
        assert g.tobytes() == w.tobytes(), name  # bit for bit, -0.0 included
    assert got.strata_labels == want.strata_labels


@settings(deadline=None, max_examples=150)
@given(_csv_tables())
def test_load_csv_matches_row_by_row_reference(tmp_path_factory, body):
    path = tmp_path_factory.mktemp("csv") / "exp.csv"
    path.write_bytes(body)
    _assert_same_dataset(load_csv(path), load_csv_reference(path))


def _bad_row(kind, row, header, rng):
    """``row`` (a list of cells) made bad in the way ``kind`` names."""
    row = list(row)
    x_cols = [i for i, h in enumerate(header) if h not in ("y", "a", "s")]
    if kind == "short":
        return ",".join(row[:-1])
    if kind == "long":
        return ",".join(row + ["1"])
    if kind == "blank":
        return ""
    if kind == "y":
        row[header.index("y")] = rng.choice(["", "abc", "1.2.3", " - ", "\x1c1.5", "2\x1f"])
    elif kind == "y_nonfinite":
        row[header.index("y")] = rng.choice(["nan", "-inf", "1e400", "Infinity"])
    elif kind == "a":
        row[header.index("a")] = rng.choice(["2", "1.0", "", " ", "-1", "01"])
    elif kind == "s":
        row[header.index("s")] = rng.choice(["", "  ", '""'])
    elif kind == "x_missing":
        row[x_cols[rng.randrange(len(x_cols))]] = rng.choice(["", "   "])
    elif kind == "x_text":
        row[x_cols[rng.randrange(len(x_cols))]] = rng.choice(["oops", "1e", "0x10", '"1,5"'])
    return ",".join(row)


@pytest.mark.parametrize(
    "kind", ["short", "long", "blank", "y", "y_nonfinite", "a", "s", "x_missing", "x_text"]
)
@settings(deadline=None, max_examples=15)
@given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 30), second=st.booleans())
def test_load_csv_errors_match_row_by_row_reference(tmp_path_factory, kind, seed, n_rows, second):
    rng = random.Random(seed)
    header = ["y", "a", "s", "x1", "x2"]
    rows = [
        [repr(rng.gauss(0, 1)), rng.choice("01"), rng.choice("uvw"),
         repr(rng.gauss(0, 1)), repr(rng.random())]
        for _ in range(n_rows)
    ]
    lines = [",".join(row) for row in rows]
    at = rng.randrange(n_rows)
    lines[at] = _bad_row(kind, rows[at], header, rng)
    if second and at + 1 < n_rows:  # a later bad line must not be the one named
        lines[rng.randrange(at + 1, n_rows)] = "1,1"
    path = tmp_path_factory.mktemp("csv") / "bad.csv"
    path.write_text(",".join(header) + "\n" + "\n".join(lines) + "\n")
    with pytest.raises(DataValidationError) as want:
        load_csv_reference(path)
    with pytest.raises(DataValidationError) as got:
        load_csv(path)
    assert str(got.value) == str(want.value)


def test_underscore_numerals_are_rejected(tmp_path):
    # float() accepts "1_000"; numpy's float parser, which reads the file
    # now, does not.  This is the loader's one declared change.
    from carqte.cli import main

    path = tmp_path / "under.csv"
    path.write_text("y,a,s\n1_000,1,u\n2.0,0,u\n3.0,1,v\n4.0,0,v\n")
    assert load_csv_reference(path).y[0] == 1000.0
    with pytest.raises(DataValidationError, match="1_000"):
        load_csv(path)
    assert main(["estimate", "--input", str(path), "--taus", "0.5", "--B", "20",
                 "--out", str(tmp_path / "r.json")]) == 3


@pytest.mark.parametrize("body", ["y,a,s\n", "y,a,s", "y,a,s,x1\r\n"])
def test_header_only_file_has_no_data_rows(tmp_path, body):
    path = tmp_path / "empty.csv"
    path.write_text(body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataValidationError, match="no data rows"):
            load_csv(path)
