"""PSA CSV format: round trips and malformed-input diagnostics."""

import csv
import tracemalloc

import numpy as np
import pytest

import voikit.io as io_module
import voikit.psa as psa_module

from voikit import (
    LinearGaussianSpec,
    NonlinearToySpec,
    PsaFormatError,
    PsaSample,
    generate_psa,
    read_psa_csv,
    write_psa_csv,
)


def test_nb_round_trip_is_bitwise(tmp_path):
    sample = generate_psa(LinearGaussianSpec(), 200, seed=9)
    path = tmp_path / "psa.csv"
    write_psa_csv(path, sample)
    back = read_psa_csv(path)
    assert back.param_names == sample.param_names
    assert np.array_equal(back.params, sample.params)
    assert np.array_equal(back.nb, sample.nb)
    assert back.effects is None


def test_effect_cost_round_trip_is_bitwise(tmp_path):
    sample = generate_psa(NonlinearToySpec(), 150, seed=3, k=20_000.0)
    path = tmp_path / "toy.csv"
    write_psa_csv(path, sample)
    back = read_psa_csv(path, k=20_000.0)
    assert np.array_equal(back.params, sample.params)
    assert np.array_equal(back.effects, sample.effects)
    assert np.array_equal(back.costs, sample.costs)
    assert np.array_equal(back.nb, sample.nb)
    assert back.k == 20_000.0


def test_written_bytes(tmp_path):
    # CRLF line ends and each float's shortest round-trip repr, signed zero
    # and subnormals included
    sample = PsaSample(
        param_names=("x",),
        params=np.array([[-0.0], [5e-324]]),
        nb=np.array([[1e300, 0.1], [-2.5, 3.0]]),
    )
    path = tmp_path / "psa.csv"
    write_psa_csv(path, sample)
    assert path.read_bytes() == (
        b"param:x,nb:0,nb:1\r\n"
        b"-0.0,1e+300,0.1\r\n"
        b"5e-324,-2.5,3.0\r\n"
    )


def _write_whole_table(path, sample):
    """Reference writer: the whole table through one ``writerows`` of
    ``table.tolist()``, as write_psa_csv wrote before it went by blocks."""
    treatments = sample.treatment_names or tuple(
        str(t) for t in range(sample.n_treatments)
    )
    header = [f"param:{n}" for n in sample.param_names]
    if sample.effects is not None:
        header += [f"effect:{t}" for t in treatments] + [f"cost:{t}" for t in treatments]
        table = np.hstack([sample.params, sample.effects, sample.costs])
    else:
        header += [f"nb:{t}" for t in treatments]
        table = np.hstack([sample.params, sample.nb])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(table.tolist())


_EDGES = np.array([-0.0, 5e-324, 1e16, 1e-5, 0.1])


def _edge_sample():
    """Three treatments, effect/cost form; every column holds the floats
    whose repr differs most from a fixed format: signed zero, a subnormal,
    the exponent forms 1e+16 and 1e-05, and 0.1."""
    effects = np.column_stack([_EDGES, _EDGES[::-1], np.roll(_EDGES, 2)])
    costs = -np.roll(effects, 1, axis=0)
    return PsaSample(
        param_names=("x", "y"),
        params=np.column_stack([_EDGES, -_EDGES]),
        nb=effects - costs,
        effects=effects,
        costs=costs,
        k=1.0,
        treatment_names=("a", "b", "c"),
    )


WRITE_CASES = {
    "lg-200": lambda: generate_psa(LinearGaussianSpec(), 200, seed=9),
    # two full blocks and a partial third at the shipped block size
    "lg-3-blocks": lambda: generate_psa(
        LinearGaussianSpec(), 2 * psa_module._CHUNK_ROWS + 5, seed=6
    ),
    "toy-150": lambda: generate_psa(NonlinearToySpec(), 150, seed=3, k=20_000.0),
    "bytes-2": lambda: PsaSample(
        param_names=("x",),
        params=np.array([[-0.0], [5e-324]]),
        nb=np.array([[1e300, 0.1], [-2.5, 3.0]]),
    ),
    "edges-t3": _edge_sample,
}


@pytest.mark.parametrize("block", [1, 7, 150, psa_module._CHUNK_ROWS])
@pytest.mark.parametrize("case", list(WRITE_CASES))
def test_block_writes_match_a_whole_table_write(tmp_path, monkeypatch, case, block):
    # 7 divides none of the row counts; 150 divides one exactly
    sample = WRITE_CASES[case]()
    monkeypatch.setattr(psa_module, "_CHUNK_ROWS", block)
    write_psa_csv(tmp_path / "blocks.csv", sample)
    _write_whole_table(tmp_path / "whole.csv", sample)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_write_memory_bounded(tmp_path):
    # 10^5 rows of 4 columns: a whole-table write holds 400,000 Python
    # floats in lists (about 22 MB); a block of 4096 rows holds about 1 MB
    sample = generate_psa(LinearGaussianSpec(), 100_000, seed=1)
    write_psa_csv(tmp_path / "warm.csv", sample.take(np.arange(100)))
    tracemalloc.start()
    try:
        write_psa_csv(tmp_path / "psa.csv", sample)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6e6, f"peak {peak / 1e6:.1f} MB"


def test_effect_cost_needs_k(tmp_path):
    sample = generate_psa(NonlinearToySpec(), 10, seed=0)
    path = tmp_path / "toy.csv"
    write_psa_csv(path, sample)
    with pytest.raises(PsaFormatError, match="willingness to pay"):
        read_psa_csv(path)


def _write(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    return path


def test_missing_prefix_names_column(tmp_path):
    path = _write(tmp_path, "param:x,benefit\n1,2\n")
    with pytest.raises(PsaFormatError, match="'benefit'"):
        read_psa_csv(path)


def test_unknown_kind_named(tmp_path):
    path = _write(tmp_path, "param:x,foo:1,nb:0,nb:1\n1,2,3,4\n1,2,3,4\n")
    with pytest.raises(PsaFormatError, match="'foo"):
        read_psa_csv(path)


def test_no_param_columns(tmp_path):
    path = _write(tmp_path, "nb:0,nb:1\n1,2\n3,4\n")
    with pytest.raises(PsaFormatError, match="no param"):
        read_psa_csv(path)


def test_unpaired_effect_cost(tmp_path):
    path = _write(tmp_path, "param:x,effect:0,effect:1,cost:0\n1,2,3,4\n1,2,3,4\n")
    with pytest.raises(PsaFormatError, match=r"unmatched treatment\(s\) \['1'\]"):
        read_psa_csv(path, k=1000.0)


def test_mixed_nb_and_effect_rejected(tmp_path):
    path = _write(tmp_path, "param:x,nb:0,effect:0,cost:0\n1,2,3,4\n1,2,3,4\n")
    with pytest.raises(PsaFormatError, match="mixing"):
        read_psa_csv(path)


def test_ragged_row_reported_with_line_number(tmp_path):
    path = _write(tmp_path, "param:x,nb:0,nb:1\n1,2,3\n1,2\n")
    with pytest.raises(PsaFormatError, match="row 3"):
        read_psa_csv(path)


def test_unparseable_cell_names_column(tmp_path):
    path = _write(tmp_path, "param:x,nb:0,nb:1\n1,2,3\n1,abc,3\n")
    with pytest.raises(PsaFormatError, match="'nb:0'"):
        read_psa_csv(path)


def test_byte_order_mark_is_skipped(tmp_path):
    # spreadsheet "CSV UTF-8" exports start with a UTF-8 byte-order mark
    sample = generate_psa(NonlinearToySpec(), 150, seed=3, k=20_000.0)
    plain = tmp_path / "plain.csv"
    write_psa_csv(plain, sample)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    a, b = read_psa_csv(plain, k=20_000.0), read_psa_csv(bom, k=20_000.0)
    assert b.param_names == a.param_names
    for name in ("params", "nb", "effects", "costs"):
        assert np.array_equal(getattr(b, name), getattr(a, name))


def test_empty_file(tmp_path):
    path = _write(tmp_path, "")
    with pytest.raises(PsaFormatError, match="empty"):
        read_psa_csv(path)


def test_header_only(tmp_path):
    path = _write(tmp_path, "param:x,nb:0,nb:1\n")
    with pytest.raises(PsaFormatError, match="no data rows"):
        read_psa_csv(path)


def test_non_finite_value(tmp_path):
    path = _write(tmp_path, "param:x,nb:0,nb:1\n1,2,inf\n1,2,3\n")
    with pytest.raises(PsaFormatError, match="non-finite"):
        read_psa_csv(path)


def test_duplicate_columns_rejected(tmp_path):
    path = _write(tmp_path, "param:x,param:x,nb:0,nb:1\n1,2,3,4\n1,2,3,4\n")
    with pytest.raises(PsaFormatError, match="duplicate column param:x"):
        read_psa_csv(path)
    path = _write(tmp_path, "param:x,nb:0,nb:0\n1,2,3\n1,2,3\n")
    with pytest.raises(PsaFormatError, match="duplicate column nb:0"):
        read_psa_csv(path)


def test_treatment_names_preserved(tmp_path):
    path = _write(tmp_path, "param:x,nb:placebo,nb:drug\n1,2,3\n4,5,6\n")
    sample = read_psa_csv(path)
    assert sample.treatment_names == ("placebo", "drug")


_NB_ROWS = "1,2,3\n4,5,6\n"
_REFUSALS = {
    # header errors
    "no-kind-prefix": (
        "param:x,benefit,nb:1\n" + _NB_ROWS, None,
        "column 2 ('benefit') has no kind prefix; expected param:<name>, nb:<t>, "
        "effect:<t> or cost:<t>",
    ),
    "empty-name": ("param:x,nb:,nb:1\n" + _NB_ROWS, None, "column 2 ('nb:') has an empty name"),
    "duplicate-param": (
        "param:x,param:x,nb:0,nb:1\n1,2,3,4\n1,2,3,4\n", None, "duplicate column param:x"
    ),
    "duplicate-nb": ("param:x,nb:0,nb:0\n" + _NB_ROWS, None, "duplicate column nb:0"),
    "unknown-kind": (
        "param:x,foo:1,nb:1\n" + _NB_ROWS, None, "column 2 ('foo:1') has unknown kind 'foo'"
    ),
    # files PsaSample refuses
    "one-row": ("param:x,nb:0,nb:1\n1,2,3\n", None, "need at least 2 simulation rows"),
    "one-row-effect-cost": (
        "param:x,effect:0,effect:1,cost:0,cost:1\n1,2,3,4,5\n", 1000.0,
        "need at least 2 simulation rows",
    ),
    "one-treatment-nb": ("param:x,nb:0\n1,2\n3,4\n", None, "need at least 2 treatment options"),
    "one-treatment-effect-cost": (
        "param:x,effect:0,cost:0\n" + _NB_ROWS, 1000.0, "need at least 2 treatment options"
    ),
    # errors that named the file already
    "empty-file": ("", None, "empty file"),
    "no-param": ("nb:0,nb:1\n1,2\n3,4\n", None, "no param: columns in header"),
    "mixed": (
        "param:x,nb:0,effect:0,cost:0\n1,2,3,4\n", None,
        "mixing nb: with effect:/cost: columns is not supported",
    ),
    "no-outcomes": ("param:x,param:y\n1,2\n3,4\n", None, "no nb: or effect:/cost: columns in header"),
    "unpaired": (
        "param:x,effect:0,effect:1,cost:0\n1,2,3,4\n", 1000.0,
        "effect:/cost: columns must pair up; unmatched treatment(s) ['1']",
    ),
    "needs-k": (
        "param:x,effect:0,cost:0\n1,2,3\n", None,
        "effect/cost columns need a willingness to pay to build nb",
    ),
    "no-data-rows": ("param:x,nb:0,nb:1\n", None, "no data rows"),
    "ragged": ("param:x,nb:0,nb:1\n1,2,3\n1,2\n", None, "row 3 has 2 cells, header has 3"),
    "unparseable": (
        "param:x,nb:0,nb:1\n1,2,3\n1,abc,3\n", None,
        "row 3, column 'nb:0': cannot parse 'abc' as a number",
    ),
    "non-finite": ("param:x,nb:0,nb:1\n1,2,inf\n1,2,3\n", None, "non-finite values in data"),
}


@pytest.mark.parametrize(
    "text, k, reason", _REFUSALS.values(), ids=_REFUSALS.keys()
)
def test_every_refusal_starts_with_the_path(tmp_path, text, k, reason):
    path = _write(tmp_path, text)
    with pytest.raises(PsaFormatError) as info:
        read_psa_csv(path, k=k)
    assert str(info.value) == f"{path}: {reason}"


def test_caller_errors_keep_their_own_text(tmp_path):
    # an OSError from open and an invalid k are not the file's content
    missing = tmp_path / "missing.csv"
    with pytest.raises(FileNotFoundError) as info:
        read_psa_csv(missing)
    assert str(info.value) == f"[Errno 2] No such file or directory: {str(missing)!r}"
    path = _write(tmp_path, "param:x,effect:0,effect:1,cost:0,cost:1\n1,2,3,4,5\n6,7,8,9,0\n")
    with pytest.raises(ValueError) as info:
        read_psa_csv(path, k=-1.0)
    assert type(info.value) is ValueError
    assert str(info.value) == "willingness to pay must be finite and >= 0, got -1.0"


def _read_cellwise(path):
    """Reference reader: every row through csv and every cell through
    ``float``, as read_psa_csv parsed data rows before its numpy fast
    path.  Returns the data table for a header without format errors."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    if not rows:
        raise PsaFormatError(f"{path}: no data rows")
    width = len(header)
    table = np.empty((len(rows), width), dtype=float)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise PsaFormatError(
                f"{path}: row {i + 2} has {len(row)} cells, header has {width}"
            )
        for j, cell in enumerate(row):
            try:
                table[i, j] = float(cell)
            except ValueError:
                raise PsaFormatError(
                    f"{path}: row {i + 2}, column {header[j]!r}: "
                    f"cannot parse {cell!r} as a number"
                ) from None
    if not np.all(np.isfinite(table)):
        raise PsaFormatError(f"{path}: non-finite values in data")
    return table


_H = "param:x,nb:a,nb:b"
_READ_CORPUS = {
    "lf": f"{_H}\n1,2,3\n4,5,6\n",
    "crlf": f"{_H}\r\n1,2,3\r\n4,5,6\r\n",
    "cr": f"{_H}\r1,2,3\r4,5,6\r",
    "no-final-newline": f"{_H}\n1,2,3\n4,5,6",
    "blank-line-in-middle": f"{_H}\n1,2,3\n\n4,5,6\n",
    "blank-crlf-line-in-middle": f"{_H}\r\n1,2,3\r\n\r\n4,5,6\r\n",
    "trailing-blank-line": f"{_H}\n1,2,3\n4,5,6\n\n",
    "leading-blank-line": f"{_H}\n\n1,2,3\n",
    "only-blank-lines": f"{_H}\n\n\r\n",
    "whitespace-line": f"{_H}\n1,2,3\n   \n",
    "quoted-cell": f'{_H}\n"1",2,3\n4,5,6\n',
    "quoted-comma": f'{_H}\n"1,5",2,3\n',
    "quoted-newline": f'{_H}\n"1\n",2,3\n4,5,6\n',
    "unterminated-quote": f'{_H}\n1,2,3\n4,5,"6\n',
    "underscore": f"{_H}\n1_0,2,3\n4,5,6\n",
    "hash-cell": f"{_H}\n1,#2,3\n",
    "hash-line": f"{_H}\n1,2,3\n# note\n",
    "ragged-short": f"{_H}\n1,2,3\n4,5\n",
    "ragged-long": f"{_H}\n1,2,3,4\n",
    "empty-cell": f"{_H}\n1,,3\n",
    "nan": f"{_H}\n1,2,3\nnan,5,6\n",
    "inf": f"{_H}\n1,-inf,3\n",
    "signed-zero-and-subnormal": f"{_H}\n-0.0,5e-324,-5e-324\n0.0,1e-310,2.2250738585072014e-308\n",
    "spelling": f"{_H}\n+.5,1E+2,5.\n 1 ,\t2,3e0 \n",
    "hex": f"{_H}\n0x10,2,3\n",
    "unicode-digit": f"{_H}\n١,2,3\n4,5,6\n",
    "nul": f"{_H}\n1,2\x00,3\n",
}


@pytest.mark.filterwarnings("error")  # loadtxt warns on input without data
@pytest.mark.parametrize("text", _READ_CORPUS.values(), ids=_READ_CORPUS.keys())
def test_read_matches_cellwise_reference(tmp_path, text):
    path = tmp_path / "psa.csv"
    path.write_bytes(text.encode("utf-8"))
    try:
        expected = _read_cellwise(path)
    except PsaFormatError as exc:
        with pytest.raises(PsaFormatError) as info:
            read_psa_csv(path)
        assert str(info.value) == str(exc)
        return
    sample = read_psa_csv(path)
    got = np.hstack([sample.params, sample.nb])
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("line_end", ["\r\n", "\n", "\r"])
def test_clean_file_skips_cell_loop(tmp_path, monkeypatch, line_end):
    # finite doubles from random bits span the exponent range; their
    # shortest reprs parse in numpy's one-call path bit for bit
    bits = np.random.default_rng(4).integers(0, 2**64, size=(3000, 4), dtype=np.uint64)
    values = bits.view(np.float64)
    values = np.where(np.isfinite(values), values, -0.0)
    sample = PsaSample(param_names=("x", "y"), params=values[:, :2], nb=values[:, 2:])
    path = tmp_path / "psa.csv"
    write_psa_csv(path, sample)
    path.write_bytes(path.read_bytes().replace(b"\r\n", line_end.encode()))

    def cell_loop(*args):
        raise AssertionError("cell-level loop ran on a clean file")

    monkeypatch.setattr(io_module, "_parse_cells", cell_loop)
    back = read_psa_csv(path)
    assert np.array_equal(back.params.view(np.uint64), sample.params.view(np.uint64))
    assert np.array_equal(back.nb.view(np.uint64), sample.nb.view(np.uint64))
