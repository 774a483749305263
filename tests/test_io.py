"""PSA CSV format: round trips and malformed-input diagnostics."""

import csv
import tracemalloc

import numpy as np
import pytest

import voikit.io as io_module

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


WRITE_CASES = {
    "lg-200": lambda: generate_psa(LinearGaussianSpec(), 200, seed=9),
    # two full blocks and a partial third at the shipped block size
    "lg-3-blocks": lambda: generate_psa(
        LinearGaussianSpec(), 2 * io_module._WRITE_BLOCK + 5, seed=6
    ),
    "toy-150": lambda: generate_psa(NonlinearToySpec(), 150, seed=3, k=20_000.0),
    "bytes-2": lambda: PsaSample(
        param_names=("x",),
        params=np.array([[-0.0], [5e-324]]),
        nb=np.array([[1e300, 0.1], [-2.5, 3.0]]),
    ),
}


@pytest.mark.parametrize("block", [1, 7, 150, io_module._WRITE_BLOCK])
@pytest.mark.parametrize("case", list(WRITE_CASES))
def test_block_writes_match_a_whole_table_write(tmp_path, monkeypatch, case, block):
    # 7 divides none of the row counts; 150 divides one exactly
    sample = WRITE_CASES[case]()
    monkeypatch.setattr(io_module, "_WRITE_BLOCK", block)
    write_psa_csv(tmp_path / "blocks.csv", sample)
    _write_whole_table(tmp_path / "whole.csv", sample)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_write_memory_bounded(tmp_path):
    # 10^5 rows of 4 columns: a whole-table write holds 400,000 Python
    # floats in lists (about 22 MB); a block of rows holds about 2 MB
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
