"""PSA CSV format: round trips and malformed-input diagnostics."""

import numpy as np
import pytest

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
