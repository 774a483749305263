"""Reading and writing the PSA CSV interchange format.

Header cells are prefixed by kind: ``param:<name>`` for parameter draws and
either ``nb:<treatment>`` columns or paired ``effect:<t>`` / ``cost:<t>``
columns for the outcomes.  One row per simulation, UTF-8, plain decimal
point.  Floats are written with ``repr`` so a write/read round trip is
bitwise exact.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .psa import PsaSample, build_nb

__all__ = ["PsaFormatError", "read_psa_csv", "write_psa_csv"]


class PsaFormatError(ValueError):
    """The file does not follow the PSA CSV format."""


def _split_header(header: list[str]):
    params, nb, effects, costs = [], {}, {}, {}
    for pos, cell in enumerate(header):
        cell = cell.strip()
        if ":" not in cell:
            raise PsaFormatError(
                f"column {pos + 1} ({cell!r}) has no kind prefix; expected "
                "param:<name>, nb:<t>, effect:<t> or cost:<t>"
            )
        kind, _, name = cell.partition(":")
        kind = kind.strip()
        name = name.strip()
        if not name:
            raise PsaFormatError(f"column {pos + 1} ({cell!r}) has an empty name")
        if kind == "param":
            if any(name == n for n, _ in params):
                raise PsaFormatError(f"duplicate column param:{name}")
            params.append((name, pos))
        elif kind in ("nb", "effect", "cost"):
            bucket = {"nb": nb, "effect": effects, "cost": costs}[kind]
            if name in bucket:
                raise PsaFormatError(f"duplicate column {kind}:{name}")
            bucket[name] = pos
        else:
            raise PsaFormatError(
                f"column {pos + 1} ({cell!r}) has unknown kind {kind!r}"
            )
    return params, nb, effects, costs


def read_psa_csv(path, k: float | None = None) -> PsaSample:
    """Parse a PSA CSV file into a :class:`PsaSample`.

    Files with ``effect:``/``cost:`` columns need ``k`` to assemble the net
    benefit; files with ``nb:`` columns must not mix in effect/cost columns.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PsaFormatError(f"{path}: empty file") from None
        rows = list(reader)

    params, nb_cols, effect_cols, cost_cols = _split_header(header)
    if not params:
        raise PsaFormatError(f"{path}: no param: columns in header")
    if nb_cols and (effect_cols or cost_cols):
        raise PsaFormatError(
            f"{path}: mixing nb: with effect:/cost: columns is not supported"
        )
    if not nb_cols:
        if not effect_cols and not cost_cols:
            raise PsaFormatError(f"{path}: no nb: or effect:/cost: columns in header")
        if set(effect_cols) != set(cost_cols):
            odd = sorted(set(effect_cols) ^ set(cost_cols))
            raise PsaFormatError(
                f"{path}: effect:/cost: columns must pair up; unmatched treatment(s) {odd}"
            )
        if k is None:
            raise PsaFormatError(
                f"{path}: effect/cost columns need a willingness to pay to build nb"
            )

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

    param_names = tuple(name for name, _ in params)
    p_matrix = table[:, [pos for _, pos in params]]

    if nb_cols:
        treatments = tuple(nb_cols)  # header order
        nb = table[:, [nb_cols[t] for t in treatments]]
        return PsaSample(
            param_names=param_names,
            params=p_matrix,
            nb=nb,
            treatment_names=treatments,
        )

    treatments = tuple(effect_cols)
    effects = table[:, [effect_cols[t] for t in treatments]]
    costs = table[:, [cost_cols[t] for t in treatments]]
    return PsaSample(
        param_names=param_names,
        params=p_matrix,
        nb=build_nb(effects, costs, k),
        effects=effects,
        costs=costs,
        k=float(k),
        treatment_names=treatments,
    )


def write_psa_csv(path, sample: PsaSample) -> None:
    """Write a sample in the PSA CSV format.

    Effect/cost columns are written when the sample carries them (so the
    file stays sweepable over willingness to pay); otherwise nb columns.
    """
    path = Path(path)
    treatments = sample.treatment_names or tuple(
        str(t) for t in range(sample.n_treatments)
    )
    header = [f"param:{n}" for n in sample.param_names]
    blocks: list[np.ndarray] = [sample.params]
    if sample.effects is not None:
        header += [f"effect:{t}" for t in treatments]
        header += [f"cost:{t}" for t in treatments]
        blocks += [sample.effects, sample.costs]
    else:
        header += [f"nb:{t}" for t in treatments]
        blocks.append(sample.nb)
    table = np.hstack(blocks)

    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        # csv writes a Python float as its repr, the shortest round-trip form
        writer.writerows(table.tolist())


def write_provenance(path, payload: dict) -> None:
    """Write a JSON sidecar describing how a CSV was generated."""
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
