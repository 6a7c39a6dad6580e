"""File formats: instance JSON, dataset CSV, experiment config, result CSV.

Instance files are JSON with either factorized or joint form::

    {"k": 2, "a": [a00, a01, a10, a11], "q": [[...], [...], [...], [...]]}
    {"p": [[...], [...], [...], [...]]}

rows in canonical group order (0,0), (0,1), (1,0), (1,1); ``k`` is optional
in either form, but when present it must be an integer equal to the row
length. ``read_instance`` returns either form as ``model.Parts`` and
``read_joint`` as a joint table (``a * q`` of a parts-form file). Dataset
CSVs have header ``y,t,z`` (plus a leading ``x`` column for stratified
data); an empty z field marks a confounded record. The table readers return
count tables, the one form the estimators take: column 0 of a ``(4, k + 1)``
table counts a group's rows with an empty z and column z + 1 those with z.
Readers fail fast with the offending row or field named, and count only a
file that parsed whole, so nothing partially validated reaches the
estimators. A file that cannot be read or is not UTF-8, and a path that
cannot be written, raise ``DataFormatError`` naming the path. Integer
fields are plain ASCII decimal: ``int``'s digit grouping (``1_000``),
non-ASCII digits and non-ASCII whitespace around a field are rejected.

The table readers parse bytes with numpy when they can prove a file simple:
printable ASCII without ``"``, every line ending in ``\n``, the header,
the same field count on every line, fields of at most 8 bytes, and
spellings the field parsers accept. A file whose data lines all have one
length, with their commas in the same columns (every ground-truth table
with k <= 10 is ``d,d,d``), is read as column slices of one byte grid, a
one-byte field column proved simple from its distinct bytes; other files
are checked and scanned for their separators byte by byte. Each field
parser runs once per distinct spelling in its column, but x's all-digit
spellings are decoded from their bytes. Each row's count-table cell is
summed from its columns' codes in the narrowest unsigned type, with no row
array (a 200k-row k=3 fixed-stride table reads in ~1.1 CPU-ms). Every other
file goes through ``csv.reader``, the one source of reader error messages.
"""

from __future__ import annotations

import csv
import json
import os
import string
from dataclasses import fields as dataclass_fields
from functools import partial
from itertools import chain
from typing import List, Optional, Tuple, Union

import numpy as np

from .errors import DataFormatError, ValidationError
from .model import (
    ConditionalTable,
    ConfoundedDistribution,
    JointDistribution,
    Parts,
    check_int,
    is_integer,
    joint_from_parts,
    parts_from_joint,
)
from .simulation import CurveRow, ErrorCurve, ExperimentConfig


def _read_error(path, exc: Exception) -> DataFormatError:
    """The error reading ``path`` raised, as a ``DataFormatError`` naming the path."""
    if isinstance(exc, FileNotFoundError):
        return DataFormatError(f"{path}: file not found")
    if isinstance(exc, UnicodeDecodeError):
        return DataFormatError(f"{path}: not UTF-8 text ({exc.reason})")
    if isinstance(exc, OSError):
        return DataFormatError(f"{path}: cannot read ({exc.strerror or exc})")
    return DataFormatError(f"{path}: {exc}")


def _read_json_object(path) -> dict:
    """Parse a JSON file whose top level must be an object."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON ({exc})") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise _read_error(path, exc) from None
    if not isinstance(raw, dict):
        raise DataFormatError(f"{path}: expected a JSON object")
    return raw


def _check_k(raw: dict, width: int) -> None:
    """An optional ``k`` field must be an integer (not a bool) equal to the table width."""
    k = raw.get("k", width)
    if not is_integer(k):
        raise ValidationError(f"field k must be an integer, got {k!r}")
    if k != width:
        raise ValidationError(f"field k={k} does not match table row length {width}")


def _instance_from(raw: dict, path) -> Union[JointDistribution, Parts]:
    """``raw``'s instance in the form the file holds it: a joint table or ``Parts``."""
    try:
        if "p" in raw:
            joint = JointDistribution(np.asarray(raw["p"], dtype=float))
            _check_k(raw, joint.k)
            return joint
        if "a" in raw and "q" in raw:
            a = ConfoundedDistribution(np.asarray(raw["a"], dtype=float))
            q = ConditionalTable(np.asarray(raw["q"], dtype=float))
            _check_k(raw, q.k)
            return Parts(a, q)
    except (ValidationError, ValueError, TypeError) as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    raise DataFormatError(f"{path}: expected fields ('a', 'q') or 'p'")


def read_instance(path) -> Parts:
    inst = _instance_from(_read_json_object(path), path)
    return inst if isinstance(inst, Parts) else parts_from_joint(inst)


def read_joint(path) -> JointDistribution:
    """The joint table of an instance file: as read, or ``a * q`` of a parts-form file."""
    inst = _instance_from(_read_json_object(path), path)
    try:
        return inst if isinstance(inst, JointDistribution) else joint_from_parts(*inst)
    except ValidationError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def read_marginal(path) -> ConfoundedDistribution:
    """The (Y, T) marginal from ``{"a": [...]}`` or from a full instance file.

    A file with an ``a`` field yields it as is, whatever else the file holds.
    """
    raw = _read_json_object(path)
    if "a" not in raw:  # then only a joint-form file gets past _instance_from
        return parts_from_joint(_instance_from(raw, path)).a
    try:
        return ConfoundedDistribution(np.asarray(raw["a"], dtype=float))
    except (ValidationError, ValueError, TypeError) as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def _open_for_writing(path, **kwargs):
    """``open(path, "w")``; a path that cannot be written raises ``DataFormatError`` naming it."""
    try:
        return open(path, "w", encoding="utf-8", **kwargs)
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot write ({exc.strerror or exc})") from None


def check_output_path(path) -> None:
    """Fail before a long run whose result could not be written to ``path``.

    Checks only what ``_open_for_writing`` would fail on without creating
    the file: ``path`` is a directory, or its directory does not exist.
    """
    if os.path.isdir(path):
        raise DataFormatError(f"{path}: cannot write (Is a directory)")
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise DataFormatError(f"{path}: cannot write (No such file or directory)")


def _write_json(path, payload: dict) -> None:
    with _open_for_writing(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_instance(path, a: ConfoundedDistribution, q: ConditionalTable) -> None:
    _write_json(path, {"k": q.k, "a": a.a.tolist(), "q": q.q.tolist()})


def write_joint_instance(path, joint: JointDistribution) -> None:
    _write_json(path, {"k": joint.k, "p": joint.p.tolist()})


# fields are stripped of ASCII whitespace only: a bare str.strip() also drops
# a no-break space or a control character such as \x1c around a number
_BLANKS = string.whitespace


def _parse_bit(value: str, row: int, name: str) -> int:
    value = value.strip(_BLANKS)
    if value not in ("0", "1"):
        raise DataFormatError(f"row {row}: {name} must be 0 or 1, got {value!r}")
    return int(value)


def _int(text: str) -> int:
    """``int(text)`` for ASCII decimal text only.

    ``int`` also reads digit grouping (``1_000`` is 1000) and any Unicode
    decimal digit (Arabic-Indic two, U+0662, is 2).
    """
    if "_" in text or not text.isascii():
        raise ValueError(text)
    return int(text)


def _parse_z(value: str, row: int, k: int, required: bool = False) -> int:
    value = value.strip(_BLANKS)
    if value == "":
        if required:
            raise DataFormatError(f"row {row}: ground-truth tables require z on every row")
        return -1
    try:
        z = _int(value)
    except ValueError:
        raise DataFormatError(f"row {row}: z must be an integer, got {value!r}") from None
    if not 0 <= z < k:
        raise DataFormatError(f"row {row}: z must lie in [0, {k}), got {z}")
    return z


def _parse_x(value: str, row: int) -> int:
    try:
        x = _int(value.strip(_BLANKS))
    except ValueError:
        raise DataFormatError(f"row {row}: x must be an integer, got {value!r}") from None
    if x < 0:
        raise DataFormatError(f"row {row}: x must be >= 0, got {x}")
    if x >= 2**63:  # the columns are int64
        raise DataFormatError(f"row {row}: x must be below 2**63, got {x}")
    return x


_Y = partial(_parse_bit, name="y")
_T = partial(_parse_bit, name="t")


def _open_rows(path, expected_headers) -> List[List[str]]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise _read_error(path, exc) from None
    if not rows:
        raise DataFormatError(f"{path}: empty file")
    header = [h.strip().lower() for h in rows[0]]
    if header not in expected_headers:
        raise DataFormatError(
            f"{path}: header must be one of {expected_headers}, got {header}"
        )
    return rows[1:]


# A parsed column is a pair (index, table): row i's value is index[i] + table for
# an int table (a column of one-digit fields), else table[index[i]].


def _read_int_columns(path, header: List[str], parsers) -> List[tuple]:
    """The rows after ``header`` as one parsed column per parser: from the bytes
    of a file ``_field_codes`` and ``_parse_codes`` take, else by the ``csv``
    reader, which alone raises the errors."""
    codes = _field_codes(path, header, len(parsers))
    columns = None if codes is None else list(map(_parse_codes, codes, parsers))
    if columns is None or None in columns:
        return _read_int_columns_csv(path, header, parsers)
    return columns


_NL, _COMMA, _QUOTE = b"\n,\""
_PACK = 8  # bytes of the widest field packed into one uint64 code
_MASKS = np.array([(1 << 8 * n) - 1 for n in range(_PACK + 1)], dtype=np.uint64)
_PREFIX = 4096  # bytes searched for the header and the first data line


def _field_codes(path, header: List[str], width: int) -> Optional[List[np.ndarray]]:
    """Each data column's field codes, one per row, or None.

    Takes a file only if every byte is printable ASCII other than ``"`` or a
    ``\n``, the file ends in ``\n``, the header matches, and every line has
    ``width`` fields of at most 8 bytes. ``csv.reader`` splits such a file
    at ``,`` and ``\n`` alone, so its cells are the fields' bytes as text.
    A field's code is its bytes as a little-endian integer. A file whose data
    lines all have the first one's length is proved simple column by column
    (``_fixed_fields``, and ``_parse_codes`` for one-byte columns); only other
    files are checked and scanned for separators byte by byte.
    """
    try:
        buf = np.fromfile(path, dtype=np.uint8)
    except OSError:
        return None
    fields = _fixed_fields(buf, header, width)
    if fields is not None:
        return fields
    if not buf.size or buf[-1] != _NL or buf.max() > 0x7E:
        return None
    newline, comma = buf == _NL, buf == _COMMA
    lines = np.count_nonzero(newline)
    if lines < 2 or np.count_nonzero(buf < 0x20) != lines or np.count_nonzero(buf == _QUOTE):
        return None
    if np.count_nonzero(comma) != lines * (width - 1):
        return None
    if not _is_header(buf[: newline.argmax()].tobytes(), header):
        return None
    return _scan_codes(buf, comma | newline, width)


def _is_header(line: bytes, header: List[str]) -> bool:
    """Whether ``line`` is printable ASCII that ``_open_rows`` reads as ``header``."""
    text = line.decode("latin-1")
    return text.isascii() and text.isprintable() and [
        h.strip().lower() for h in text.split(",")] == header


def _fixed_fields(buf: np.ndarray, header: List[str], width: int) -> Optional[List[np.ndarray]]:
    """``_field_codes`` of a file whose data lines all have one length, or None.

    The header and the first data line come from the file's first bytes.
    The data lines are then the rows of one ``(rows, stride)`` byte grid:
    the file is taken if each column where the first line has a ``,`` or
    its ``\n`` holds that byte on every row (compared as a contiguous copy,
    faster than the strided column), no field column holds a ``,``, and each
    one wider than a byte (``_pack``) holds only printable ASCII but ``"``.
    """
    lines = buf[:_PREFIX].tobytes().split(b"\n", 2)
    if len(lines) < 3 or not _is_header(lines[0], header):
        return None
    start, stride = len(lines[0]) + 1, len(lines[1]) + 1
    rows, extra = divmod(buf.size - start, stride)
    ends = [i for i, byte in enumerate(lines[1]) if byte == _COMMA] + [stride - 1]
    if extra or len(ends) != width:
        return None
    grid = buf[start:].reshape(rows, stride)
    if not all((grid[:, end].copy() == grid[0, end]).all() for end in ends):
        return None
    codes = [_pack(grid[:, a:b]) for a, b in zip([0] + [end + 1 for end in ends], ends)]
    return None if any(field is None for field in codes) else codes


def _pack(field: np.ndarray) -> Optional[np.ndarray]:
    """A ``(rows, n)`` byte slice as codes: a copy of the byte if n is 1, else uint64.

    None if n > 8 or a byte is ``,``, or if n > 1 and a byte is not printable
    ASCII or is ``"``. uint64 codes pad each field with ``8 - n`` zero bytes.
    """
    rows, n = field.shape
    if n == 1:
        packed = field[:, 0].copy()
        return None if _COMMA in packed else packed
    if n > _PACK:
        return None
    packed = np.zeros((rows, _PACK), dtype=np.uint8)
    packed[:, :n] = field
    if packed.max() > 0x7E or np.count_nonzero(packed < 0x20) != packed.size - rows * n:
        return None
    return None if _QUOTE in packed or _COMMA in packed else packed.view("<u8")[:, 0]


def _scan_codes(buf: np.ndarray, is_sep: np.ndarray, width: int) -> Optional[List[np.ndarray]]:
    """``_field_codes`` of a file, split where ``is_sep`` marks a ``,`` or ``\n``."""
    sep = np.flatnonzero(is_sep)
    if not (buf[sep[width - 1 :: width]] == _NL).all():
        return None
    starts = sep[width - 1 : -1] + 1
    lengths = sep[width:] - starts
    if lengths.max() > _PACK:
        return None
    # the 8 bytes from each offset as one little-endian word; 7 zero bytes pad the end
    padded = np.zeros(buf.size + _PACK - 1, dtype=np.uint8)
    padded[: buf.size] = buf
    words = np.ndarray((buf.size,), dtype="<u8", buffer=padded, strides=(1,))
    return list((words.take(starts) & _MASKS.take(lengths)).reshape(-1, width).T)


def _parse_codes(codes: np.ndarray, parse) -> Optional[tuple]:
    """The parsed column of ``parse`` of each code's spelling, or None.

    None if ``parse`` rejects a spelling, or if a byte column (uint8 codes, from
    a fixed-stride grid) holds a byte that is not printable ASCII or is ``"``.
    ``parse`` runs once per distinct code, in ascending order, but not on x's
    all-digit codes. A byte column is searched for each byte from its least
    to its greatest; other codes below 2**16 are counted in a histogram,
    larger ones ranked by ``np.unique``.
    """
    if codes.dtype == np.uint8:
        low, high = int(codes.min()), int(codes.max())
        index, distinct = codes, [b for b in range(low, high + 1) if b in codes]
        if low < 0x20 or high > 0x7E or _QUOTE in distinct:
            return None
        distinct = slots = np.array(distinct)
    elif codes.max() < 1 << 16:
        index = codes.astype(np.intp)
        distinct = slots = np.flatnonzero(np.bincount(index))
    else:
        distinct, index = np.unique(codes, return_inverse=True)
        slots = np.arange(distinct.size)
    values = _digits(distinct) if parse is _parse_x else np.full(distinct.size, -1)
    spellings = distinct.tolist()
    try:
        for i in np.flatnonzero(values < 0).tolist():
            values[i] = parse(_spelling(spellings[i]), 0)
    except DataFormatError:
        return None
    shift = int(values[0] - slots[0])
    if (values - slots == shift).all():
        return index, shift
    table = np.zeros(slots[-1] + 1, dtype=np.int64)
    table[slots] = values
    return index, table


def _digits(codes: np.ndarray) -> np.ndarray:
    """The number each code spells if its bytes are all ASCII digits, else -1."""
    chars = np.asarray(codes, dtype="<u8").view(np.uint8).reshape(-1, _PACK).astype(np.int64)
    number, digits = np.zeros(len(codes), dtype=np.int64), chars[:, 0] > 0
    for char in chars.T:  # a code's first byte is its lowest; zero bytes pad it
        number = np.where(char > 0, 10 * number + char - 0x30, number)
        digits &= (char == 0) | ((char >= 0x30) & (char <= 0x39))
    return np.where(digits, number, -1)


def _spelling(code: int) -> str:
    """The field text a ``_field_codes`` code packs (printable bytes, so no zero byte)."""
    return code.to_bytes(_PACK, "little").rstrip(b"\0").decode("ascii")


def _read_int_columns_csv(path, header: List[str], parsers) -> List[tuple]:
    """``_read_int_columns`` through ``csv.reader``; the source of every reader error.

    Parsers are pure functions of the cell text, so each runs once per
    distinct spelling in its column, indexed in the order they appear. The
    first row with a wrong field count or an unparsable cell is then parsed
    field by field, so it raises the message a row-by-row loop would.
    """
    body = _open_rows(path, [header])
    width = len(parsers)
    wrong = np.fromiter(map(len, body), dtype=np.int64, count=len(body)) != width
    stop = int(np.argmax(wrong)) if wrong.any() else len(body)
    flat = list(chain.from_iterable(body[:stop]))
    columns = []
    for j, parse in enumerate(parsers):
        cells = flat[j::width]
        slots = {text: slot for slot, text in enumerate(dict.fromkeys(cells))}
        table, bad = np.zeros(len(slots), dtype=np.int64), set()
        for text, slot in slots.items():
            try:
                table[slot] = parse(text, 0)
            except DataFormatError:
                bad.add(text)
        columns.append((np.fromiter(map(slots.__getitem__, cells), np.intp, stop), table))
        if bad:
            stop = int(np.argmax(np.fromiter(map(bad.__contains__, cells), dtype=bool)))
            flat = flat[: stop * width]
    if stop < len(body):
        row, fields = stop + 2, body[stop]
        if len(fields) != width:
            raise DataFormatError(f"row {row}: expected {width} fields, got {len(fields)}")
        for parse, text in zip(parsers, fields):
            parse(text, row)
    if not stop:
        raise DataFormatError(f"{path}: no data rows")
    return [(index[:stop], table) for index, table in columns]


def _read_rows(path, k: int, stratified: bool = False, required: bool = False) -> List[tuple]:
    """The ``[x,] y, t, z`` columns of a table; z = -1 is an empty z (``required`` rejects it)."""
    z = partial(_parse_z, k=check_int(k, "k", 2), required=required)
    if stratified:
        return _read_int_columns(path, ["x", "y", "t", "z"], (_parse_x, _Y, _T, z))
    return _read_int_columns(path, ["y", "t", "z"], (_Y, _T, z))


def _count_rows(columns: List[tuple], k: int) -> Tuple[np.ndarray, np.ndarray]:
    """The sorted distinct x values of ``_read_rows`` and one ``(4, k + 1)`` table each.

    Column 0 of a table counts the rows with z = -1 and column z + 1 those
    with z. Rows without an x column are one stratum, x = 0. A row's cell,
    (4 s + 2 y + t)(k + 1) + z + 1 for the rank s of its x among the values
    of x's slots, is summed in the narrowest unsigned type that holds every
    cell, modulo its range; the strata no row is in are then dropped.
    """
    strata = np.zeros(1, dtype=np.int64)
    if len(columns) == 4:
        index, table = columns[0]
        values = np.arange(index.max() + 1) + table if isinstance(table, int) else table
        strata, ranks = np.unique(values, return_inverse=True)
        columns = [(index, ranks)] + columns[1:]
    size = strata.size * 4 * (k + 1)
    dtype = np.min_scalar_type(size)
    weights = [4 * (k + 1), 2 * (k + 1), k + 1, 1][-len(columns) :]
    offset = 1 + sum(w * s for (_, s), w in zip(columns, weights) if isinstance(s, int))  # shifts
    cells = np.full(columns[0][0].size, offset % (1 << 8 * dtype.itemsize), dtype=dtype)
    for (index, table), weight in zip(columns, weights):
        if not isinstance(table, int):
            index = table.astype(dtype).take(index, mode="clip")
        cells += np.multiply(index, weight, dtype=dtype, casting="unsafe")
    if dtype == np.uint8:  # two rows at a time as one uint16; either byte order counts each once
        pairs = np.bincount(cells[: cells.size & -2].view(np.uint16), minlength=size << 8)
        pairs = pairs.reshape(size, 256)
        counts = pairs[:, :size].sum(axis=0) + pairs.sum(axis=1)
        counts[cells[-1]] += cells.size & 1
    else:
        counts = np.bincount(cells.astype(np.intp), minlength=size)
    counts = counts.reshape(-1, 4, k + 1)
    used = counts.any(axis=(1, 2))
    return strata[used], counts[used]


def read_dataset_csv(path, k: int) -> np.ndarray:
    """The ``(4, k + 1)`` counts of ``y,t,z`` rows: column 0 for an empty z, z + 1 for z."""
    return _count_rows(_read_rows(path, k), k)[1][0]


def read_stratified_csv(path, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """The sorted distinct x of ``x,y,t,z`` rows and their ``(S, 4, k + 1)`` counts.

    Each table is laid out as :func:`read_dataset_csv`'s.
    """
    return _count_rows(_read_rows(path, k, stratified=True), k)


def read_full_table_csv(path, k: int) -> np.ndarray:
    """The ``(4, k)`` cell counts of a fully deconfounded ``y,t,z`` table (no empty z)."""
    return _count_rows(_read_rows(path, k, required=True), k)[1][0, :, 1:]


CURVE_HEADER = [
    "policy",
    "grid_kind",
    "grid_value",
    "mean_abs_error",
    "std_abs_error",
    "reps",
    "instances",
]


def write_error_curve_csv(curve: ErrorCurve, path) -> None:
    with _open_for_writing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CURVE_HEADER)
        for row in curve.rows:  # already sorted by policy then grid value
            writer.writerow(
                [
                    row.policy,
                    row.grid_kind,
                    row.grid_value,
                    repr(row.mean_abs_error),
                    repr(row.std_abs_error),
                    row.reps,
                    row.instances,
                ]
            )


def read_error_curve_csv(path) -> ErrorCurve:
    body = _open_rows(path, [CURVE_HEADER])
    parsers = (str, str, int, float, float, int, int)
    rows = []
    for i, cells in enumerate(body, start=2):
        if len(cells) != 7:
            raise DataFormatError(f"row {i}: expected 7 fields, got {len(cells)}")
        values = []
        for name, parse, text in zip(CURVE_HEADER, parsers, cells):
            try:
                values.append(parse(text))
            except ValueError:
                kind = "an integer" if parse is int else "a number"
                raise DataFormatError(f"row {i}: {name} must be {kind}, got {text!r}") from None
        rows.append(CurveRow(*values))
    return ErrorCurve(tuple(rows))


_CONFIG_FIELDS = {"dataset", "instance_files"}.union(
    f.name for f in dataclass_fields(ExperimentConfig)
)


def read_experiment_config(path) -> Tuple[ExperimentConfig, dict]:
    """Load a config JSON: the config plus extras (dataset, instance files, fields set)."""
    raw = _read_json_object(path)
    unknown = set(raw) - _CONFIG_FIELDS
    if unknown:
        raise DataFormatError(f"{path}: unknown config fields {sorted(unknown)}")
    extras = {
        "fields": frozenset(raw),
        "dataset": raw.pop("dataset", None),
        "instance_files": raw.pop("instance_files", None),
    }
    files, dataset = extras["instance_files"], extras["dataset"]
    if files is not None and not (
        isinstance(files, list) and all(isinstance(f, str) for f in files)
    ):
        raise DataFormatError(f"{path}: instance_files must be a list of paths, got {files!r}")
    if dataset is not None and not isinstance(dataset, str):
        raise DataFormatError(f"{path}: dataset must be a path, got {dataset!r}")
    try:
        config = ExperimentConfig(**raw)
    except (ValidationError, TypeError) as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    return config, extras
