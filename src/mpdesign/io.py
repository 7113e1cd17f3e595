"""File I/O: atomic writes, CSV/JSON serialization, campaign data parsing.

Campaign data CSV (schema version 1, UTF-8 with or without a byte-order
mark): optional ``#`` comment lines, then a
``quadrant_id,suspected_count`` section, then optionally a
``class_name,categorized_count`` section with the spectroscopy results:

    # schema_version: 1
    quadrant_id,suspected_count
    1,12
    2,9
    class_name,categorized_count
    PE,8
    PP,5

All CSV output uses '.' decimal separator, newline-terminated rows, and a
stable column order, so identical inputs produce byte-identical files.
Floats are written as their shortest round-trip ``repr``, and JSON output is
``json.dumps(obj, indent=2, sort_keys=True)`` plus a newline. Both renderers
leave the per-item work to the standard library's C loops: ``_csv``'s
``writerows`` for tables, whose cells must be plain str, int, float or bool,
and the C JSON encoder for every dict or list of scalars.
"""

from __future__ import annotations

import csv
import functools
import io as _io
import json
import os
import tempfile
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported at run time by the parsing code only
    from .posterior import CategorizationCounts, FieldObservations

__all__ = [
    "CampaignDataError",
    "CampaignData",
    "parse_campaign_data",
    "atomic_write_text",
    "render_csv",
    "render_json",
]

FIELD_HEADER = ["quadrant_id", "suspected_count"]
CLASS_HEADER = ["class_name", "categorized_count"]


class CampaignDataError(ValueError):
    """Invalid campaign data file."""


@dataclass(frozen=True)
class CampaignData:
    observations: FieldObservations
    class_counts: dict[str, int] | None

    def categorization(self, class_names: tuple[str, ...]) -> CategorizationCounts | None:
        if self.class_counts is None:
            return None
        from .posterior import CategorizationCounts

        return CategorizationCounts(
            tuple(self.class_counts.get(name, 0) for name in class_names)
        )


def parse_campaign_data(path, quadrant_area: float, class_names: tuple[str, ...]) -> CampaignData:
    from .posterior import FieldObservations

    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:  # a BOM is dropped
            rows = [
                row
                for row in csv.reader(fh)
                if row and not row[0].lstrip().startswith("#")
            ]
    except OSError as exc:  # its text repeats the path: only the reason is quoted
        raise CampaignDataError(f"cannot read {_cut(str(path))}: {exc.strerror}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        # bytes that are not UTF-8, or a cell past csv's 131,072 characters
        raise CampaignDataError(f"cannot read {path}: {exc}") from exc

    if not rows or rows[0] != FIELD_HEADER:
        found = f"got {_cut(','.join(rows[0]))!r}" if rows else "the file has no rows"
        raise CampaignDataError(f"first header must be {','.join(FIELD_HEADER)!r}, {found}")
    try:
        split = next(i for i, row in enumerate(rows) if row == CLASS_HEADER)
    except StopIteration:
        split = len(rows)

    counts = []
    seen_ids = set()
    for row in rows[1:split]:
        if len(row) != 2:
            raise CampaignDataError(f"malformed quadrant row {_cut(','.join(row))!r}")
        qid, value = row
        if qid in seen_ids:
            raise CampaignDataError(f"duplicate quadrant_id {_cut(qid)!r}")
        seen_ids.add(qid)
        counts.append(_nonneg_int(value, f"suspected_count for quadrant {_cut(qid)!r}"))
    if not counts:
        raise CampaignDataError("no quadrant rows")
    obs = FieldObservations(quadrant_area, tuple(counts))

    class_counts = None
    if split < len(rows):
        class_counts = {}
        for row in rows[split + 1 :]:
            if len(row) != 2:
                raise CampaignDataError(f"malformed class row {_cut(','.join(row))!r}")
            name, value = row
            if name not in class_names:
                raise CampaignDataError(
                    f"unknown class_name {_cut(name)!r}; "
                    f"configured classes: {_cut(', '.join(class_names))}"
                )
            if name in class_counts:
                raise CampaignDataError(f"duplicate class_name {_cut(name)!r}")
            class_counts[name] = _nonneg_int(value, f"categorized_count for {_cut(name)!r}")
        total_cat = sum(class_counts.values())
        if total_cat > obs.total_count:
            raise CampaignDataError(
                f"categorized total {total_cat} exceeds suspected total {obs.total_count}"
            )
    return CampaignData(observations=obs, class_counts=class_counts)


def _nonneg_int(text: str, where: str) -> int:
    # 2**53 has 16 digits, so the first 17 of a count decide its bound; int()
    # alone refuses a text of more than 4,300 digits as if it were no integer
    digits = text.strip().lstrip("0")
    try:
        value = int(digits[:17]) if digits.isascii() and digits.isdigit() else int(text)
    except ValueError as exc:
        raise CampaignDataError(f"{where} must be an integer, got {_cut(text)!r}") from exc
    if value < 0:
        raise CampaignDataError(f"{where} must be nonnegative, got {_cut(text.strip())}")
    if value > 2**53:  # past it a count is not exact in the float posterior
        raise CampaignDataError(f"{where} must be at most 2**53 = {2**53}, got {_cut(digits)}")
    return value


def _cut(text: str) -> str:
    """``text`` as a message echoes it: past 32 characters, its first 32 and its length."""
    return text if len(text) <= 32 else f"{text[:32]}… ({len(text)} characters)"


def atomic_write_text(path, text: str):
    """Write via a temp file in the same directory plus rename."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# The cells that ``_csv`` writes in the stable text form: floats by repr, the rest by str.
_CSV_CELLS = frozenset((str, int, float, bool))


def render_csv(header, rows) -> str:
    """CSV text of ``header`` and ``rows``, written by one C ``writerows`` call.

    ``rows`` is an iterable of sequences whose cells are each exactly a str,
    int, float or bool. Any other cell raises a ``TypeError`` that names its
    type: a NumPy scalar would print as ``np.float64(...)`` under NumPy 2,
    and None as an empty field.
    """
    rows = list(rows)
    if not _CSV_CELLS.issuperset(map(type, chain.from_iterable(rows))):
        cell = next(v for v in chain.from_iterable(rows) if type(v) not in _CSV_CELLS)
        raise TypeError(f"CSV cells must be str, int, float or bool, not {type(cell).__name__}")
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def render_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` plus a newline, byte for byte.

    With ``indent`` set, the standard library encodes through its pure-Python
    generator encoder. Here every dict or list whose values are all exact
    JSON scalars (str, int, float, bool or None) is one call to the C encoder
    instead, with the indentation put into its item separator; only
    containers that hold containers are walked in Python. On a 2000-point
    density grid this takes about 70% of the time of walking every item in
    Python, and most of what is left is ``float.__repr__`` of the 2000
    values. Floats are written by ``float.__repr__`` (NaN and infinities as
    ``NaN``, ``Infinity`` and ``-Infinity``), and any other type raises the
    same ``TypeError`` as ``json.dumps``.
    """
    return _json_value(obj, "\n") + "\n"


_JSON_SCALARS = frozenset((str, int, float, bool, type(None)))


@functools.cache  # one per nesting depth; an encoder keeps no state between calls
def _encoder(newline: str) -> json.JSONEncoder:
    """The C-backed encoder for a container whose lines start with ``newline``."""
    return json.JSONEncoder(sort_keys=True, separators=("," + newline + "  ", ": "))


def _json_key(key) -> str:
    if isinstance(key, str):
        return _quote(key)
    if key is None or isinstance(key, (int, float)):
        return _quote(_encoder("").encode(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _json_value(value, newline: str) -> str:
    """JSON text of ``value`` whose nested lines start with ``newline``."""
    if isinstance(value, dict):
        brackets, values = "{}", value.values()
    elif isinstance(value, (list, tuple)):
        brackets, values = "[]", value
    else:  # a scalar, or the encoder's TypeError for any other type
        return _encoder(newline).encode(value)
    if not value:
        return brackets
    inner = newline + "  "
    if _JSON_SCALARS.issuperset(map(type, values)):
        text = _encoder(newline).encode(value)
        return text[0] + inner + text[1:-1] + newline + text[-1]
    if brackets == "[]":
        items = [_json_value(v, inner) for v in value]
    else:
        items = [_json_key(k) + ": " + _json_value(v, inner) for k, v in sorted(value.items())]
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]

