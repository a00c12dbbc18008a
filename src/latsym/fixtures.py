"""Bundled reference tables: the 32 isometry classes and the orbit sample.

Both tables ship as JSON under latsym/data with pinned checksums.  The
genus strings they contain are cross-checked against the genus engine by
the verification commands, so a transcription slip surfaces as an explicit
mismatch instead of silently propagating.

The class table is kept exactly as printed.  Printed genus strings that
describe no lattice are corrected by the checksummed errata file, which is
applied on load and checked against the table and the oddity formula.
"""

import json
import re
from functools import lru_cache
from pathlib import Path

from . import genus, lattice

# the builtin SHA-256 module spares the import of OpenSSL through hashlib
try:
    from _sha2 import sha256            # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256      # Python 3.11 and earlier
    except ImportError:
        from hashlib import sha256

_DATA = Path(__file__).parent / "data"

TABLE1_SHA256 = "9438029f63f2c352b599c0ecd339d632c5b1fe28c6aad43d651342e22636d739"
ORBITS_SHA256 = "ff08fa135ee06a205f1c69dd680b9c9766c998746ad56b07e8b805ce7fe10d12"
ERRATA_SHA256 = "32c1f0c3cbf5f70271ee976d9e097b21f0cfd25652db56238a153329a4d38749"

_GENUS_FIELDS = ("invariant_genus", "coinvariant_genus")


def _load_json(path, checksum):
    raw = path.read_bytes()
    if checksum is not None:
        digest = sha256(raw).hexdigest()
        if digest != checksum:
            raise ValueError("checksum mismatch for %s" % path.name)
    return json.loads(raw.decode("utf-8"))


@lru_cache(maxsize=None)
def _bundled(name, checksum):
    """A bundled file, read and checked once per process; callers copy."""
    return _load_json(_DATA / name, checksum)


@lru_cache(maxsize=None)
def _corrected_rows(errata):
    """Bundled rows with the errata applied (each erratum a tuple of items)."""
    rows = _bundled("table1.json", TABLE1_SHA256)["rows"]
    return tuple(apply_errata(rows, [dict(e) for e in errata]))


def load_table(path=None):
    """Rows of the bundled class table (checksummed, errata applied), or of
    an override file, checked by _override_rows.  Every call returns fresh
    row dicts."""
    if path is None:
        errata = tuple(tuple(sorted(e.items())) for e in load_errata())
        return [dict(r) for r in _corrected_rows(errata)]
    return _override_rows(_load_json(Path(path), None))


def _override_rows(data):
    """The rows of an override table, ValueError unless it is an object with
    a list of row objects that carry int no, order and disc_order, a bool
    regular, a type, and genus strings that parse_genus accepts (or null),
    and no two rows share a number."""
    rows = data.get("rows") if isinstance(data, dict) else None
    if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
        raise ValueError("a class table is an object with a list of row objects")
    seen = set()
    for i, row in enumerate(rows):
        kinds = [type(row.get(k)) for k in ("no", "order", "disc_order", "regular")]
        texts = [row.get(k, 0) for k in _GENUS_FIELDS]
        if (kinds != [int, int, int, bool] or "type" not in row or not all(
                t is None or isinstance(t, str) for t in texts)):
            raise ValueError("class table row %d needs int no, order and "
                             "disc_order, a bool regular, a type and genus "
                             "strings or nulls" % i)
        if row["no"] in seen:
            raise ValueError("class table row %d repeats row %d" % (i, row["no"]))
        seen.add(row["no"])
        for text in (t for t in texts if t is not None):
            try:
                genus.parse_genus(text)
            except ValueError as exc:
                raise ValueError("class table row %d: %s" % (i, exc)) from None
    return rows


def load_errata():
    """Entries of the bundled errata file (checksummed)."""
    return [dict(e) for e in _bundled("errata.json", ERRATA_SHA256)["errata"]]


def _consistent(text):
    return genus.signature_consistent(genus.parse_genus(text))


def apply_errata(rows, errata):
    """Rows with each erratum's corrected genus string in place.

    An erratum only replaces a string that is printed verbatim in the row
    and violates the oddity formula, by one that satisfies it; anything
    else means the erratum is stale and raises ValueError.
    """
    by_no = {r["no"]: dict(r) for r in rows}
    for e in errata:
        where = "erratum for row %s %s" % (e["row"], e["field"])
        if e["field"] not in _GENUS_FIELDS or e["row"] not in by_no:
            raise ValueError("%s: no such row or genus field" % where)
        row = by_no[e["row"]]
        if row[e["field"]] != e["printed"]:
            raise ValueError("%s: table prints %r, erratum expects %r" % (
                where, row[e["field"]], e["printed"]))
        if _consistent(e["printed"]):
            raise ValueError("%s: printed %r satisfies the oddity formula" % (
                where, e["printed"]))
        if not _consistent(e["corrected"]):
            raise ValueError("%s: corrected %r violates the oddity formula" % (
                where, e["corrected"]))
        row[e["field"]] = e["corrected"]
    return [by_no[r["no"]] for r in rows]


def load_orbit_table():
    """Orbit sample rows with the vectors evaluated in the standard model."""
    data = _bundled("orbits.json", ORBITS_SHA256)
    model = lattice.standard_model()
    rows = []
    for row in data["rows"]:
        row = dict(row)
        row["vector"] = model_vector(model, row["vector_expr"])
        rows.append(row)
    return rows


_VECTOR_TERM = re.compile(r"([+-]?)(?:(\d+)\*)?([a-z0-9_]+?)(?:\((-?\d+)\))?(?=[+-]|$)")


def model_vector(model, expr):
    """Evaluate a sum of named model vectors, e.g. "2*u2(1)-a1_sum"."""
    text = expr.replace(" ", "")
    if not text:
        raise ValueError("empty vector expression")
    out = [0] * model.rank
    pos = 0
    while pos < len(text):
        m = _VECTOR_TERM.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError("cannot parse vector expression at %r" % text[pos:])
        sign_s, coef_s, name, arg = m.groups()
        sign = -1 if sign_s == "-" else 1
        coef = int(coef_s) if coef_s else 1
        if arg is not None:
            if name != "u2":
                raise ValueError("unknown parametrized vector %r" % name)
            vec = model.u2_vector(int(arg))
        else:
            if name not in model.named:
                raise ValueError("unknown model vector %r" % name)
            vec = model.named[name]
        for i in range(model.rank):
            out[i] += sign * coef * vec[i]
        pos = m.end()
    return out
