"""Classical knot-invariant ingestion and the small-knot census.

The bundled table carries signature, determinant, and Arf for every prime
knot with at most eight crossings, pinned from the standard public
invariant tables.  tau is derived as -signature/2 for thin knots; rows for
non-alternating knots are census-eligible only when they carry an explicit
tau, which doubles as the caller's assertion of thinness (this is how the
two quasi-alternating eight-crossing knots enter)."""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Optional

from .errors import ParseError, ValidationError, read_input
from .verdicts import KnotDescriptor, cor13_arithmetic

REQUIRED_COLUMNS = ("name", "crossings", "alternating", "signature",
                    "determinant", "arf")


@dataclass(frozen=True)
class KnotTableRow:
    name: str
    crossings: int
    alternating: bool
    signature: int
    determinant: int
    arf: int
    tau_invariant: Optional[int]  # explicit column value, when given
    tau_derived: bool  # True when filled in from the signature

    @property
    def census_eligible(self) -> bool:
        """Thin data available: alternating, or tau asserted explicitly."""
        return self.alternating or (self.tau_invariant is not None
                                    and not self.tau_derived)

    def descriptor(self) -> KnotDescriptor:
        if self.tau_invariant is None:
            raise ParseError(f"{self.name}: no tau available")
        return KnotDescriptor(name=self.name,
                              tau_invariant=self.tau_invariant,
                              arf=self.arf,
                              determinant=self.determinant,
                              thin=True)


@dataclass
class TableReport:
    rows: list
    rejected: list  # (row_number, reason)


def parse_knot_csv_text(text: str) -> TableReport:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        raise ParseError("empty CSV")
    fields = [f.strip() for f in header]
    for col in REQUIRED_COLUMNS:
        if col not in fields:
            raise ParseError(f"missing required column {col!r}")
    rows = []
    rejected = []
    # blank lines are skipped and not counted
    for lineno, values in enumerate(filter(None, reader), start=2):
        if len(values) != len(header):
            rejected.append((lineno, f"row has {len(values)} fields, the "
                                     f"header {len(header)}"))
            continue
        try:
            row = _parse_row(dict(zip(fields, values)))
            if row.census_eligible:
                row.descriptor()  # refuses data no thin knot has
        except (ParseError, ValidationError, ValueError, KeyError) as exc:
            rejected.append((lineno, str(exc)))
            continue
        rows.append(row)
    return TableReport(rows=rows, rejected=rejected)


def _parse_row(raw: dict) -> KnotTableRow:
    name = (raw.get("name") or "").strip()
    if not name:
        raise ParseError("blank knot name")
    crossings, alternating, signature, determinant, arf = (
        _integer(name, field, raw[field]) for field in REQUIRED_COLUMNS[1:])
    if crossings < 0:
        raise ParseError(f"{name}: crossings {crossings} is negative")
    if alternating not in (0, 1):
        raise ParseError(f"{name}: alternating must be 0 or 1")
    if determinant <= 0 or determinant % 2 == 0:
        raise ParseError(
            f"{name}: determinant {determinant} is not odd positive "
            f"(impossible for a knot)")
    if arf not in (0, 1):
        raise ParseError(f"{name}: Arf must be 0 or 1")
    tau_text = (raw.get("tau") or "").strip()
    if tau_text:
        tau: Optional[int] = _integer(name, "tau", tau_text)
        derived = False
    elif alternating:
        if signature % 2:
            raise ParseError(f"{name}: odd signature")
        tau = -signature // 2
        derived = True
    else:
        tau = None
        derived = False
    return KnotTableRow(name=name, crossings=crossings,
                        alternating=bool(alternating), signature=signature,
                        determinant=determinant, arf=arf,
                        tau_invariant=tau, tau_derived=derived)


def _integer(name: str, field: str, text: str) -> int:
    """An optional sign and ASCII digits, spaces around them; ``int``
    alone would also read "3_0" as 30, and non-ASCII digits."""
    digits = text.strip()
    if not re.fullmatch(r"[+-]?[0-9]+", digits):
        raise ParseError(f"{name}: {field} {text!r} is not an integer")
    return int(digits)


def parse_knot_csv(path: str) -> TableReport:
    return parse_knot_csv_text(read_input(path))


def bundled_table() -> TableReport:
    text = resources.files("corkscrew.data").joinpath(
        "knots_le8.csv").read_text(encoding="utf-8")
    return parse_knot_csv_text(text)


def _name_sort_key(name: str):
    if "_" in name:
        head, _, tail = name.partition("_")
        try:
            return (int(head), int(tail), name)
        except ValueError:
            pass
    return (10 ** 6, 0, name)


@dataclass
class CensusEntry:
    name: str
    tau_invariant: int
    arf: int
    determinant: int
    qualifies: bool
    reason: str


def census(rows: Iterable[KnotTableRow],
           max_crossings: Optional[int] = None) -> list:
    """Thin-knot census through the arithmetic criterion.

    The output order is canonical (crossing number, then index), so it is
    stable under reordering of the input rows.  Ineligible rows are
    reported as non-qualifying with the gate that stopped them."""
    entries = []
    for row in sorted(rows, key=lambda r: (_name_sort_key(r.name))):
        if max_crossings is not None and row.crossings > max_crossings:
            continue
        if not row.census_eligible:
            entries.append(CensusEntry(
                name=row.name, tau_invariant=0, arf=row.arf,
                determinant=row.determinant, qualifies=False,
                reason="non-alternating without an explicit tau: thin "
                       "path unavailable"))
            continue
        tau = row.tau_invariant
        ok = cor13_arithmetic(row.arf, tau)
        entries.append(CensusEntry(
            name=row.name, tau_invariant=tau, arf=row.arf,
            determinant=row.determinant, qualifies=ok,
            reason="2*Arf + |tau| = "
                   f"{2 * row.arf + abs(tau)} mod 4 "
                   f"{'in' if ok else 'not in'} {{1, 2}}"))
    return entries


def census_names(rows: Iterable[KnotTableRow],
                 max_crossings: Optional[int] = None) -> list:
    return [e.name for e in census(rows, max_crossings) if e.qualifies]
