"""CSV ingestion and the small-knot census."""

import pytest

from corkscrew.errors import ParseError
from corkscrew.knot_table import (
    bundled_table,
    census,
    census_names,
    parse_knot_csv_text,
)

PAPER_LIST = ["4_1", "5_2", "6_3", "7_4", "7_5", "7_7", "8_1", "8_2",
              "8_6", "8_7", "8_12", "8_13", "8_14", "8_15", "8_17",
              "8_18", "8_21"]

HEADER = "name,crossings,alternating,signature,determinant,arf,tau\n"


def test_bundled_table_loads_clean():
    rep = bundled_table()
    assert len(rep.rows) == 35
    assert rep.rejected == []


def test_census_is_the_published_seventeen():
    assert census_names(bundled_table().rows, max_crossings=8) == PAPER_LIST


def test_tau_derived_from_signature():
    rep = parse_knot_csv_text(HEADER + "4_1,4,1,0,5,1,\n")
    row = rep.rows[0]
    assert row.tau_invariant == 0 and row.tau_derived


@pytest.mark.parametrize("flag", ["2", "-1", "yes"])
def test_alternating_flag_must_be_zero_or_one(flag):
    rep = parse_knot_csv_text(HEADER + f"good,3,1,-2,3,1,\nbad,4,{flag},0,5,1,\n")
    assert [row.name for row in rep.rows] == ["good"]
    assert rep.rejected and rep.rejected[0][0] == 3


def test_malformed_integers_are_rejected_naming_the_field():
    # int() reads "3_0" as 30 and a full-width digit as 5; a negative
    # crossing number is an integer but no knot's
    rep = parse_knot_csv_text(HEADER + "3_1,3_0,1,-2,3,1,\n"
                              "4_1,-4,1,0,5,1,\n"
                              "5_1,\uff15,1,-4,5,1,\n"
                              "5_2,5,1,-2,7,0, -1 \n"
                              "6_1,6,1,0,9,0,1.0\n")
    assert [(row.name, row.tau_invariant) for row in rep.rows] == [("5_2", -1)]
    assert rep.rejected == [
        (2, "3_1: crossings '3_0' is not an integer"),
        (3, "4_1: crossings -4 is negative"),
        (4, "5_1: crossings '\uff15' is not an integer"),
        (6, "6_1: tau '1.0' is not an integer"),
    ]


def test_even_determinant_rejected_with_row_number():
    rep = parse_knot_csv_text(HEADER + "good,3,1,-2,3,1,\nbad,4,1,0,4,0,\n")
    assert len(rep.rows) == 1
    assert rep.rejected and rep.rejected[0][0] == 3
    assert "not odd positive" in rep.rejected[0][1]


def test_non_alternating_without_tau_not_census_eligible():
    rep = parse_knot_csv_text(HEADER + "8_19,8,0,-6,3,1,\n")
    row = rep.rows[0]
    assert not row.census_eligible
    entries = census([row])
    assert not entries[0].qualifies
    assert "thin path unavailable" in entries[0].reason


def test_non_alternating_with_explicit_tau_is_eligible():
    rep = parse_knot_csv_text(HEADER + "8_21,8,0,-2,15,0,1\n")
    assert rep.rows[0].census_eligible
    assert census_names(rep.rows) == ["8_21"]


def test_missing_required_column():
    with pytest.raises(ParseError, match="missing required column"):
        parse_knot_csv_text("name,crossings\nfoo,3\n")


def test_header_names_are_stripped_for_rows_too():
    rep = parse_knot_csv_text(
        "name, crossings,alternating,signature,determinant,arf\n"
        "3_1,3,1,-2,3,1\n")
    assert rep.rejected == []
    assert [(row.name, row.crossings) for row in rep.rows] == [("3_1", 3)]


def test_header_order_insensitive():
    text = ("determinant,arf,name,alternating,signature,crossings,tau\n"
            "5,1,4_1,1,0,4,\n")
    rep = parse_knot_csv_text(text)
    assert rep.rows[0].name == "4_1"
    assert rep.rows[0].determinant == 5


def test_census_stable_under_row_reordering():
    rep = bundled_table()
    forward = census_names(rep.rows, max_crossings=8)
    backward = census_names(list(reversed(rep.rows)), max_crossings=8)
    assert forward == backward == PAPER_LIST


def test_max_crossings_filter():
    names7 = census_names(bundled_table().rows, max_crossings=7)
    assert names7 == ["4_1", "5_2", "6_3", "7_4", "7_5", "7_7"]


@pytest.mark.parametrize("header, line, message", [
    (HEADER.replace(",tau", ""), "short,4", "row has 2 fields, the header 6"),
    (HEADER, "short,4", "row has 2 fields, the header 7"),
    (HEADER, "long,3,1,-2,3,1,,extra", "row has 8 fields, the header 7"),
], ids=["short, no tau column", "short", "long"])
def test_row_with_another_field_count_is_rejected(header, line, message):
    rep = parse_knot_csv_text(header + line + "\n")
    assert (rep.rows, rep.rejected) == ([], [(2, message)])
