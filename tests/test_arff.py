import math

import pytest

from frugalas.arff import ArffError, ArffRelation, Attribute, parse_arff, serialize_arff


def test_minimal_numeric_with_missing():
    rel = parse_arff("@relation t\n@attribute x numeric\n@data\n1.5\n?\n")
    assert rel.name == "t"
    assert len(rel.attributes) == 1
    assert rel.attributes[0].kind == "numeric"
    assert rel.rows == [(1.5,), (None,)]


def test_case_insensitive_directives_and_comments():
    text = "% header comment\n@RELATION demo\n@Attribute x NUMERIC\n@DATA\n% row comment\n2\n"
    rel = parse_arff(text)
    assert rel.rows == [(2.0,)]


def test_quoted_attribute_names():
    rel = parse_arff("@relation t\n@attribute 'a name' numeric\n@data\n1\n")
    assert rel.attributes[0].name == "a name"
    rel = parse_arff('@relation t\n@attribute "b name" string\n@data\nhello\n')
    assert rel.attributes[0].name == "b name"


def test_nominal_values_enforced():
    text = "@relation t\n@attribute s {a,b}\n@data\nc\n"
    with pytest.raises(ArffError) as err:
        parse_arff(text)
    assert err.value.line == 4
    assert "not in declared set" in str(err.value)


def test_row_arity_mismatch():
    text = "@relation t\n@attribute x numeric\n@attribute y numeric\n@data\n1\n"
    with pytest.raises(ArffError) as err:
        parse_arff(text)
    assert err.value.line == 5


def test_malformed_header():
    with pytest.raises(ArffError):
        parse_arff("@attribute x numeric\n@data\n1\n")
    with pytest.raises(ArffError):
        parse_arff("@relation t\n@attribute x funky\n@data\n1\n")
    with pytest.raises(ArffError):
        parse_arff("@relation t\n@attribute x numeric\n")  # no @data


@pytest.mark.parametrize(
    "header",
    ["@relation\n@attribute x numeric", "@relation t\n@attribute", "@relation t\n@attribute   "],
    ids=["relation", "attribute", "attribute-spaces"],
)
def test_a_directive_with_no_name_is_an_arff_error(header):
    with pytest.raises(ArffError, match="missing name"):
        parse_arff(header + "\n@data\n1\n")


def test_non_numeric_cell():
    with pytest.raises(ArffError):
        parse_arff("@relation t\n@attribute x numeric\n@data\nabc\n")


def test_round_trip():
    rel = ArffRelation(
        "round trip",
        [
            Attribute("num", "numeric"),
            Attribute("cat", "nominal", ("red", "green", "blue")),
            Attribute("txt", "string"),
        ],
        [
            (1.25, "red", "x"),
            (None, "green", "y"),
            (3.0, None, "z"),
            (-7.5, "blue", "long value"),
            (0.1, "red", None),
        ],
    )
    reparsed = parse_arff(serialize_arff(rel))
    assert reparsed.name == rel.name
    assert reparsed.attributes == rel.attributes
    assert reparsed.rows == rel.rows


def test_round_trip_of_parsed_relation():
    text = "@relation t\n@attribute x numeric\n@attribute s {a,b}\n@attribute n numeric\n@data\n1,a,2\n?,b,3\n4,a,?\n5,b,6\n7,a,8\n"
    rel = parse_arff(text)
    again = parse_arff(serialize_arff(rel))
    assert again.name == rel.name
    assert again.attributes == rel.attributes
    assert again.rows == rel.rows


def _relation(*cells, kind="string", values=None, name="r"):
    """A relation of one `kind` column `c` beside a numeric `x`, one row per cell."""
    attrs = [Attribute("c", kind, values), Attribute("x", "numeric")]
    return ArffRelation(name, attrs, [(c, 1.0) for c in cells])


def _nan_safe(rows):
    return [tuple("NaN" if v != v else v for v in row) for row in rows]


@pytest.mark.parametrize(
    "rel",
    [
        _relation("a", "long value", " padded ", None, "it's", "", "50%", name="round trip"),
        _relation("red", "dark blue", kind="nominal", values=("red", "dark blue", "")),
        ArffRelation("nan", [Attribute("x", "numeric")], [(math.nan,), (-0.0,), (1e300,)]),
        ArffRelation("r", [Attribute("a,b", "numeric"), Attribute("it's", "string")], [(1.5, "s")]),
        ArffRelation("a,b", [Attribute("x", "numeric")], []),
    ],
    ids=["strings", "nominal", "numbers", "names", "comma-name"],
)
def test_accepted_relations_round_trip_exactly(rel):
    back = parse_arff(serialize_arff(rel))
    assert back.name == rel.name
    assert back.attributes == rel.attributes
    assert _nan_safe(back.rows) == _nan_safe(rel.rows)


@pytest.mark.parametrize(
    "rel, message",
    [
        (ArffRelation("r", [Attribute("instance_id", "string"), Attribute("x", "numeric")],
                      [("a,b", 1.0)]), "'a,b'"),
        (_relation("a,b", kind="nominal", values=("a,b",)), "a,b"),
        (_relation("?"), "'\\?'"),
        (_relation("'quoted'"), "quoted"),
        (_relation("two\nlines"), "two"),
        (_relation("%comment"), "%comment"),
        (ArffRelation("r", [Attribute("c", "string")], [("",)]), "row"),
        (_relation(3), "3"),
        (_relation(kind="nominal", values=()), "nominal"),
        (ArffRelation("r", [Attribute("x", "numeric")], [(1.0, 2.0)]), "row"),
        (ArffRelation("r", [Attribute("x", "real")], []), "real"),
        (ArffRelation("r", [Attribute("it's here", "numeric")], []), "it's here"),
        (ArffRelation("it's here", [Attribute("x", "numeric")], []), "'it'"),
        (ArffRelation("", [Attribute("x", "numeric")], []), "name"),
    ],
    ids=["comma-cell", "comma-nominal", "question-mark", "quotes", "newline", "percent-first",
         "empty-first", "non-string", "empty-nominal-set", "extra-cell", "real-kind",
         "quote-in-quoted-name", "quote-in-relation-name", "empty-name"],
)
def test_values_that_would_not_read_back_are_rejected(rel, message):
    with pytest.raises(ValueError, match=message):
        serialize_arff(rel)
