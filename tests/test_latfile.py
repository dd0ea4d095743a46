import pytest

from subloc import parse_lattice, serialize_lattice
from subloc.corpus import gen_boolean, gen_chain

B2_TEXT = "lattice 4\nbottom 0\ntop 3\n0 < 1\n0 < 2\n1 < 3\n2 < 3\n"


def test_parse_canonical_boolean():
    assert parse_lattice(B2_TEXT) == gen_boolean(2)


def test_serialize_is_canonical(b2):
    assert serialize_lattice(b2.lattice) == B2_TEXT


def test_roundtrip_on_corpus(corpus):
    for cf in corpus:
        lat = cf.frame.lattice
        text = serialize_lattice(lat)
        assert parse_lattice(text, strict=True) == lat
        assert serialize_lattice(parse_lattice(text)) == text


def test_comments_and_blank_lines_ignored():
    text = "# a comment\n\nlattice 2  # trailing\n\nbottom 0\ntop 1\n0 < 1\n"
    assert parse_lattice(text) == gen_chain(2)


def test_transitive_pairs_accepted():
    # redundant non-cover pairs are fine; closure normalizes them
    text = "lattice 3\n0 < 1\n1 < 2\n0 < 2\n"
    assert parse_lattice(text) == gen_chain(3)


def test_strict_requires_bottom_and_top():
    text = "lattice 2\n0 < 1\n"
    assert parse_lattice(text) == gen_chain(2)
    with pytest.raises(ValueError, match="strict"):
        parse_lattice(text, strict=True)


def test_strict_rejects_non_cover_pairs():
    text = "lattice 3\nbottom 0\ntop 2\n0 < 1\n1 < 2\n0 < 2\n"
    assert parse_lattice(text) == gen_chain(3)
    with pytest.raises(ValueError, match="line 6: 0 < 2 is not a covering pair"):
        parse_lattice(text, strict=True)


def test_declared_extremes_verified():
    with pytest.raises(ValueError, match="declared bottom"):
        parse_lattice("lattice 2\nbottom 1\n0 < 1\n")
    with pytest.raises(ValueError, match="declared top"):
        parse_lattice("lattice 2\ntop 0\n0 < 1\n")


def test_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 1"):
        parse_lattice("not a header\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_lattice("lattice 2\n0 <= 1\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_lattice("lattice 2\n0 < x\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_lattice("lattice 2\n1 < 1\n")


def test_missing_header_and_bad_counts():
    with pytest.raises(ValueError, match="header"):
        parse_lattice("# nothing\n")
    with pytest.raises(ValueError, match="positive"):
        parse_lattice("lattice 0\n")


def test_non_lattice_orders_rejected():
    with pytest.raises(ValueError, match="not a lattice"):
        parse_lattice("lattice 3\n0 < 1\n0 < 2\n")
    with pytest.raises(ValueError, match="not a lattice"):
        parse_lattice("lattice 4\n0 < 1\n")
    with pytest.raises(ValueError, match="outside"):
        parse_lattice("lattice 2\n0 < 5\n")
