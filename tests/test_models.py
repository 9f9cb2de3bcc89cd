"""Tests for the CommModel enum."""

import pytest

from repro import CommModel


class TestParse:
    def test_enum_passthrough(self):
        assert CommModel.parse(CommModel.STRICT_ONE_PORT) is CommModel.STRICT_ONE_PORT

    @pytest.mark.parametrize("text,expected", [
        ("overlap", CommModel.OVERLAP_ONE_PORT),
        ("strict", CommModel.STRICT_ONE_PORT),
        ("OVERLAP_ONE_PORT", CommModel.OVERLAP_ONE_PORT),
        ("Strict_One_Port", CommModel.STRICT_ONE_PORT),
        ("  overlap ", CommModel.OVERLAP_ONE_PORT),
    ])
    def test_strings(self, text, expected):
        assert CommModel.parse(text) is expected

    @pytest.mark.parametrize("member", list(CommModel))
    def test_every_spelling(self, member):
        """Value or name, in any case, with surrounding whitespace."""
        for word in (member.value, member.name):
            for spelling in (word, word.lower(), word.upper(), word.title()):
                for padded in (spelling, f" {spelling}", f"{spelling}\t\n"):
                    assert CommModel.parse(padded) is member

    @pytest.mark.parametrize("bad", ["overlap-one-port", "", "strict one port", 42, None])
    def test_error_text(self, bad):
        with pytest.raises(ValueError) as err:
            CommModel.parse(bad)
        assert str(err.value) == (
            f"unknown communication model {bad!r}; expected one of "
            f"['overlap', 'strict']"
        )

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            CommModel.parse("full-duplex")
        with pytest.raises(ValueError):
            CommModel.parse(42)

    def test_overlap_flag(self):
        assert CommModel.OVERLAP_ONE_PORT.overlap
        assert not CommModel.STRICT_ONE_PORT.overlap

    def test_str(self):
        assert str(CommModel.OVERLAP_ONE_PORT) == "overlap"
