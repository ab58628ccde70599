import numpy as np
import pytest

from sidforge import sids
from sidforge.sids import Sid, SidCatalog, SidScheme, read_sid_file, write_sid_file


class TestSid:
    def test_render_joins_all_digits(self):
        assert Sid((1, 2, 3), (4, 5)).render() == "1,2,3,4,5"
        assert len(Sid((1, 2, 3), (4, 5))) == 5

    def test_digits_concatenates_parts(self):
        assert Sid((7,), (8, 9)).digits == (7, 8, 9)


class TestSidScheme:
    def test_parse_splits_parts(self):
        scheme = SidScheme((10, 10, 10), (5, 5))
        sid = scheme.parse("1,2,3,4,0")
        assert sid.rq == (1, 2, 3)
        assert sid.opq == (4, 0)

    def test_parse_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="expected 3"):
            SidScheme((4, 4, 4)).parse("1,2")

    @pytest.mark.parametrize("text", ["1,2", "1,2,9", "1,x,2", ""])
    def test_bad_text_raises_every_time_and_is_never_stored(self, text):
        scheme = SidScheme((4, 4, 4))
        for _ in range(3):
            with pytest.raises(ValueError):
                scheme.parse(text)
        assert text not in scheme._parsed

    @pytest.mark.parametrize("text", ["01,2,3", "+1,2,3", " 1,2,3", "1,2,3 ", "1,2,1_0",
                                      "\u0663,2,3", "-0,2,3"])
    def test_only_the_rendered_spelling_parses(self, text):
        scheme = SidScheme((16, 16, 16))
        with pytest.raises(ValueError, match="canonical"):
            scheme.parse(text)
        assert text not in scheme._parsed
        assert scheme.parse("1,2,3").render() == "1,2,3"

    def test_memo_hit_equals_fresh_parse(self):
        scheme = SidScheme((10, 10, 10), (5, 5))
        first = scheme.parse("1,2,3,4,0")
        assert "1,2,3,4,0" in scheme._parsed
        hit = scheme.parse("1,2,3,4,0")
        fresh = SidScheme((10, 10, 10), (5, 5)).parse("1,2,3,4,0")
        assert hit == first == fresh == Sid((1, 2, 3), (4, 0))

    def test_memo_stays_out_of_eq_hash_and_repr(self):
        used, unused = SidScheme((4, 4), (3,)), SidScheme((4, 4), (3,))
        for text in ("0,1,2", "3,3,0", "0,1,2"):
            used.parse(text)
        assert used._parsed and not unused._parsed
        assert used == unused
        assert hash(used) == hash(unused)
        assert repr(used) == repr(unused)
        assert {used: 1}[unused] == 1

    def test_memo_stops_growing_at_its_cap(self, monkeypatch):
        monkeypatch.setattr(sids, "_PARSE_MEMO_CAP", 4)
        scheme = SidScheme((10, 10))
        texts = [f"{a},{b}" for a in range(3) for b in range(3)]
        for text in texts:
            scheme.parse(text)
        assert list(scheme._parsed) == texts[:4]
        # texts past the cap still parse, fresh each time
        assert [scheme.parse(t) for t in texts] == [Sid((a, b)) for a in range(3) for b in range(3)]
        assert len(scheme._parsed) == 4

    def test_validate_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            SidScheme((4,)).validate(Sid((4,)))

    def test_positive_sizes_required(self):
        with pytest.raises(ValueError):
            SidScheme((0,))
        with pytest.raises(ValueError):
            SidScheme(())


class TestSidFileIO:
    def test_round_trip(self, tmp_path):
        scheme = SidScheme((8, 8), (4,))
        entries = {"a": Sid((1, 2), (3,)), "b": Sid((0, 7), (0,))}
        path = tmp_path / "sids.tsv"
        write_sid_file(path, entries.items())
        loaded = read_sid_file(path, scheme)
        assert loaded.entries == entries
        assert path.read_text() == "a\t1,2,3\nb\t0,7,0\n"

    def test_catalog_validates_on_build(self):
        with pytest.raises(ValueError):
            SidCatalog({"a": Sid((9,), ())}, SidScheme((4,)))

    def test_float_digit_rejected(self):
        # written as "a\t1.5,2,1", a file read_sid_file would refuse
        with pytest.raises(ValueError, match="code 1.5 at position 0 is not an integer"):
            SidCatalog({"a": Sid((1.5, 2), (1,))}, SidScheme((4, 4), (2,)))

    def test_bool_digit_rejected(self):
        # written as "a\tTrue,2,1"
        with pytest.raises(ValueError, match="code True at position 0 is not an integer"):
            SidCatalog({"a": Sid((True, 2), (1,))}, SidScheme((4, 4), (2,)))

    def test_numpy_integer_digits_accepted(self, tmp_path):
        scheme = SidScheme((4, 4), (2,))
        sid = Sid((np.int64(1), np.int32(2)), (np.uint8(1),))
        path = tmp_path / "t.sids"
        write_sid_file(path, SidCatalog({"a": sid}, scheme))
        assert read_sid_file(path, scheme).entries == {"a": Sid((1, 2), (1,))}
