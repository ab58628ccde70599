import numpy as np
import pytest

from sidforge.curriculum import (
    Session,
    TaskRecord,
    build_stage1,
    build_stage2,
    build_stage3,
    read_task_records,
    sliding_window,
    stage3_rows,
    write_task_records,
)
from sidforge.quantizer import fit_codebook
from sidforge.sids import Sid


@pytest.fixture(scope="module")
def cb():
    rng = np.random.default_rng(0)
    return fit_codebook(rng.normal(size=(50, 4)), (8, 8, 8), balanced_last=False,
                        opq_subspaces=2, opq_codes=8, seed=0)


def sid(*digits):
    return Sid(tuple(digits[:3]), tuple(digits[3:]))


class TestSlidingWindow:
    def test_three_items_wide_window(self):
        assert sliding_window(["a", "b", "c"], 5) == [
            ([], "a"), (["a"], "b"), (["a", "b"], "c"),
        ]

    def test_single_item(self):
        assert sliding_window(["a"], 3) == [([], "a")]

    def test_window_cap(self):
        out = sliding_window(["a", "b", "c", "d"], 2)
        assert out[-1] == (["b", "c"], "d")
        assert all(len(w) <= 2 for w, _ in out)

    def test_output_length_equals_input_length(self):
        for n in range(0, 9):
            assert len(sliding_window(list(range(n)), 3)) == n

    def test_windows_are_contiguous_suffixes(self):
        seq = list(range(10))
        for w, target in sliding_window(seq, 4):
            assert seq[target - len(w):target] == w

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            sliding_window(["a"], 0)


class TestStage1:
    TEXTS = {"i1": "red shirt", "i2": "blue shoe", "i3": "bare item"}
    SIDS = {"i1": sid(1, 2, 3, 4, 5), "i2": sid(2, 2, 2, 2, 2)}
    CATS = {"i1": "tops"}

    def test_full_metadata_gives_four_records(self):
        records, stats = build_stage1({"i1": self.TEXTS["i1"]}, self.SIDS, self.CATS)
        assert len(records) == 4
        tags = [r.task_tag for r in records]
        assert tags == ["text_to_sid", "sid_to_text", "text_to_category", "sid_to_category"]

    def test_missing_category_gives_two(self):
        records, _ = build_stage1({"i2": self.TEXTS["i2"]}, self.SIDS, self.CATS)
        assert len(records) == 2
        records, _ = build_stage1({"i1": self.TEXTS["i1"]}, self.SIDS, {"i1": "  "})  # blank
        assert len(records) == 2

    def test_missing_sid_skipped_with_counter(self):
        records, stats = build_stage1(self.TEXTS, self.SIDS, self.CATS)
        assert stats.skipped == 1
        assert stats.emitted == 2

    def test_text_to_sid_target_matches_lookup(self):
        records, _ = build_stage1({"i1": self.TEXTS["i1"]}, self.SIDS, self.CATS)
        by_tag = {r.task_tag: r for r in records}
        assert by_tag["text_to_sid"].target_tokens == (self.SIDS["i1"].render(),)
        assert by_tag["sid_to_text"].input_tokens == ("<T1b>", self.SIDS["i1"].render())
        assert by_tag["sid_to_text"].target_tokens == ("red", "shirt")


class TestStage2:
    SIDS = {"q1": sid(7, 7, 7, 7, 7), "i1": sid(1, 1, 1, 1, 1)}

    def test_one_pair_four_records(self):
        records, _ = build_stage2([("q1", "i1")], self.SIDS)
        assert len(records) == 4
        assert [r.task_tag for r in records] == [
            "query_to_item", "item_to_query", "qsid_to_isid", "isid_to_qsid",
        ]

    def test_empty_pairs(self):
        records, _ = build_stage2([], self.SIDS)
        assert records == []

    def test_targets_match_sid_catalog(self):
        records, _ = build_stage2([("q1", "i1")], self.SIDS)
        by_tag = {r.task_tag: r for r in records}
        assert by_tag["qsid_to_isid"].input_tokens == ("<T2c>", "7,7,7,7,7")
        assert by_tag["qsid_to_isid"].target_tokens == ("1,1,1,1,1",)
        assert by_tag["isid_to_qsid"].target_tokens == ("7,7,7,7,7",)

    def test_unknown_entity_skipped(self):
        records, stats = build_stage2([("q1", "nope")], self.SIDS)
        assert records == []
        assert stats.skipped == 1


class TestStage3:
    def session(self, clicks, clicked=None, **kw):
        clicked = clicked or (clicks[-1] if clicks else sid(1, 1, 1, 1, 1))
        return Session(
            session_id="s0",
            query_text="red shoes",
            query_sid=sid(2, 2, 2, 2, 2),
            clicked_sid=clicked,
            short_clicks=tuple(clicks),
            **kw,
        )

    def test_three_clicks_three_windowed_records(self, cb):
        clicks = [sid(1, 0, 0, 0, 0), sid(2, 0, 0, 0, 0), sid(3, 0, 0, 0, 0)]
        records, _ = build_stage3([self.session(clicks)], cb, max_window=5)
        assert len(records) == 3
        targets = [r.target_tokens[0] for r in records]
        assert targets == ["1,0,0,0,0", "2,0,0,0,0", "3,0,0,0,0"]

    def test_empty_history_single_cold_record(self, cb):
        records, _ = build_stage3([self.session([], clicked=sid(5, 5, 5, 5, 5))], cb)
        assert len(records) == 1
        assert records[0].target_tokens == ("5,5,5,5,5",)
        assert "i>" not in records[0].input_tokens

    def test_seven_clicks_window_capped_at_five(self, cb):
        clicks = [sid(i, 0, 0, 0, 0) for i in range(1, 8)]
        records, _ = build_stage3([self.session(clicks)], cb, max_window=5)
        assert len(records) == 7
        last = records[-1]
        click_tokens = [t for t in last.input_tokens
                        if t.count(",") == 4 and t.split(",")[1] == "0"]
        # tag token + 5-window of click SIDs feeding the final prediction
        assert [t.split(",")[0] for t in click_tokens][-5:] == ["2", "3", "4", "5", "6"]

    def test_clicked_item_appended_when_absent(self, cb):
        clicks = [sid(1, 0, 0, 0, 0)]
        records, _ = build_stage3(
            [self.session(clicks, clicked=sid(4, 4, 4, 4, 4))], cb
        )
        assert len(records) == 2
        assert records[-1].target_tokens == ("4,4,4,4,4",)

    def test_unencodable_session_skipped(self, cb):
        bad = Session("s1", "q", sid(2, 2, 2, 2, 2), Sid((200, 0, 0), (0, 0)))
        records, stats = build_stage3([bad], cb)
        assert records == []
        assert stats.skipped == 1

    def test_aggregate_ref_token_rides_along(self, cb):
        records, _ = build_stage3(
            [self.session([sid(1, 1, 1, 1, 1)], aggregate_ref="agg7")], cb
        )
        assert records[0].input_tokens[-1] == "agg:agg7"

    @pytest.mark.parametrize("ref", ["a b", "a\tb", " "])
    def test_aggregate_ref_holding_whitespace_rejected(self, cb, ref):
        with pytest.raises(ValueError, match="aggregate_ref must be one token without whitespace"):
            build_stage3([self.session([sid(1, 1, 1, 1, 1)], aggregate_ref=ref)], cb)

    @pytest.mark.parametrize("ref", ["", 7])
    def test_aggregate_ref_that_is_not_a_nonempty_string_rejected(self, cb, ref):
        with pytest.raises(ValueError, match="aggregate_ref must be one token without whitespace"):
            stage3_rows([self.session([sid(1, 1, 1, 1, 1)], aggregate_ref=ref)], cb)

    def test_codebook_without_five_digit_sids_rejected(self):
        rng = np.random.default_rng(0)
        short_cb = fit_codebook(rng.normal(size=(40, 4)), (8, 4), balanced_last=False,
                                opq_subspaces=1, opq_codes=4, seed=0)
        session = Session("s0", "red", Sid((1, 2), (3,)), Sid((0, 1), (2,)))
        with pytest.raises(ValueError, match="10 digits"):
            build_stage3([session], short_cb)


class TestRecordIO:
    def test_round_trip(self, tmp_path):
        records = [
            TaskRecord(1, "text_to_sid", ("<T1a>", "red", "shirt"), ("1,2,3,4,5",)),
            TaskRecord(2, "qsid_to_isid", ("<T2c>", "7,7,7,7,7"), ("1,1,1,1,1",)),
        ]
        path = tmp_path / "records.tsv"
        write_task_records(records, path)
        assert read_task_records(path) == records

    def test_stage1_and_stage2_records_read_back_as_written(self, tmp_path):
        """Categories and id fallbacks split into tokens as entity text does."""
        sids = {"i1": sid(1, 2, 3, 4, 5), "q 1": sid(7, 7, 7, 7, 7)}
        stage1, _ = build_stage1({"i1": "red  shirt"}, sids, {"i1": "home garden"})
        stage2, _ = build_stage2([("q 1", "i1")], sids)
        assert stage1[-1].target_tokens == ("home", "garden")
        assert stage2[0].input_tokens == ("<T2a>", "q", "1")
        path = tmp_path / "records.tsv"
        write_task_records(stage1 + stage2, path)
        assert read_task_records(path) == stage1 + stage2

    def test_record_counts_scale_with_cardinality(self):
        texts = {f"i{n}": f"item number {n}" for n in range(6)}
        sids = {f"i{n}": sid(n, n, n, n, n) for n in range(6)}
        cats = {f"i{n}": "c" for n in range(6)}
        records, _ = build_stage1(texts, sids, cats)
        assert len(records) == 4 * 6
        pairs = [(f"i{n}", f"i{(n + 1) % 6}") for n in range(6)]
        records2, _ = build_stage2(pairs, sids)
        assert len(records2) == 4 * 6
