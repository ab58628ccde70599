"""Every text input goes through one reader: a malformed line raises
``ValueError`` starting with ``path:line``, a malformed file one starting
with the path, and valid files read as before. Every text output goes
through one writer: what it writes reads back as written, and a field the
reader would split raises ``ValueError`` starting with ``path:record``."""

import base64
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidforge import cli
from sidforge._records import write_records
from sidforge.curriculum import (
    TASK_TAGS,
    StageStats,
    TaskRecord,
    read_stage3_codes,
    read_task_records,
    write_task_records,
)
from sidforge.embedding import (
    PAIR_KINDS,
    Catalog,
    PairRecord,
    load_catalog,
    read_pairs,
    save_catalog,
    write_pairs,
)
from sidforge.generator import CooccurrenceScorer
from sidforge.quantizer import fit_codebook, load_codebook, save_codebook
from sidforge.reward import (
    PreferenceList,
    read_interactions,
    read_preference_lists,
    write_preference_lists,
)
from sidforge.sids import Sid, SidScheme, read_sid_file, read_sid_sequence, write_sid_file

SCHEME = SidScheme((4, 4), (3,))
ITEM_SIDS = {"i1": SCHEME.parse("1,2,0"), "i2": SCHEME.parse("3,0,2")}
# the SIDs as the session reader takes them: rows of ITEM_SIDS' SIDs, query texts
ITEM_ROWS = {"i1": 0, "i2": 1}
QUERY_TEXTS = {"q1": "0,1,1"}
PROMPT = "<T3> [BOS] 0,1,2,3,0 1,1,1,1,1 [SEP] red [SEP] 0,1,1 [SEP] i> 3,0,2 [EOS]"
# a stage-3 record under a (4, 4, 4)+(3, 3) scheme, whose user ids are range-checked
PROMPT5 = "<T3> [BOS] 3,3,3,2,2 0,1,1,1,0 [SEP] red [SEP] 0,1,1,0,2 [SEP] i> 3,0,2,1,1 [EOS]"
STAGE3_SHAPE = "stage 3 needs a personalization <T3> prompt and one target SID"
VEC = base64.b64encode(np.array([1.0, -2.0], dtype="<f4").tobytes()).decode("ascii")


def _read_sessions(path):
    return list(cli._read_sessions(str(path), ITEM_ROWS, QUERY_TEXTS, StageStats()))


def _save_scheme_codebook(path):
    """A tiny codebook file of SCHEME, the scheme source of ``curriculum``."""
    rng = np.random.default_rng(0)
    catalog = Catalog([f"i{i}" for i in range(16)], rng.normal(size=(16, 4)))
    codebook = fit_codebook(catalog, level_sizes=SCHEME.rq_sizes, opq_subspaces=1,
                            opq_codes=SCHEME.opq_sizes[0], iters=2, opq_outer_iters=1, seed=0)
    assert codebook.scheme == SCHEME
    save_codebook(codebook, path)
    return str(path)


def _cli_reader(tmp, argv_for):
    """A reader that runs one CLI command on the file under test."""
    def read(path):
        return cli.main(argv_for(str(path), str(tmp / "out")))
    return read


@pytest.fixture(scope="module")
def readers(tmp_path_factory):
    """name -> (read(path), valid lines), covering each text format."""
    tmp = tmp_path_factory.mktemp("readers")
    (tmp / "empty.jsonl").write_text("")
    (tmp / "items.sids").write_text("i1\t1,2,0\ni2\t3,0,2\n")
    codebook = _save_scheme_codebook(tmp / "cb.bin")
    return {
        "sid_file": (lambda p: read_sid_file(p, SCHEME), ["i1\t1,2,0", "i2\t3,0,2"]),
        "sid_sequence": (lambda p: read_sid_sequence(p, SCHEME), ["i1\t1,2,0"]),
        "catalog": (load_catalog, ["dim=2", f"a\t{VEC}"]),
        "pairs": (read_pairs, ["a\tb\tq2i\t0.5"]),
        "interactions": (read_interactions, ["q1\ti1\t3\t100\t40\t5"]),
        "preference_lists": (read_preference_lists,
                             ['{"context":"q","winner":"w","losers":["l"],"deltas":[0.5]}']),
        "task_records": (read_task_records, ["3\tpersonalization\t<T3> a b\t1,2,0"]),
        "stage3_codes": (lambda p: read_stage3_codes(p, SCHEME),
                         [f"3\tpersonalization\t{PROMPT} agg:a1\t1,2,0",
                          "1\ttext_to_sid\t<T1a> red\t1,2,0"]),
        "click_stats": (lambda p: cli._read_click_stats(str(p), SCHEME), ["q1\ti1\t1,2,0\t7"]),
        "reranks": (lambda p: cli._read_reranks(str(p)), ["q1\ta,b\tb,a"]),
        "logprobs": (_cli_reader(tmp, lambda p, out: [
            "dpo-eval", "--lists", str(tmp / "empty.jsonl"), "--logprobs", p, "--out", out]),
            ["q\tw\t-1.0\t-1.5"]),
        "tsv_map": (lambda p: cli._read_tsv_map(str(p)), ["i1\tred\tshoe"]),
        "stage2_pairs": (_cli_reader(tmp, lambda p, out: [
            "curriculum", "--stage", "2", "--pairs", p, "--sids", str(tmp / "items.sids"),
            "--codebook", codebook, "--out", out]), ["i1\ti2"]),
        "sessions": (_read_sessions,
                     ['{"session_id":"s","query_id":"q1","clicked_item":"i1"}']),
        "cases": (lambda p: cli._read_cases(str(p), SCHEME),
                  ['{"context":"1,2,0","truth":["i1"]}']),
    }


READER_NAMES = ["sid_file", "sid_sequence", "catalog", "pairs", "interactions",
                "preference_lists", "task_records", "stage3_codes", "click_stats", "reranks", "logprobs",
                "tsv_map", "stage2_pairs", "sessions", "cases"]


def _raises_at(read, path, where):
    with pytest.raises(ValueError) as info:
        read(path)
    assert str(info.value).startswith(f"{where}: "), str(info.value)
    return str(info.value)


class TestEveryReader:
    def test_names_cover_fixture(self, readers):
        assert sorted(readers) == sorted(READER_NAMES)

    @pytest.mark.parametrize("name", READER_NAMES)
    def test_valid_lines_parse(self, readers, tmp_path, name):
        read, valid = readers[name]
        path = tmp_path / "in.txt"
        path.write_text("\n".join(valid) + "\n")
        read(path)

    @pytest.mark.parametrize("name", READER_NAMES)
    def test_invalid_utf8_names_the_path(self, readers, tmp_path, name):
        read, valid = readers[name]
        path = tmp_path / "in.txt"
        path.write_bytes(("\n".join(valid) + "\n").encode() + b"\xff\xfe\n")
        assert "UTF-8" in _raises_at(read, path, path)

    @pytest.mark.parametrize("name", READER_NAMES)
    def test_bad_line_names_path_and_line(self, readers, tmp_path, name):
        read, valid = readers[name]
        path = tmp_path / "in.txt"
        path.write_text("\n".join(valid) + "\n\n{\n")  # a blank line, then a bad one
        _raises_at(read, path, f"{path}:{len(valid) + 2}")


JSON_KEYS = ["context", "winner", "losers", "deltas", "session_id", "query_id",
             "clicked_item", "short_clicks", "long_clicks", "recent_queries", "aggregate_ref",
             "query_text", "truth"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | st.sampled_from(["i1", "q1", "w", "1,2,0", "x", ""]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["a", "i1"]), inner, max_size=2),
    max_leaves=6)
CHARS = "\t,{}[]:\"0123456789abciq=-. "
random_line = st.one_of(
    st.text(alphabet=CHARS, max_size=30),
    st.lists(st.text(alphabet=CHARS.replace("\t", ""), max_size=8),
             min_size=1, max_size=7).map("\t".join),
    st.dictionaries(st.sampled_from(JSON_KEYS), json_values, max_size=5).map(json.dumps),
)


def test_lazy_reader_yields_records_before_a_later_fault(tmp_path):
    from sidforge._records import iter_records, read_records

    path = tmp_path / "in.tsv"
    path.write_text("a\tb\n\nc\n")
    records = iter_records(path, lambda left, right: left + right, fields=2)
    assert next(records) == "ab"
    assert _raises_at(lambda p: next(records), path, f"{path}:3") == \
        _raises_at(lambda p: read_records(p, lambda left, right: left, fields=2), path,
                   f"{path}:3") == f"{path}:3: expected 2 fields, got 1"


class TestFuzz:
    @pytest.mark.parametrize("name", READER_NAMES)
    @settings(max_examples=40, deadline=None, database=None)
    @given(data=st.data())
    def test_parse_or_value_error_naming_path(self, readers, tmp_path_factory, name, data):
        read, valid = readers[name]
        lines = data.draw(st.lists(st.one_of(random_line, st.sampled_from(valid)), max_size=6))
        path = tmp_path_factory.getbasetemp() / f"fuzz_{name}.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            read(path)
        except ValueError as exc:
            assert str(exc).startswith(str(path)), str(exc)

    @settings(max_examples=80, deadline=None, database=None)
    @given(payload=st.dictionaries(st.sampled_from(["rq_sizes", "opq_sizes", "counts"]),
                                   json_values | st.dictionaries(
                                       st.sampled_from(["0,1,-1,2", "0,1", "x,1,2,3"]),
                                       json_values, max_size=3), max_size=3)
           | st.text(alphabet=CHARS, max_size=20))
    def test_scorer_load(self, tmp_path_factory, payload):
        path = tmp_path_factory.getbasetemp() / "fuzz_scorer.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        try:
            CooccurrenceScorer.load(path)
        except ValueError as exc:
            assert str(exc).startswith(str(path)), str(exc)


class TestMalformedLines:
    """Each case failed without the path, or did not fail at all, before
    every reader went through one helper."""

    def test_sid_sequence_three_fields(self, tmp_path):
        path = tmp_path / "seq.sids"
        path.write_text("i1\t1,2,0\ni2\t3,0,2\textra\n")
        _raises_at(lambda p: read_sid_sequence(p, SCHEME), path, f"{path}:2")

    def test_sid_file_bad_digit(self, tmp_path):
        path = tmp_path / "items.sids"
        path.write_text("i1\t1,2,0\n\ni2\t3,x,2\n")
        assert "invalid literal" in _raises_at(lambda p: read_sid_file(p, SCHEME), path,
                                               f"{path}:3")

    def test_task_records_too_few_fields(self, tmp_path):
        path = tmp_path / "stage3.tsv"
        path.write_text("3\tpersonalization\t<T3> a\n")
        assert "expected 4 fields, got 3" in _raises_at(read_task_records, path, f"{path}:1")

    def test_fit_scorer_malformed_prompt_names_path_and_line(self, tmp_path):
        path = tmp_path / "stage3.tsv"
        path.write_text(f"3\tpersonalization\t{PROMPT}\t1,2,0\n\n"
                        "3\tpersonalization\t<T3> [BOS] 0,1,2,3,0 1,1,1,1,1 [SEP] 0,1,1 [EOS]"
                        "\t1,2,0\n")
        read = _cli_reader(tmp_path, lambda p, out: [
            "fit-scorer", "--records", p, "--levels", "4,4", "--opq", "1x3", "--out", out])
        assert "expected at least 3 segments, got 2" in _raises_at(read, path, f"{path}:3")

    @pytest.mark.parametrize("line, message", [
        ("4\tpersonalization\t<T3> a\t1,2,0", "stage must be 1, 2 or 3"),
        ("1\tno_such_task\t<T1a> red\t1,2,0", "unknown task tag"),
        (f"3\tpersonalization\t{PROMPT}\t1,2,3", "code 3 at position 2"),
        (f"3\tpersonalization\t{PROMPT.replace('0,1,1', '0,1')}\t1,2,0", "expected 3 digits"),
        (f"3\tpersonalization\t{PROMPT.replace('3,0,2', '3,0,x')}\t1,2,0", "invalid literal"),
        (f"3\tquery_to_item\t{PROMPT}\t1,2,0", STAGE3_SHAPE),
        (f"3\tpersonalization\t{PROMPT.replace('<T3>', '<T1a>')}\t1,2,0", STAGE3_SHAPE),
        (f"3\tpersonalization\t{PROMPT.replace('<T3> ', '')}\t1,2,0", STAGE3_SHAPE),
        (f"3\tpersonalization\t{PROMPT.replace('<T3>', '<T3x>')}\t1,2,0", STAGE3_SHAPE),
        (f"3\tpersonalization\t{PROMPT.replace('<T3>', '<T1a>')}\t1,2,0 junk extra",
         STAGE3_SHAPE),
        (f"3\tpersonalization\t{PROMPT}\t1,2,0 1,2,0", STAGE3_SHAPE),
    ])
    def test_stage3_codes_bad_record(self, tmp_path, line, message):
        path = tmp_path / "stage3.tsv"
        path.write_text(f"3\tpersonalization\t{PROMPT}\t1,2,0\n{line}\n")
        assert message in _raises_at(lambda p: read_stage3_codes(p, SCHEME), path, f"{path}:2")

    @pytest.mark.parametrize("old, new, message", [
        ("<T3> [BOS] ", "<T3> ", "bracketed by [BOS] ... [EOS]"),
        ("0,1,2,3,0 1,1,1,1,1", "0,1,2,3,0", "exactly two code groups"),
        ("[SEP] 0,1,1", "[SEP] 0,1,1 0,1,1", "exactly one SID"),
        ("[SEP] i>", "[SEP] [SEP] i>", "empty segment between separators"),
        ("i> 3,0,2", "x> 3,0,2", "unknown history segment tag 'x>'"),
    ])
    def test_stage3_codes_bad_prompt(self, tmp_path, old, new, message):
        path = tmp_path / "stage3.tsv"
        path.write_text(f"3\tpersonalization\t{PROMPT}\t1,2,0\n\n"
                        f"3\tpersonalization\t{PROMPT.replace(old, new)}\t1,2,0\n")
        assert message in _raises_at(lambda p: read_stage3_codes(p, SCHEME), path, f"{path}:3")

    @pytest.mark.parametrize("user", ["1,2,3 1,2,3,3,2,1,0", "1,2,3,3,2,1,0 1,2,3"])
    def test_fit_scorer_user_id_not_five_plus_five_digits(self, tmp_path, user):
        path = tmp_path / "stage3.tsv"
        path.write_text(f"3\tpersonalization\t{PROMPT.replace('0,1,2,3,0 1,1,1,1,1', user)}"
                        "\t1,2,0\n")
        read = _cli_reader(tmp_path, lambda p, out: [
            "fit-scorer", "--records", p, "--levels", "4,4", "--opq", "1x3", "--out", out])
        assert "10 digits (5 short + 5 long)" in _raises_at(read, path, f"{path}:1")

    @pytest.mark.parametrize("scheme, line, message", [
        (("4,4", "1x3"), PROMPT.replace("0,1,2,3,0", "01,+1,2,3,0"),
         "user id group '01,+1,2,3,0' is not in canonical form"),
        (("4,4", "1x3"), PROMPT.replace("1,1,1,1,1", "1,1,-1,1,1"),
         "user id group '1,1,-1,1,1' is not in canonical form"),
        (("4,4", "1x3"), PROMPT.replace("1,1,1,1,1", "1,1,1,1,-0"),
         "user id group '1,1,1,1,-0' is not in canonical form"),
        (("4,4,4", "2x3"), PROMPT5.replace("0,1,1,1,0", "99,1,1,1,1"),
         "code 99 at position 0 outside [0, 4)"),
        (("4,4,4", "2x3"), PROMPT5.replace("3,3,3,2,2", "3,3,3,3,2"),
         "code 3 at position 3 outside [0, 3)"),
        (("4,4,4", "2x3"), PROMPT5.replace("3,3,3,2,2", "3,03,3,2,2"),
         "SID '3,03,3,2,2' is not in canonical form '3,3,3,2,2'"),
    ], ids=["leading_zero_and_sign", "negative", "negative_zero", "long_part_out_of_range",
            "short_part_out_of_range", "leading_zero_under_five_positions"])
    def test_fit_scorer_user_id_spelled_and_in_range(self, tmp_path, scheme, line, message):
        path = tmp_path / "stage3.tsv"
        valid, target = (PROMPT, "1,2,0") if scheme[0] == "4,4" else (PROMPT5, "1,2,0,0,1")
        path.write_text(f"3\tpersonalization\t{valid}\t{target}\n"
                        f"3\tpersonalization\t{line}\t{target}\n")
        read = _cli_reader(tmp_path, lambda p, out: [
            "fit-scorer", "--records", p, "--levels", scheme[0], "--opq", scheme[1], "--out", out])
        assert message in _raises_at(read, path, f"{path}:2")

    def test_fit_scorer_reads_in_range_user_ids_of_a_five_position_scheme(self, tmp_path):
        path = tmp_path / "stage3.tsv"
        path.write_text(f"3\tpersonalization\t{PROMPT5}\t1,2,0,0,1\n")
        out = tmp_path / "scorer.json"
        assert cli.main(["fit-scorer", "--records", str(path), "--levels", "4,4,4",
                         "--opq", "2x3", "--out", str(out)]) == 0
        codes = read_stage3_codes(path, SidScheme((4, 4, 4), (3, 3)))
        assert codes.tolist() == [[0, 1, 2, 0, 0, 1]]

    def test_fit_scorer_without_stage3_records_names_the_path(self, tmp_path):
        path = tmp_path / "stage1.tsv"
        path.write_text("1\ttext_to_sid\t<T1a> red\t1,2,0\n")
        read = _cli_reader(tmp_path, lambda p, out: [
            "fit-scorer", "--records", p, "--levels", "4,4", "--opq", "1x3", "--out", out])
        assert "no stage-3 records" in _raises_at(read, path, path)

    def test_preference_list_missing_winner(self, tmp_path):
        path = tmp_path / "lists.jsonl"
        path.write_text('{"context":"q","losers":["l"],"deltas":[0.5]}\n')
        assert "missing key 'winner'" in _raises_at(read_preference_lists, path, f"{path}:1")

    def test_interaction_bad_level(self, tmp_path):
        path = tmp_path / "inter.tsv"
        path.write_text("q1\ti1\tx\t1\t1\t1\n")
        _raises_at(read_interactions, path, f"{path}:1")

    def test_reranks_wrong_field_count(self, tmp_path):
        path = tmp_path / "reranks.tsv"
        path.write_text("q1\ta,b\n")
        _raises_at(cli._read_reranks, str(path), f"{path}:1")

    def test_click_stats_wrong_field_count(self, tmp_path):
        path = tmp_path / "defaults.tsv"
        path.write_text("q1\ti1\t1,2,0\t7\nq1\ti2\t3,0,2\n")
        _raises_at(lambda p: cli._read_click_stats(p, SCHEME), str(path), f"{path}:2")

    def test_tsv_map_without_tab(self, tmp_path):
        path = tmp_path / "texts.tsv"
        path.write_text("i1\tred shoe\ni2 blue hat\n")
        _raises_at(cli._read_tsv_map, str(path), f"{path}:2")

    def test_logprobs_wrong_field_count(self, tmp_path):
        (tmp_path / "lists.jsonl").write_text("")
        path = tmp_path / "logprobs.tsv"
        path.write_text("q\tw\t-1.0\n")
        _raises_at(lambda p: cli.main(["dpo-eval", "--lists", str(tmp_path / "lists.jsonl"),
                                       "--logprobs", p]), str(path), f"{path}:1")

    def test_stage2_pairs_wrong_field_count(self, tmp_path):
        (tmp_path / "items.sids").write_text("i1\t1,2,0\n")
        path = tmp_path / "pairs.tsv"
        path.write_text("i1\n")
        codebook = _save_scheme_codebook(tmp_path / "cb.bin")
        _raises_at(lambda p: cli.main([
            "curriculum", "--stage", "2", "--pairs", p, "--sids", str(tmp_path / "items.sids"),
            "--codebook", codebook, "--out", str(tmp_path / "out.tsv")]),
            str(path), f"{path}:1")

    @pytest.mark.parametrize("ref", ["a b", "a\u00a0b", "", 7, ["a"]])
    def test_session_aggregate_ref_that_is_not_one_token(self, tmp_path, ref):
        path = tmp_path / "sessions.jsonl"
        path.write_text(json.dumps({"session_id": "s", "query_id": "q1", "clicked_item": "i1",
                                    "aggregate_ref": ref}) + "\n")
        message = _raises_at(_read_sessions,
                             str(path), f"{path}:1")
        assert "aggregate_ref" in message

    @pytest.mark.parametrize("key", ["session_id", "query_id", "clicked_item"])
    def test_session_missing_required_key(self, tmp_path, key):
        obj = {"session_id": "s", "query_id": "q1", "clicked_item": "i1"}
        del obj[key]
        path = tmp_path / "sessions.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        message = _raises_at(_read_sessions,
                             str(path), f"{path}:1")
        assert f"missing key '{key}'" in message

    @pytest.mark.parametrize("key", ["session_id", "query_id", "clicked_item"])
    def test_session_id_that_is_not_a_string(self, tmp_path, key):
        # a number finds no SID, so the session would be dropped uncounted
        obj = {"session_id": "s", "query_id": "q1", "query_text": "q1", "clicked_item": "i1"}
        obj[key] = 7
        path = tmp_path / "sessions.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        assert "expected an id string, got 7" in _raises_at(_read_sessions, str(path), f"{path}:1")

    def test_case_missing_context(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        path.write_text('{"truth":["i1"]}\n')
        _raises_at(lambda p: cli._read_cases(p, SCHEME), str(path), f"{path}:1")

    def test_generate_context_file_not_utf8(self, tmp_path):
        (tmp_path / "items.sids").write_text("i1\t1,2,0\n")
        scorer = tmp_path / "scorer.json"
        scorer.write_text(json.dumps({"rq_sizes": [4, 4], "opq_sizes": [3], "counts": {}}))
        path = tmp_path / "prompt.txt"
        path.write_bytes(b"\xff\xfe")
        assert "not UTF-8" in _raises_at(lambda p: cli.main([
            "generate", "--trie-from", str(tmp_path / "items.sids"), "--levels", "4,4",
            "--opq", "1x3", "--scorer", str(scorer), "--context", p]), str(path), path)

    @pytest.mark.parametrize("old, new, detail", [
        (" [EOS]", "", "bracketed by [BOS] ... [EOS]"),
        ("0,1,1 [SEP]", "0,1,1 0,1,1 [SEP]", "exactly one SID"),
        ("i> 3,0,2", "i> 3,0,9", "code 9 at position 2 outside [0, 3)"),
        (PROMPT, "", "bracketed by [BOS] ... [EOS]"),
    ], ids=["unbracketed", "two_query_sids", "digit_out_of_range", "empty"])
    def test_generate_malformed_prompt_file(self, tmp_path, old, new, detail):
        text = PROMPT.replace(old, new).removeprefix("<T3> ")
        (tmp_path / "items.sids").write_text("i1\t1,2,0\n")
        scorer = tmp_path / "scorer.json"
        scorer.write_text(json.dumps({"rq_sizes": [4, 4], "opq_sizes": [3], "counts": {}}))
        path = tmp_path / "prompt.txt"
        path.write_text(text + "\n")
        out = tmp_path / "gen.tsv"
        assert detail in _raises_at(lambda p: cli.main([
            "generate", "--trie-from", str(tmp_path / "items.sids"), "--levels", "4,4",
            "--opq", "1x3", "--scorer", str(scorer), "--context", p, "--out", str(out)]),
            str(path), path)
        assert not out.exists()

    @pytest.mark.parametrize("name, line", [
        ("preference_lists", '{"context":"q","winner":"w","losers":"ab","deltas":[0.5,0.5]}'),
        ("preference_lists", '{"context":"q","winner":"w","losers":[1],"deltas":[0.5]}'),
        ("cases", '{"context":"1,2,0","truth":"i1"}'),
        ("cases", '{"context":"1,2,0","truth":[["i1"]]}'),
        ("sessions", '{"session_id":"s","query_id":"q1","clicked_item":"i1","short_clicks":"i2"}'),
        ("sessions", '{"session_id":"s","query_id":"q1","clicked_item":"i1","long_clicks":"i2"}'),
        ("sessions", '{"session_id":"s","query_id":"q1","clicked_item":"i1","short_clicks":null}'),
        ("sessions", '{"session_id":"s","query_id":"q1","clicked_item":"i1",'
                     '"recent_queries":"q1"}'),
    ])
    def test_id_list_field_that_is_not_a_list_of_strings(self, readers, tmp_path, name, line):
        read, valid = readers[name]
        path = tmp_path / f"{name}.jsonl"
        path.write_text(valid[0] + "\n" + line + "\n")
        assert "list of id strings" in _raises_at(read, path, f"{path}:2")

    def test_json_line_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "lists.jsonl"
        path.write_text("[1, 2]\n")
        assert "JSON object" in _raises_at(read_preference_lists, path, f"{path}:1")

    @pytest.mark.parametrize("field, value, detail", [
        ("deltas", "12", "list of numbers"),
        ("deltas", [True], "list of numbers"),
        ("deltas", [0.5, "1"], "list of numbers"),
        ("context", 7, "expected an id string, got 7"),
        ("winner", 7, "expected an id string, got 7"),
    ])
    def test_preference_list_field_of_the_wrong_type(self, tmp_path, field, value, detail):
        obj = {"context": "q", "winner": "w", "losers": ["l", "m"], "deltas": [0.5, 1.0]}
        path = tmp_path / "lists.jsonl"
        path.write_text(json.dumps(obj) + "\n" + json.dumps(dict(obj, **{field: value})) + "\n")
        assert detail in _raises_at(read_preference_lists, path, f"{path}:2")

    def test_preference_list_integer_delta_beyond_float_range(self, tmp_path):
        path = tmp_path / "lists.jsonl"
        huge = "1" + "0" * 400
        path.write_text(f'{{"context":"q","winner":"w","losers":["l"],"deltas":[{huge}]}}\n')
        _raises_at(read_preference_lists, path, f"{path}:1")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_logprob_that_is_not_finite(self, tmp_path, value):
        lists = tmp_path / "lists.jsonl"
        lists.write_text('{"context":"q","winner":"w","losers":["l"],"deltas":[0.5]}\n')
        path = tmp_path / "logprobs.tsv"
        path.write_text(f"q\tl\t-1.0\t-1.5\nq\tw\t{value}\t-1.5\n")
        out = tmp_path / "dpo.tsv"
        assert "must be finite" in _raises_at(lambda p: cli.main([
            "dpo-eval", "--lists", str(lists), "--logprobs", p, "--out", str(out)]),
            str(path), f"{path}:2")
        assert not out.exists()

    def test_case_context_that_is_not_a_string(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        path.write_text('{"context":[1,2,0],"truth":["i1"]}\n')
        assert "comma-joined SID string" in _raises_at(lambda p: cli._read_cases(p, SCHEME),
                                                       str(path), f"{path}:1")


# spellings that int() reads as a digit but Sid.render never writes
NON_CANONICAL = ["01", "+1", " 1", "1 ", "1_0", "\u0663"]
WIDE = SidScheme((16, 16), (16,))


class TestOneSidSpelling:
    """A SID reads only as ``Sid.render`` writes it, wherever it appears."""

    @pytest.mark.parametrize("digit", NON_CANONICAL)
    def test_sid_file(self, tmp_path, digit):
        path = tmp_path / "items.sids"
        path.write_text(f"i1\t1,2,1\ni2\t1,2,{digit}\n", encoding="utf-8")
        assert "canonical" in _raises_at(lambda p: read_sid_file(p, WIDE), path, f"{path}:2")

    @pytest.mark.parametrize("digit", NON_CANONICAL)
    def test_eval_case_context(self, tmp_path, digit):
        path = tmp_path / "cases.jsonl"
        path.write_text("".join(json.dumps({"context": context, "truth": ["i1"]}) + "\n"
                                for context in ("1,2,1", f"1,2,{digit}")), encoding="utf-8")
        assert "canonical" in _raises_at(lambda p: cli._read_cases(p, WIDE), path, f"{path}:2")

    @pytest.mark.parametrize("digit", [d for d in NON_CANONICAL if d.strip() == d])
    def test_stage3_prompt(self, tmp_path, digit):
        path = tmp_path / "stage3.tsv"
        path.write_text(f"3\tpersonalization\t{PROMPT}\t1,2,0\n"
                        f"3\tpersonalization\t{PROMPT.replace('0,1,1', f'0,1,{digit}')}\t1,2,0\n",
                        encoding="utf-8")
        assert "canonical" in _raises_at(lambda p: read_stage3_codes(p, WIDE), path, f"{path}:2")

    def test_canonical_spelling_reads(self, tmp_path):
        path = tmp_path / "items.sids"
        path.write_text("i1\t1,2,1\ni2\t1,2,10\ni3\t1,2,3\n")
        assert [sid.render() for sid in read_sid_file(path, WIDE).sids()] == [
            "1,2,1", "1,2,10", "1,2,3"]


class TestCatalogFile:
    def test_non_base64_characters_rejected(self, tmp_path):
        path = tmp_path / "x.catalog"
        path.write_text(f"dim=2\na\t{VEC[:4]}!!{VEC[4:]}\n")
        _raises_at(load_catalog, path, f"{path}:2")

    def test_blob_not_a_whole_number_of_floats(self, tmp_path):
        path = tmp_path / "x.catalog"
        blob = base64.b64encode(b"\x00" * 5).decode("ascii")
        path.write_text(f"dim=2\na\t{VEC}\nb\t{blob}\n")
        assert "5 bytes" in _raises_at(load_catalog, path, f"{path}:3")

    def test_header_is_line_one(self, tmp_path):
        path = tmp_path / "x.catalog"
        path.write_text(f"\ndim=2\na\t{VEC}\n")
        _raises_at(load_catalog, path, f"{path}:1")

    def test_duplicate_ids_name_the_path(self, tmp_path):
        path = tmp_path / "x.catalog"
        path.write_text(f"dim=2\na\t{VEC}\na\t{VEC}\n")
        assert "duplicate" in _raises_at(load_catalog, path, path)

    def test_empty_catalog_names_the_path(self, tmp_path):
        path = tmp_path / "x.catalog"
        path.write_text("dim=2\n\n")
        _raises_at(load_catalog, path, path)


class TestWholeFileJson:
    @pytest.mark.parametrize("payload", [
        {"rq_sizes": [4], "opq_sizes": []},
        {"rq_sizes": [4], "opq_sizes": [], "counts": {"0,1": 3}},
        {"rq_sizes": [4], "opq_sizes": [], "counts": {"0,1,-1,2": "3"}},
        {"rq_sizes": [4], "opq_sizes": [], "counts": [1, 2]},
        '{"rq_sizes": [4',
        "[4]",
    ])
    def test_bad_scorer_file_names_the_path(self, tmp_path, payload):
        path = tmp_path / "scorer.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        _raises_at(CooccurrenceScorer.load, path, path)

    @pytest.mark.parametrize("key", [
        "3,1,0,0",    # pos past the scheme's length
        "-1,1,-1,0",  # negative pos
        "0,4,-1,0",   # q1 past the first level
        "0,-1,-1,0",  # negative q1
        "0,1,0,0",    # prev other than -1 at pos 0
        "1,1,-1,0",   # prev -1 after pos 0
        "1,1,4,0",    # prev past the previous position's codes
        "0,1,-1,99",  # digit past the position's codes
        "2,1,0,-1",   # negative digit
    ])
    def test_scorer_count_key_outside_scheme_names_the_path(self, tmp_path, key):
        path = tmp_path / "scorer.json"
        path.write_text(json.dumps({"rq_sizes": [4, 4], "opq_sizes": [3], "counts": {key: 1}}))
        assert "outside the scheme" in _raises_at(CooccurrenceScorer.load, path, path)

    @pytest.mark.parametrize("counts", [
        {"0,1,-1,02": 1},
        {"0,1,-1,+2": 1},
        {"0,1,-1, 2": 1},
        {"0,1,-1,2": 5, "0,1,-1,02": 1},  # two spellings of one slot digit
    ])
    def test_scorer_count_key_not_canonical_names_the_path(self, tmp_path, counts):
        path = tmp_path / "scorer.json"
        path.write_text(json.dumps({"rq_sizes": [4, 4], "opq_sizes": [3], "counts": counts}))
        assert "canonical" in _raises_at(CooccurrenceScorer.load, path, path)

    @pytest.mark.parametrize("payload, detail", [
        ({"rq_sizes": [4, 4], "opq_sizes": [3], "counts": {"0,1,-1,2": True}}, "count True"),
        ({"rq_sizes": [4, 4], "opq_sizes": [3], "counts": {"0,1,-1,2": False}}, "count False"),
        ({"rq_sizes": [4, True], "opq_sizes": [3], "counts": {}}, "rq_sizes"),
        ({"rq_sizes": [4, 4], "opq_sizes": [False], "counts": {}}, "opq_sizes"),
        ({"rq_sizes": [4.0, 4], "opq_sizes": [3], "counts": {}}, "rq_sizes"),
        ({"rq_sizes": "44", "opq_sizes": [3], "counts": {}}, "rq_sizes"),
        ({"rq_sizes": [4, 4], "opq_sizes": {"3": 3}, "counts": {}}, "opq_sizes"),
    ], ids=["count_true", "count_false", "bool_level", "bool_opq", "float_level",
            "string_levels", "object_opq"])
    def test_scorer_bool_or_non_int_numbers_name_the_path(self, tmp_path, payload, detail):
        path = tmp_path / "scorer.json"
        path.write_text(json.dumps(payload))
        assert detail in _raises_at(CooccurrenceScorer.load, path, path)

    def test_scorer_count_keys_inside_scheme_load(self, tmp_path):
        path = tmp_path / "scorer.json"
        keys = ["0,3,-1,3", "1,0,3,0", "2,1,0,2"]
        path.write_text(json.dumps({"rq_sizes": [4, 4], "opq_sizes": [3],
                                    "counts": {k: 2 for k in keys}}))
        assert len(CooccurrenceScorer.load(path).counts) == 3

    @pytest.mark.parametrize("spec", ['{"clusters": 2, "flavour": 1}', "{", "[]"])
    def test_bad_synth_spec_names_the_path(self, tmp_path, spec):
        path = tmp_path / "spec.json"
        path.write_text(spec)
        _raises_at(lambda p: cli.main(["synth", "--spec", p, "--out", str(tmp_path / "d")]),
                   str(path), path)

    def test_bad_codebook_sidecar_names_the_path(self, tmp_path):
        rng = np.random.default_rng(0)
        catalog = Catalog([f"i{i}" for i in range(16)], rng.normal(size=(16, 4)))
        path = tmp_path / "cb.bin"
        save_codebook(fit_codebook(catalog, level_sizes=(2, 2), opq_subspaces=2, opq_codes=2,
                                   iters=2, opq_outer_iters=1, seed=0), path)
        sidecar = tmp_path / "cb.bin.meta.json"
        sidecar.write_text("{")
        _raises_at(load_codebook, path, sidecar)


class TestValidFilesReadAsBefore:
    def test_sid_file_last_line_wins_and_sequence_keeps_all(self, tmp_path):
        path = tmp_path / "items.sids"
        path.write_text("i1\t1,2,0\ni2\t3,0,2\ni1\t0,0,1\n")
        assert read_sid_file(path, SCHEME).entries["i1"] == SCHEME.parse("0,0,1")
        assert [i for i, _ in read_sid_sequence(path, SCHEME)] == ["i1", "i2", "i1"]

    def test_tsv_keeps_spaces_and_tabs_in_map_values(self, tmp_path):
        path = tmp_path / "texts.tsv"
        path.write_text("i1\tred\tshoe  \n\ni2\t\n")
        assert cli._read_tsv_map(str(path)) == {"i1": "red\tshoe  ", "i2": ""}

    def test_jsonl_skips_whitespace_only_lines(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        path.write_text('  \n{"context":"1,2,0","truth":["i1"]}\n\t\n')
        assert len(cli._read_cases(str(path), SCHEME)) == 1

    def test_sessions_without_sids_are_skipped_silently(self, tmp_path):
        path = tmp_path / "sessions.jsonl"
        path.write_text("\n".join(json.dumps(obj) for obj in [
            {"session_id": "s1", "query_id": "q1", "clicked_item": "i1",
             "short_clicks": ["i2", "i1"], "recent_queries": ["q1"], "aggregate_ref": "a1"},
            {"session_id": "s2", "query_id": "q9", "clicked_item": "i1"},
            {"session_id": "s3", "query_id": "q1", "clicked_item": "i9"},
            {"session_id": "s4", "query_id": "q1", "clicked_item": "i1", "short_clicks": ["i9"]},
            {"session_id": "s5", "query_id": "q1", "clicked_item": "i1",
             "recent_queries": ["q1", "q9"]},
        ]) + "\n")
        # (query words, query SID, recent query SIDs, short rows, long rows, aggregate end)
        assert _read_sessions(path) == [(["q1"], "0,1,1", ["0,1,1"], [1, 0], [1, 0], " agg:a1")]


# ids free of tab, CR, LF and space, and tokens free of any whitespace;
# surrogates are left out because UTF-8 cannot encode them
text_ids = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\t\r\n "),
                   max_size=6)
tokens = st.text(st.characters(exclude_categories=("Cs", "Cc", "Zs", "Zl", "Zp")),
                 min_size=1, max_size=6)
any_text = st.text(st.characters(exclude_categories=("Cs",)), max_size=6)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
sids = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2)).map(
    lambda d: Sid(d[:2], d[2:]))
preference_lists = st.lists(any_text, min_size=2, max_size=4, unique=True).flatmap(
    lambda names: st.builds(PreferenceList, any_text, st.just(names[0]), st.just(names[1:]),
                            st.lists(positive, min_size=len(names) - 1,
                                     max_size=len(names) - 1)))
ROUND_TRIP = settings(max_examples=40, deadline=None, database=None)


class TestWriterRoundTrip:
    """Each writer's file reads back, through its reader, as what was written."""

    @ROUND_TRIP
    @given(entries=st.dictionaries(text_ids, sids, max_size=5))
    def test_sid_file(self, tmp_path_factory, entries):
        path = tmp_path_factory.getbasetemp() / "round_trip.sids"
        write_sid_file(path, entries.items())
        assert read_sid_file(path, SCHEME).entries == entries

    @ROUND_TRIP
    @given(rows=st.dictionaries(text_ids, st.lists(st.floats(width=32, allow_nan=False,
                                                             allow_infinity=False),
                                                   min_size=3, max_size=3),
                                min_size=1, max_size=4))
    def test_catalog(self, tmp_path_factory, rows):
        path = tmp_path_factory.getbasetemp() / "round_trip.catalog"
        catalog = Catalog(list(rows), np.array(list(rows.values())))
        save_catalog(catalog, path)
        loaded = load_catalog(path)
        assert loaded.ids == catalog.ids
        assert np.array_equal(loaded.matrix, catalog.matrix)

    @ROUND_TRIP
    @given(pairs=st.lists(st.builds(PairRecord, text_ids, text_ids, st.sampled_from(PAIR_KINDS),
                                    st.floats(-1.0, 1.0)), max_size=4))
    def test_pairs(self, tmp_path_factory, pairs):
        path = tmp_path_factory.getbasetemp() / "round_trip_pairs.tsv"
        write_pairs(pairs, path)
        assert read_pairs(path) == pairs

    @ROUND_TRIP
    @given(records=st.lists(st.builds(
        TaskRecord, st.sampled_from([1, 2, 3]), st.sampled_from(sorted(TASK_TAGS)),
        st.lists(tokens, min_size=1, max_size=4).map(tuple),
        st.lists(tokens, min_size=1, max_size=3).map(tuple)), max_size=4))
    def test_task_records(self, tmp_path_factory, records):
        path = tmp_path_factory.getbasetemp() / "round_trip_records.tsv"
        write_task_records(records, path)
        assert read_task_records(path) == records

    @ROUND_TRIP
    @given(lists=st.lists(preference_lists, max_size=3))
    def test_preference_lists(self, tmp_path_factory, lists):
        path = tmp_path_factory.getbasetemp() / "round_trip_lists.jsonl"
        write_preference_lists(lists, path)
        assert read_preference_lists(path) == lists


def _task_record_with_target(*targets):
    return lambda path: write_task_records(
        [TaskRecord(1, "sid_to_text", ("<T1b>", "1,2,0"), ("red",)),
         TaskRecord(1, "sid_to_text", ("<T1b>", "1,2,0"), targets)], path)


class TestWriterRefuses:
    @pytest.mark.parametrize("write, record", [
        (lambda p: write_sid_file(p, [("i1", ITEM_SIDS["i1"]), ("a\tb", ITEM_SIDS["i2"])]), 2),
        (lambda p: save_catalog(Catalog(["a", "b\nc"], np.ones((2, 2))), p), 3),
        (lambda p: write_pairs([PairRecord("a", "b\r", "q2i", 0.5)], p), 1),
        (_task_record_with_target("red", "red shoe"), 2),
        (_task_record_with_target("red", "red\u3000shoe"), 2),
        (_task_record_with_target("red", ""), 2),
    ], ids=["tab_in_sid_file_id", "lf_in_catalog_id", "cr_in_pair_id", "space_in_token",
            "ideographic_space_in_token", "empty_token"])
    def test_field_the_reader_would_split(self, tmp_path, write, record):
        _raises_at(write, tmp_path / "out.txt", f"{tmp_path / 'out.txt'}:{record}")

    @pytest.mark.parametrize("bad", ["\t", "\r", "\n"])
    @pytest.mark.parametrize("to_file", [True, False])
    def test_split_character_to_file_or_stdout(self, tmp_path, capsys, bad, to_file):
        """Rows shaped like dpo-eval's (context, loss), one context holding a
        tab, CR or LF: standard output keeps the rows before it, a file is
        removed."""
        path = tmp_path / "losses.tsv" if to_file else None
        rows = [("q1", "0.5"), (f"q{bad}2", "0.25"), ("__mean__", "0.375")]
        _raises_at(lambda p: write_records(p, rows), path,
                   f"{path}:2" if to_file else "<stdout>:2")
        assert capsys.readouterr().out == ("" if to_file else "q1\t0.5\n")
        if to_file:
            assert not path.exists()

    @pytest.mark.parametrize("argv", [
        ["filter-pairs", "--pairs", "{tmp}/pairs.tsv", "--threshold", "0.6"],
        ["metrics", "--sids", "{tmp}/items.sids", "--levels", "4,4", "--opq", "1x3",
         "--with-opq"],
    ])
    def test_stdout_bytes_equal_file_bytes(self, tmp_path, capsys, argv):
        (tmp_path / "pairs.tsv").write_text("a\tb\tq2i\t0.7\na\tc\tq2i\t0.5\nb\tc\ti2i\t0.61\n")
        (tmp_path / "items.sids").write_text("i1\t1,2,0\ni2\t3,0,2\n")
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert cli.main(argv) == 0
        stdout = capsys.readouterr().out
        assert cli.main(argv + ["--out", str(tmp_path / "out.tsv")]) == 0
        assert capsys.readouterr().out == ""
        assert stdout and stdout.encode("utf-8") == (tmp_path / "out.tsv").read_bytes()

    @pytest.mark.parametrize("rows, record, detail", [
        ([("a", "b"), ("c", 5)], 2, "expected str instance"),
        (({"a": 1}["b"] for _ in range(1)), 1, "missing key 'b'"),
    ], ids=["non_string_tsv_field", "key_error_from_row_generator"])
    def test_type_and_key_errors_name_the_record_and_remove_the_file(self, tmp_path, rows,
                                                                     record, detail):
        path = tmp_path / "p.tsv"
        message = _raises_at(lambda p: write_records(p, rows), path, f"{path}:{record}")
        assert detail in message
        assert not path.exists()

    def test_interrupt_from_row_generator_removes_the_file_and_propagates(self, tmp_path):
        def rows():
            yield ("a", "b")
            raise KeyboardInterrupt

        path = tmp_path / "p.tsv"
        with pytest.raises(KeyboardInterrupt):
            write_records(path, rows())
        assert not path.exists()

    def test_type_error_to_stdout_names_the_record(self, capsys):
        _raises_at(lambda p: write_records(p, [("a", "b"), ("c", 5)]), None, "<stdout>:2")
        assert capsys.readouterr().out == "a\tb\n"
