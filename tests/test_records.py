"""Every text input goes through one reader: a malformed line raises
``ValueError`` starting with ``path:line``, a malformed file one starting
with the path, and valid files read as before."""

import base64
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidforge import cli
from sidforge.curriculum import read_task_records
from sidforge.embedding import Catalog, load_catalog, read_pairs
from sidforge.generator import CooccurrenceScorer
from sidforge.quantizer import fit_codebook, load_codebook, save_codebook
from sidforge.reward import read_interactions, read_preference_lists
from sidforge.sids import SidScheme, read_sid_file, read_sid_sequence

SCHEME = SidScheme((4, 4), (3,))
ITEM_SIDS = {"i1": SCHEME.parse("1,2,0"), "i2": SCHEME.parse("3,0,2")}
QUERY_SIDS = {"q1": SCHEME.parse("0,1,1")}
VEC = base64.b64encode(np.array([1.0, -2.0], dtype="<f4").tobytes()).decode("ascii")


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
    return {
        "sid_file": (lambda p: read_sid_file(p, SCHEME), ["i1\t1,2,0", "i2\t3,0,2"]),
        "sid_sequence": (lambda p: read_sid_sequence(p, SCHEME), ["i1\t1,2,0"]),
        "catalog": (load_catalog, ["dim=2", f"a\t{VEC}"]),
        "pairs": (read_pairs, ["a\tb\tq2i\t0.5"]),
        "interactions": (read_interactions, ["q1\ti1\t3\t100\t40\t5"]),
        "preference_lists": (read_preference_lists,
                             ['{"context":"q","winner":"w","losers":["l"],"deltas":[0.5]}']),
        "task_records": (read_task_records, ["3\tpersonalization\t<T3> a b\t1,2,0"]),
        "click_stats": (lambda p: cli._read_click_stats(str(p), SCHEME), ["q1\ti1\t1,2,0\t7"]),
        "reranks": (lambda p: cli._read_reranks(str(p)), ["q1\ta,b\tb,a"]),
        "logprobs": (_cli_reader(tmp, lambda p, out: [
            "dpo-eval", "--lists", str(tmp / "empty.jsonl"), "--logprobs", p, "--out", out]),
            ["q\tw\t-1.0\t-1.5"]),
        "tsv_map": (lambda p: cli._read_tsv_map(str(p)), ["i1\tred\tshoe"]),
        "stage2_pairs": (_cli_reader(tmp, lambda p, out: [
            "curriculum", "--stage", "2", "--pairs", p, "--sids", str(tmp / "items.sids"),
            "--levels", "4,4", "--opq", "1x3", "--out", out]), ["i1\ti2"]),
        "sessions": (lambda p: cli._read_sessions(str(p), ITEM_SIDS, QUERY_SIDS),
                     ['{"session_id":"s","query_id":"q1","clicked_item":"i1"}']),
        "cases": (lambda p: cli._read_cases(str(p), SCHEME),
                  ['{"context":"1,2,0","truth":["i1"]}']),
    }


READER_NAMES = ["sid_file", "sid_sequence", "catalog", "pairs", "interactions",
                "preference_lists", "task_records", "click_stats", "reranks", "logprobs",
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
             "clicked_item", "short_clicks", "long_clicks", "query_text", "truth"]
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
        _raises_at(lambda p: cli.main([
            "curriculum", "--stage", "2", "--pairs", p, "--sids", str(tmp_path / "items.sids"),
            "--levels", "4,4", "--opq", "1x3", "--out", str(tmp_path / "out.tsv")]),
            str(path), f"{path}:1")

    @pytest.mark.parametrize("key", ["session_id", "query_id", "clicked_item"])
    def test_session_missing_required_key(self, tmp_path, key):
        obj = {"session_id": "s", "query_id": "q1", "clicked_item": "i1"}
        del obj[key]
        path = tmp_path / "sessions.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        message = _raises_at(lambda p: cli._read_sessions(p, ITEM_SIDS, QUERY_SIDS),
                             str(path), f"{path}:1")
        assert f"missing key '{key}'" in message

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

    @pytest.mark.parametrize("name, line", [
        ("preference_lists", '{"context":"q","winner":"w","losers":"ab","deltas":[0.5,0.5]}'),
        ("preference_lists", '{"context":"q","winner":"w","losers":[1],"deltas":[0.5]}'),
        ("cases", '{"context":"1,2,0","truth":"i1"}'),
        ("cases", '{"context":"1,2,0","truth":[["i1"]]}'),
        ("sessions", '{"session_id":"s","query_id":"q1","clicked_item":"i1","short_clicks":"i2"}'),
        ("sessions", '{"session_id":"s","query_id":"q1","clicked_item":"i1","long_clicks":"i2"}'),
        ("sessions", '{"session_id":"s","query_id":"q1","clicked_item":"i1","short_clicks":null}'),
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
             "short_clicks": ["i2", "i1"]},
            {"session_id": "s2", "query_id": "q9", "clicked_item": "i1"},
            {"session_id": "s3", "query_id": "q1", "clicked_item": "i9"},
            {"session_id": "s4", "query_id": "q1", "clicked_item": "i1", "short_clicks": ["i9"]},
        ]) + "\n")
        sessions = cli._read_sessions(str(path), ITEM_SIDS, QUERY_SIDS)
        assert [s.session_id for s in sessions] == ["s1"]
        assert sessions[0].short_clicks == (ITEM_SIDS["i2"], ITEM_SIDS["i1"])
