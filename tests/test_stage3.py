"""Stage-3 records and the co-occurrence fit keep their bytes: a pinned
golden pipeline, a per-record reference loop for ``build_stage3``, per-row
user parts and per-record scorer counts."""

import hashlib
import json
import math

import numpy as np
import pytest

from sidforge.cli import main
from sidforge.curriculum import TASK_TAGS, Session, StageStats, TaskRecord, build_stage3, \
    read_stage3_codes, read_task_records, sliding_window
from sidforge.generator import cooccurrence_fit
from sidforge.identity import (
    BOS,
    EOS,
    MAX_WEIGHTED_LENGTH,
    RECENT_QUERIES_TAG,
    SEP,
    SHORT_CLICKS_TAG,
    BehaviorSequence,
    UserSid,
    build_user_sid,
    decay_weights,
    parse_prompt,
    user_parts,
)
from sidforge.quantizer import OpqCodebook, RqCodebook, RqOpqCodebook, save_codebook
from sidforge.sids import Sid, SidScheme, write_sid_file

LEVELS, SUBSPACES, CODES = (6, 4, 3), 2, 3
SCHEME = SidScheme(LEVELS, (CODES,) * SUBSPACES)


def _codebook() -> RqOpqCodebook:
    """A codebook of the test scheme; stage 3 reads only its scheme."""
    dim = 4
    return RqOpqCodebook(
        RqCodebook([np.zeros((w, dim)) for w in LEVELS], LEVELS, False),
        OpqCodebook(np.eye(dim), [np.zeros((CODES, dim // SUBSPACES))] * SUBSPACES))


def _random_sid(rng) -> Sid:
    digits = [int(rng.integers(w)) for w in SCHEME.sizes]
    return Sid(tuple(digits[:len(LEVELS)]), tuple(digits[len(LEVELS):]))


# --- the per-record reference: one build_user_sid and one prompt per record ---

def _reference_weighted_part(items, scheme):
    items = list(items)[-MAX_WEIGHTED_LENGTH:]
    lam = decay_weights(len(items))
    digits = np.array([sid.digits for sid in items], dtype=np.float64)
    weighted = lam @ digits
    return tuple(min(max(math.ceil(value - 1e-9), 0), size - 1)
                 for value, size in zip(weighted, scheme.sizes))


def _reference_user_sid(short, long, scheme):
    for sid in tuple(short.items) + tuple(long.items):
        scheme.validate(sid)
    return UserSid(_reference_weighted_part(short.items, scheme),
                   _reference_weighted_part(long.items, scheme))


def _reference_prompt(user, query_text, query_sid, recent_queries, short_clicks):
    words = query_text.split()
    segments = [[",".join(str(d) for d in user.short_part),
                 ",".join(str(d) for d in user.long_part)], words, [query_sid.render()]]
    if recent_queries:
        segments.append([RECENT_QUERIES_TAG] + [s.render() for s in recent_queries])
    if short_clicks:
        segments.append([SHORT_CLICKS_TAG] + [s.render() for s in short_clicks])
    tokens = [BOS]
    for i, seg in enumerate(segments):
        if i > 0:
            tokens.append(SEP)
        tokens.extend(seg)
    return tokens + [EOS]


def _reference_stage3(sessions, scheme, max_window):
    records, stats = [], StageStats()
    for sess in sessions:
        try:
            effective = list(sess.short_clicks)
            if not effective or effective[-1] != sess.clicked_sid:
                effective.append(sess.clicked_sid)
            user = _reference_user_sid(
                BehaviorSequence(tuple(effective), "short_click"),
                BehaviorSequence(tuple(sess.long_clicks or effective), "long_click"), scheme)
        except ValueError:
            stats.skipped += 1
            continue
        for window, target in sliding_window(effective, max_window):
            inputs = _reference_prompt(user, sess.query_text, sess.query_sid,
                                       sess.recent_queries, window)
            if sess.aggregate_ref is not None:
                inputs.append(f"agg:{sess.aggregate_ref}")
            records.append(TaskRecord(3, "personalization",
                                      (TASK_TAGS["personalization"], *inputs),
                                      (target.render(),)))
        stats.emitted += 1
    return records, stats


def _random_sessions(rng, n):
    pool = [_random_sid(rng) for _ in range(40)]
    # the clip to the last code and exact-integer averages both show up
    pool += [Sid((5, 3, 2), (2, 2)), Sid((0, 0, 0), (0, 0)), Sid((2, 2, 2), (2, 2))]
    words = ["red", "shoes", "", "big", "blue"]

    def seq(length):
        return tuple(pool[int(i)] for i in rng.integers(len(pool), size=length))

    sessions = []
    for s in range(n):
        short = seq(int(rng.choice([0, 0, 1, 2, 3, 5, 7, 49, 50, 51, 77])))
        clicked = short[-1] if short and rng.random() < 0.5 else seq(1)[0]
        sessions.append(Session(
            session_id=f"s{s}",
            query_text=" ".join(rng.choice(words, size=int(rng.integers(4)))),
            query_sid=seq(1)[0],
            clicked_sid=clicked,
            short_clicks=short,
            long_clicks=seq(int(rng.choice([0, 0, 1, 4, 50, 51, 90]))),
            recent_queries=seq(int(rng.choice([0, 0, 1, 3]))),
            aggregate_ref=None if rng.random() < 0.6 else f"agg{s}",
        ))
    return sessions


class TestBuildStage3MatchesPerRecordReference:
    @pytest.mark.parametrize("max_window", [1, 3, 5])
    def test_random_sessions(self, max_window):
        sessions = _random_sessions(np.random.default_rng(max_window), 300)
        got = build_stage3(iter(sessions), _codebook(), max_window=max_window)
        assert got == _reference_stage3(sessions, SCHEME, max_window)

    def test_invalid_sids_skip_their_session_every_time(self):
        rng = np.random.default_rng(11)
        sessions = _random_sessions(rng, 40)
        out_of_range, wrong_shape = Sid((6, 0, 0), (0, 0)), Sid((1, 1), (1, 1, 1))
        good = sessions[0]
        bad = [
            Session("b0", "q", good.query_sid, good.clicked_sid, (good.clicked_sid, out_of_range)),
            Session("b1", "q", good.query_sid, out_of_range),
            Session("b2", "q", good.query_sid, good.clicked_sid, long_clicks=(wrong_shape,)),
            Session("b3", "q", good.query_sid, good.clicked_sid, (out_of_range,)),
            Session("b4", "q", good.query_sid, good.clicked_sid, (good.clicked_sid,) * 501),
            Session("b5", "q", good.query_sid, good.clicked_sid,
                    long_clicks=(good.clicked_sid,) * 5001),
        ]
        mixed = sessions[:20] + bad[:3] + sessions[20:] + bad[3:]
        records, stats = build_stage3(mixed, _codebook())
        assert (records, stats) == _reference_stage3(mixed, SCHEME, 5)
        assert stats.skipped == len(bad)

    def test_no_sessions(self):
        assert build_stage3([], _codebook()) == ([], StageStats())


class TestUserParts:
    def test_batched_parts_equal_per_row_build_user_sid(self):
        rng = np.random.default_rng(4)
        # the last three SIDs repeated give exact-integer averages, one at the top codes
        pool = [_random_sid(rng) for _ in range(30)]
        pool += [Sid((5, 3, 2), (2, 2)), Sid((0, 0, 0), (0, 0)), Sid((3, 2, 1), (1, 1))]
        sequences = [[int(i) for i in rng.integers(len(pool), size=m)]
                     for m in list(range(1, 60)) * 3 + [120, 500]]
        sequences += [[len(pool) - k] * m for k in (1, 2, 3) for m in (1, 2, 7, 50, 64)]
        table = np.array([sid.digits for sid in pool], dtype=np.float64)
        parts = user_parts(sequences, table, SCHEME.sizes)
        assert parts.shape == (len(sequences), SCHEME.length)
        for seq, row in zip(sequences, parts.tolist()):
            items = tuple(pool[i] for i in seq)
            user = build_user_sid(BehaviorSequence(items),
                                  BehaviorSequence(items, "long_click"), SCHEME)
            assert tuple(row) == user.short_part == user.long_part
            assert tuple(row) == _reference_weighted_part(items, SCHEME)

    def test_no_sequences(self):
        assert user_parts([], np.zeros((0, 5)), SCHEME.sizes).shape == (0, 5)


def _reference_counts(pairs):
    """Per-record slot counts, the way the scorer counted before packed keys."""
    counts = {}
    for query, target in pairs:
        prev = -1
        for pos, d in enumerate(target.digits):
            slot = counts.setdefault((pos, query.rq[0], prev), {})
            slot[d] = slot.get(d, 0) + 1
            prev = d
    return counts


class TestCooccurrenceFit:
    def pairs(self, n, seed=0):
        rng = np.random.default_rng(seed)
        return [(_random_sid(rng), _random_sid(rng)) for _ in range(n)]

    def test_pairs_and_array_fit_equal_per_record_counts(self):
        pairs = self.pairs(2000)
        codes = np.array([(q.rq[0], *t.digits) for q, t in pairs], dtype=np.int64)
        reference = _reference_counts(pairs)
        assert cooccurrence_fit(pairs, SCHEME).counts == reference
        assert cooccurrence_fit(codes, SCHEME).counts == reference
        assert cooccurrence_fit(codes.astype(np.int32), SCHEME).counts == reference

    def test_counts_are_python_ints(self):
        scorer = cooccurrence_fit(self.pairs(50), SCHEME)
        for (pos, q1, prev), slot in scorer.counts.items():
            assert all(type(v) is int for v in (pos, q1, prev, *slot, *slot.values()))

    def test_pairs_validate_each_distinct_target_once(self, monkeypatch):
        pairs = self.pairs(40) * 5
        calls = []
        validate = SidScheme.validate
        monkeypatch.setattr(SidScheme, "validate",
                            lambda scheme, sid: calls.append(sid) or validate(scheme, sid))
        assert cooccurrence_fit(pairs, SCHEME).counts == _reference_counts(pairs)
        assert calls == list(dict.fromkeys(target for _, target in pairs))

    def test_pairs_raise_for_the_first_invalid_target(self):
        pairs = self.pairs(10)
        first, second = Sid((6, 0, 0), (0, 0)), Sid((0, 4, 0), (0, 0))
        pairs[3:3] = [(pairs[0][0], second), (pairs[0][0], first), (pairs[0][0], second)]
        with pytest.raises(ValueError) as info:
            cooccurrence_fit(pairs, SCHEME)
        with pytest.raises(ValueError) as want:
            SCHEME.validate(second)
        assert str(info.value) == str(want.value) == "code 4 at position 1 outside [0, 4)"

    @pytest.mark.parametrize("sizes", [[2000], [1, 1999], [7] * 285 + [5], [0, 2000, 0]])
    def test_blocks_fit_equals_one_array_fit(self, tmp_path, sizes):
        from sidforge.generator import cooccurrence_fit_blocks

        pairs = self.pairs(2000, seed=5)
        codes = np.array([(q.rq[0], *t.digits) for q, t in pairs], dtype=np.int64)
        blocks = np.split(codes, np.cumsum(sizes)[:-1])
        cooccurrence_fit(codes, SCHEME).save(tmp_path / "one.json")
        cooccurrence_fit_blocks(iter(blocks), SCHEME).save(tmp_path / "blocks.json")
        assert (tmp_path / "one.json").read_bytes() == (tmp_path / "blocks.json").read_bytes()

    def test_blocks_raise_for_a_bad_later_block(self):
        from sidforge.generator import cooccurrence_fit_blocks

        good = np.zeros((3, 6), dtype=np.int64)
        with pytest.raises(ValueError, match="code 4 at position 1"):
            cooccurrence_fit_blocks([good, np.array([[0, 0, 4, 0, 0, 0]])], SCHEME)
        with pytest.raises(ValueError, match="zero records"):
            cooccurrence_fit_blocks([np.zeros((0, 6), dtype=np.int64)] * 2, SCHEME)

    @pytest.mark.parametrize("codes, message", [
        (np.zeros((0, 6), dtype=np.int64), "zero records"),
        (np.zeros((3, 5), dtype=np.int64), "int array"),
        (np.zeros((3, 6)), "int array"),
        (np.array([[0, 0, 0, 0, 0, 0], [6, 0, 0, 0, 0, 0]]), "query digit 6"),
        (np.array([[0, 0, 0, 0, 0, 0], [0, 0, 4, 0, 0, 0]]), "code 4 at position 1"),
        (np.array([[0, 0, 0, 0, 0, -1]]), "code -1 at position 4"),
    ])
    def test_bad_code_arrays_rejected(self, codes, message):
        with pytest.raises(ValueError, match=message):
            cooccurrence_fit(codes, SCHEME)


class TestReadStage3Codes:
    def test_rows_of_stage3_lines_only(self, tmp_path):
        sessions = _random_sessions(np.random.default_rng(2), 30)
        records, stats = build_stage3(sessions, _codebook())
        assert stats.skipped == 0
        path = tmp_path / "records.tsv"
        lines = [f"1\ttext_to_sid\t<T1a> red\t{sessions[0].query_sid.render()}"]
        lines += [f"3\t{r.task_tag}\t{' '.join(r.input_tokens)}\t{r.target_tokens[0]}"
                  for r in records]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        expected = []
        for sess in sessions:
            effective = list(sess.short_clicks)
            if not effective or effective[-1] != sess.clicked_sid:
                effective.append(sess.clicked_sid)
            expected += [[sess.query_sid.rq[0], *sid.digits] for sid in effective]
        codes = read_stage3_codes(path, SCHEME)
        assert codes.dtype == np.int64 and codes.tolist() == expected

    def test_no_stage3_lines(self, tmp_path):
        path = tmp_path / "records.tsv"
        path.write_text("2\tqsid_to_isid\t<T2c> 1,1,1,1,1\t2,2,2,2,2\n", encoding="utf-8")
        assert read_stage3_codes(path, SCHEME).shape == (0, 6)


# --- the golden pipeline: synth sessions -> curriculum 3 -> fit-scorer ---

GOLDEN_STAGE3_SHA256 = "61105de5f82a893365cc33c37f5c4b669e2d5e8b870d97ecd767ed720c51d05c"
GOLDEN_SCORER_SHA256 = "8593393df7ddd618a7b3ba21a9edb10499f2763e6c03fdc6b01ed7d3f9469c28"


def test_golden_stage3_and_scorer_bytes(tmp_path):
    spec = {"clusters": 3, "items_per_cluster": 10, "dim": 4, "sessions": 60,
            "max_session_clicks": 60, "seed": 5}
    (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    data = tmp_path / "data"
    assert main(["synth", "--spec", str(tmp_path / "spec.json"), "--out", str(data)]) == 0
    save_codebook(_codebook(), tmp_path / "cb.bin")
    rng = np.random.default_rng(9)
    items = [f"item{c}_{i}" for c in range(3) for i in range(10)]
    write_sid_file(tmp_path / "items.sids", [(i, _random_sid(rng)) for i in items])
    write_sid_file(tmp_path / "queries.sids", [(f"query{c}", _random_sid(rng)) for c in range(3)])
    extra = [
        {"session_id": "x1", "query_id": "query0", "query_text": "red  shoes",
         "clicked_item": "item0_1", "short_clicks": ["item0_2"],
         "long_clicks": ["item1_3", "item2_4", "item0_1"], "aggregate_ref": "a7"},
        {"session_id": "x2", "query_id": "query1", "clicked_item": "item1_0",
         "long_clicks": [items[(7 * j) % 30] for j in range(60)]},
        {"session_id": "x3", "query_id": "query9", "clicked_item": "item1_0"},
    ]
    with open(data / "sessions.jsonl", "a", encoding="utf-8") as f:
        f.writelines(json.dumps(obj) + "\n" for obj in extra)
    assert main(["curriculum", "--stage", "3", "--sessions", str(data / "sessions.jsonl"),
                 "--sids", str(tmp_path / "items.sids"),
                 "--query-sids", str(tmp_path / "queries.sids"),
                 "--codebook", str(tmp_path / "cb.bin"),
                 "--out", str(tmp_path / "stage3.tsv")]) == 0
    assert main(["fit-scorer", "--records", str(tmp_path / "stage3.tsv"),
                 "--levels", ",".join(map(str, LEVELS)), "--opq", f"{SUBSPACES}x{CODES}",
                 "--out", str(tmp_path / "scorer.json")]) == 0

    def sha(name):
        return hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()

    assert (sha("stage3.tsv"), sha("scorer.json")) == (GOLDEN_STAGE3_SHA256,
                                                      GOLDEN_SCORER_SHA256)


def test_cli_prompts_carry_the_recent_queries_of_a_session(tmp_path):
    save_codebook(_codebook(), tmp_path / "cb.bin")
    rng = np.random.default_rng(3)
    item_sids = {f"i{n}": _random_sid(rng) for n in range(3)}
    query_sids = {f"q{n}": _random_sid(rng) for n in range(3)}
    write_sid_file(tmp_path / "items.sids", item_sids.items())
    write_sid_file(tmp_path / "queries.sids", query_sids.items())
    sessions = [
        {"session_id": "s1", "query_id": "q0", "clicked_item": "i0",
         "short_clicks": ["i1", "i0"], "recent_queries": ["q2", "q1"]},
        {"session_id": "s2", "query_id": "q0", "clicked_item": "i0",
         "recent_queries": ["q9"]},  # no SID: skipped like an unknown click
    ]
    (tmp_path / "sessions.jsonl").write_text("".join(json.dumps(s) + "\n" for s in sessions))
    assert main(["curriculum", "--stage", "3", "--sessions", str(tmp_path / "sessions.jsonl"),
                 "--sids", str(tmp_path / "items.sids"),
                 "--query-sids", str(tmp_path / "queries.sids"),
                 "--codebook", str(tmp_path / "cb.bin"),
                 "--out", str(tmp_path / "stage3.tsv")]) == 0
    records = read_task_records(tmp_path / "stage3.tsv")
    assert len(records) == 2
    for rec in records:
        prompt = parse_prompt(rec.input_tokens[1:], SCHEME)
        assert prompt.recent_queries == (query_sids["q2"], query_sids["q1"])


def test_cli_file_equals_written_build_stage3(tmp_path, capsys):
    """Recent queries, long clicks, aggregate refs, windows beyond
    --max-window, cold sessions and over-long sequences (skipped)."""
    import stage3_oracle
    from sidforge.curriculum import write_task_records
    from sidforge.sids import read_sid_file

    save_codebook(_codebook(), tmp_path / "cb.bin")
    rng = np.random.default_rng(11)
    items = [f"i{n}" for n in range(40)]
    write_sid_file(tmp_path / "items.sids", [(i, _random_sid(rng)) for i in items])
    write_sid_file(tmp_path / "queries.sids", [(f"q{n}", _random_sid(rng)) for n in range(6)])

    def clicks(n):
        return [items[int(i)] for i in rng.integers(len(items), size=n)]

    sessions = []
    for s in range(40):
        obj = {"session_id": f"s{s}", "query_id": f"q{s % 6}", "clicked_item": clicks(1)[0],
               "short_clicks": clicks(int(rng.choice([0, 1, 3, 6, 9]))),
               "query_text": " ".join(rng.choice(["red", "shoes", "", "big"], size=3))}
        if s % 3 == 0:
            obj["long_clicks"] = clicks(int(rng.choice([1, 4, 60])))
        if s % 4 == 1:
            obj["recent_queries"] = [f"q{int(q)}" for q in rng.integers(6, size=2)]
        if s % 5 == 2:
            obj["aggregate_ref"] = f"a{s}"
        sessions.append(obj)
    sessions[7]["short_clicks"] = clicks(501)  # over the short-click cap
    sessions[8]["long_clicks"] = clicks(5001)  # over the long-click cap
    sessions[9]["short_clicks"] = clicks(500)  # at the cap, the clicked item last
    sessions[9]["clicked_item"] = sessions[9]["short_clicks"][-1]
    (tmp_path / "sessions.jsonl").write_text("".join(json.dumps(s) + "\n" for s in sessions))
    capsys.readouterr()
    assert main(["curriculum", "--stage", "3", "--sessions", str(tmp_path / "sessions.jsonl"),
                 "--sids", str(tmp_path / "items.sids"),
                 "--query-sids", str(tmp_path / "queries.sids"),
                 "--codebook", str(tmp_path / "cb.bin"), "--max-window", "2",
                 "--out", str(tmp_path / "cli.tsv")]) == 0
    stdout = capsys.readouterr().out
    read = stage3_oracle.read_sessions(tmp_path / "sessions.jsonl",
                                       read_sid_file(tmp_path / "items.sids", SCHEME).entries,
                                       read_sid_file(tmp_path / "queries.sids", SCHEME).entries)
    records, stats = build_stage3(read, _codebook(), max_window=2)
    write_task_records(records, tmp_path / "api.tsv")
    assert (tmp_path / "cli.tsv").read_bytes() == (tmp_path / "api.tsv").read_bytes()
    assert stdout == f"records={len(records)} skipped={stats.skipped}\n"
    assert stats.skipped == 2
    windows = [r.input_tokens.index("[EOS]") - r.input_tokens.index("i>") - 1
               for r in records if "i>" in r.input_tokens]
    assert max(windows) == 2 and len(records) > 500
    assert any(r.input_tokens[-1].startswith("agg:") for r in records)
    assert any("q>" in r.input_tokens for r in records)


# --- the one prompt checker against the per-object reader it replaced ---

SCHEME3 = SidScheme((4, 4), (3,))
_POOL = ["[SEP]", "[BOS]", "[EOS]", "q>", "i>", "x>", "agg:z", "", "<T3>", "red",
         "1,2", "1,2,0", "1,2,3", "01,2,0", "-0,1,1", "1,2,0,0,1", "0,1,2,3,0", "1,1,1,1,1",
         "3,3,3,2,2", "5,0,0,0,0", "1,1,1,1,-0", "+1,0,0", "a,b,c", "1,,2"]


def _valid_lines(rng) -> list[tuple[SidScheme, str]]:
    records, _ = build_stage3(_random_sessions(rng, 60), _codebook())
    lines = [(SCHEME, "\t".join(("3", r.task_tag, " ".join(r.input_tokens), r.target_tokens[0])))
             for r in records]
    lines += [(SCHEME3, f"3\tpersonalization\t<T3> [BOS] 0,1,2,3,0 1,1,1,1,1 [SEP] red{text} "
                        f"[SEP] 0,1,1{hist} [EOS]{agg}\t1,2,0")
              for text in ("", " shoes") for agg in ("", " agg:a1")
              for hist in ("", " [SEP] q> 1,2,0 3,3,1", " [SEP] i> 3,0,2", " [SEP] q> 1,2,0 "
                           "[SEP] i> 3,0,2 0,0,0")]
    return lines


def _mutate(line: str, rng) -> str:
    stage, tag, inputs, target = line.split("\t")
    tokens = inputs.split(" ")
    for _ in range(int(rng.integers(1, 4))):
        op = int(rng.integers(11))
        i = int(rng.integers(len(tokens) + 1))
        if op == 0 and tokens:
            del tokens[min(i, len(tokens) - 1)]
        elif op == 1:
            tokens.insert(i, str(rng.choice(_POOL)))
        elif op == 2 and tokens:
            tokens[min(i, len(tokens) - 1)] = str(rng.choice(_POOL))
        elif op == 3 and len(tokens) > 1:
            j = int(rng.integers(len(tokens) - 1))
            tokens[j], tokens[j + 1] = tokens[j + 1], tokens[j]
        elif op == 4 and tokens:  # one digit of one comma token
            j = min(i, len(tokens) - 1)
            digits = tokens[j].split(",")
            digits[int(rng.integers(len(digits)))] = str(rng.choice(["7", "-1", "01", "x", ""]))
            tokens[j] = ",".join(digits)
        elif op == 5:
            stage = str(rng.choice(["1", "2", "4", "x", "03", " 3"]))
        elif op == 6:
            tag = str(rng.choice(["query_to_item", "bogus", "text_to_sid"]))
        elif op == 7:
            target = str(rng.choice(["1,2,0 1,2,0", "1,2,9", "1,2", "01,2,0", "3,3,2,2,2",
                                     "0,0,0,0,0"]))
        elif op == 9 and len(tokens) > 3:  # a user group one digit short (after <T3> [BOS])
            j = 2 + int(rng.integers(2))
            tokens[j] = tokens[j].rsplit(",", 1)[0]
        elif op == 8 and tokens:  # a repeated token: [SEP] [SEP], two user groups ...
            j = min(i, len(tokens) - 1)
            tokens.insert(j, tokens[j])
        elif tokens:
            tokens.append(str(rng.choice(_POOL)))
    return "\t".join((stage, tag, " ".join(tokens), target))


def _outcome(call):
    try:
        result = call()
    except Exception as exc:  # the type and the message must both match
        return type(exc).__name__, str(exc)
    return "ok", result.tolist() if isinstance(result, np.ndarray) else result


def test_reader_matches_the_per_object_reference_on_mutated_lines(tmp_path):
    import stage3_oracle

    rng = np.random.default_rng(21)
    valid = _valid_lines(rng)
    path = tmp_path / "stage3.tsv"
    by_scheme = {SCHEME: [line for sch, line in valid if sch is SCHEME],
                 SCHEME3: [line for sch, line in valid if sch is SCHEME3]}
    outcomes = []
    for n in range(1200):
        scheme = (SCHEME, SCHEME3)[n % 2]
        good, line = by_scheme[scheme][0], by_scheme[scheme][int(rng.integers(len(by_scheme[scheme])))]
        path.write_text(f"{good}\n{_mutate(line, rng)}\n", encoding="utf-8")
        fresh = SidScheme(scheme.rq_sizes, scheme.opq_sizes)  # memos start empty on both sides
        want = _outcome(lambda: stage3_oracle.read_stage3_codes(path, fresh))
        got = _outcome(lambda: read_stage3_codes(path, scheme))
        assert got == want, (n, path.read_text())
        outcomes.append(str(want))
    for outcome in ("'ok'", "bracketed", "at least 3 segments", "exactly two code groups",
                    "is not in canonical form", "exactly one SID", "empty segment",
                    "unknown history segment tag", "10 digits", "stage 3 needs",
                    "stage must be", "unknown task tag", "outside [0,", "invalid literal"):
        assert any(outcome in text for text in outcomes), outcome  # every check is reached


def test_parse_prompt_matches_the_per_object_reference_on_mutated_prompts():
    import stage3_oracle

    rng = np.random.default_rng(22)
    valid = _valid_lines(rng)
    for _ in range(1000):
        scheme, line = valid[int(rng.integers(len(valid)))]
        tokens = _mutate(line, rng).split("\t")[2].split(" ")[1:]
        fresh = SidScheme(scheme.rq_sizes, scheme.opq_sizes)
        want = _outcome(lambda: stage3_oracle.parse_prompt(tokens, fresh))
        got = _outcome(lambda: parse_prompt(tokens, scheme))
        if got[0] == "ok":
            p = got[1]
            got = ("ok", (p.user.short_part, p.user.long_part, p.query_text, p.query_sid,
                          p.recent_queries, p.short_clicks))
        assert got == want, tokens


# --- the prompt-head memo against the per-object reader ---

def _session_lines(rng) -> list[tuple[SidScheme, list[str]]]:
    """The stage-3 lines of single sessions, two or more each, under a
    5-position scheme and under SCHEME3, whose user groups are integers."""
    out = []
    for sess in _random_sessions(rng, 300):
        records, _ = build_stage3([sess], _codebook())
        if len(records) > 1:
            out.append((SCHEME, ["\t".join(("3", r.task_tag, " ".join(r.input_tokens),
                                             r.target_tokens[0])) for r in records[:5]]))
    pool = ["1,2,0", "3,0,2", "0,0,0", "2,3,1", "1,1,2", "3,3,0"]
    for _ in range(200):
        head = (f"<T3> [BOS] {rng.choice(['0,1,2,3,0', '3,3,3,2,2'])} 1,1,1,1,1 [SEP] "
                f"{rng.choice(['red', 'red shoes', ''])} [SEP] {rng.choice(pool)}")
        if rng.random() < 0.4:
            head += " [SEP] q> " + " ".join(rng.choice(pool, size=int(rng.integers(1, 3))))
        clicks = [str(c) for c in rng.choice(pool, size=int(rng.integers(2, 5)))]
        agg = " agg:a1" if rng.random() < 0.3 else ""
        out.append((SCHEME3, [
            f"3\tpersonalization\t{head} "
            f"{('[SEP] i> ' + ' '.join(clicks[max(0, t - 2):t]) + ' ') if t else ''}[EOS]{agg}"
            f"\t{target}" for t, target in enumerate(clicks)]))
    return out


def _edit(tokens: list[str], rng, pool: list[str]) -> None:
    """One random edit of ``tokens``, in place."""
    op, i = int(rng.integers(6)), int(rng.integers(len(tokens) + 1))
    j = min(i, len(tokens) - 1)
    if op == 0 and tokens:
        del tokens[j]
    elif op == 1:
        tokens.insert(i, str(rng.choice(pool)))
    elif op == 2 and tokens:
        tokens[j] = str(rng.choice(pool))
    elif op == 3 and len(tokens) > 1:
        k = int(rng.integers(len(tokens) - 1))
        tokens[k], tokens[k + 1] = tokens[k + 1], tokens[k]
    elif op == 4 and tokens:  # one digit of one comma token
        digits = tokens[j].split(",")
        digits[int(rng.integers(len(digits)))] = str(rng.choice(["7", "-1", "01", "x", "", "2"]))
        tokens[j] = ",".join(digits)
    elif tokens and rng.random() < 0.5:  # a token repeated
        tokens.insert(j, tokens[j])
    elif tokens:  # a digit group cut short
        tokens[j] = tokens[j].rsplit(",", 1)[0]


def _mutate_part(line: str, rng, part: str, sids: list[str]) -> str:
    """``line`` with its window, target, ``agg:`` token or prompt head edited."""
    stage, tag, inputs, target = line.split("\t")
    tokens = inputs.split(" ")
    agg = tokens.pop() if tokens[-1].startswith("agg:") else None
    # the head ends where the window's [SEP] i> starts, or at [EOS]
    end = len(tokens) - 1
    if "i>" in tokens:
        end = len(tokens) - 1 - tokens[::-1].index("i>") - 1
    pool = _POOL + sids
    if part == "target":
        target = str(rng.choice(sids + ["1,2,0 1,2,0", "", "01,2,0", "1,2", "6,0,0,0,0",
                                        "3,3,2,2,2", "5,3,2,2,2"]))
    elif part == "agg":
        choice = int(rng.integers(4))
        if choice == 0:
            agg = None if agg else "agg:z"
        elif choice == 1:
            agg = str(rng.choice(["agg:", "agg:a1", "agg:[EOS]"]))
        else:
            tokens.insert(int(rng.integers(1, len(tokens) + 1)), "agg:a1")
    elif part == "window":
        window = tokens[end:]
        for _ in range(int(rng.integers(1, 3))):
            _edit(window, rng, pool)
        tokens[end:] = window
    else:
        head = tokens[1:end]
        _edit(head, rng, pool)
        tokens[1:end] = head
    inputs = " ".join(tokens + ([agg] if agg else []))
    return "\t".join((stage, tag, inputs, target))


def test_head_memo_matches_the_per_object_reference(tmp_path, monkeypatch):
    """Files of one session's lines, a mutated copy and the session's lines
    again: the codes, or the `path:line` message, equal the reference
    reader's, and the memo serves lines that repeat a head, mutated ones
    included."""
    import stage3_oracle
    from sidforge import identity

    walks = []
    prompt_fields = identity.prompt_fields
    monkeypatch.setattr(identity, "prompt_fields",
                        lambda tokens, scheme: walks.append(1) or prompt_fields(tokens, scheme))
    rng = np.random.default_rng(23)
    sessions = _session_lines(rng)
    sids = {SCHEME: sorted({sid.render() for sess in _random_sessions(rng, 10)
                            for sid in sess.short_clicks}),
            SCHEME3: ["1,2,0", "3,0,2", "2,3,1", "0,1,1"]}
    path = tmp_path / "stage3.tsv"
    outcomes, walked, read = [], 0, 0
    for n in range(1200):
        scheme, lines = sessions[int(rng.integers(len(sessions)))]
        part = ("window", "target", "agg", "head")[n % 4]
        mutated = _mutate_part(lines[int(rng.integers(len(lines)))], rng, part, sids[scheme])
        # the session's windowed lines again after the mutated one
        path.write_text("\n".join(lines + [mutated] + lines[1:]) + "\n", encoding="utf-8")
        fresh = SidScheme(scheme.rq_sizes, scheme.opq_sizes)
        want = _outcome(lambda: stage3_oracle.read_stage3_codes(path, fresh))
        walks.clear()
        got = _outcome(lambda: read_stage3_codes(path, scheme))
        assert got == want, (n, path.read_text())
        # the first line, the mutated one and the first line after it at most
        assert len(walks) <= 3, (n, path.read_text())
        walked, read = walked + len(walks), read + 2 * len(lines)
        outcomes.append(str(want))
    assert walked < 0.25 * read
    for outcome in ("'ok'", "bracketed", "at least 3 segments", "exactly two code groups",
                    "is not in canonical form", "exactly one SID", "empty segment",
                    "unknown history segment tag", "10 digits", "stage 3 needs",
                    "outside [0,", "invalid literal", "expected 5 digits"):
        assert any(outcome in text for text in outcomes), outcome  # every check is reached
