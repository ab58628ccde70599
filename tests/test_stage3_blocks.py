"""Stage 3 and the scorer fit in blocks: at every block size, `curriculum
--stage 3` gives the bytes, stdout and error of the all-in-memory reference
in ``stage3_oracle``, `fit-scorer` gives the bytes of a one-block fit, and
peak memory stays flat as the session count grows."""

import json
import tracemalloc

import numpy as np
import pytest

import stage3_oracle
from sidforge import curriculum
from sidforge._records import write_records
from sidforge.cli import main
from sidforge.curriculum import Session, stage3_rows
from sidforge.generator import cooccurrence_fit
from sidforge.quantizer import OpqCodebook, RqCodebook, RqOpqCodebook, load_codebook, \
    save_codebook
from sidforge.sids import Sid, SidScheme, read_sid_file, write_sid_file

CODES = 3
SCHEMES = {5: SidScheme((6, 4, 3), (CODES, CODES)), 3: SidScheme((6, 4), (CODES,))}
BLOCKS = [1, 2, 7, curriculum._BLOCK]


def _codebook(length: int) -> RqOpqCodebook:
    """A codebook of the test scheme; stage 3 reads only its scheme."""
    scheme, dim = SCHEMES[length], 4
    subspaces = len(scheme.opq_sizes)
    return RqOpqCodebook(
        RqCodebook([np.zeros((w, dim)) for w in scheme.rq_sizes], scheme.rq_sizes, False),
        OpqCodebook(np.eye(dim), [np.zeros((CODES, dim // subspaces))] * subspaces))


def _random_sid(rng, scheme) -> Sid:
    digits = [int(rng.integers(w)) for w in scheme.sizes]
    return Sid(tuple(digits[:len(scheme.rq_sizes)]), tuple(digits[len(scheme.rq_sizes):]))


def _inputs(root, rng, n_sessions: int, length: int = 5, caps: bool = True) -> dict:
    """A codebook, item and query SID files and sessions covering recent
    queries, long clicks, aggregate refs, empty click histories, sessions
    dropped for a missing SID and, with ``caps``, sequences at and over their
    caps (skipped)."""
    scheme = SCHEMES[length]
    root.mkdir(parents=True, exist_ok=True)
    save_codebook(_codebook(length), root / "cb.bin")
    items = [f"i{n}" for n in range(40)]
    sids = [(item, _random_sid(rng, scheme)) for item in items]
    sids.append(("i_twin", sids[0][1]))  # two items, one SID
    write_sid_file(root / "items.sids", sids)
    write_sid_file(root / "queries.sids",
                   [(f"q{n}", _random_sid(rng, scheme)) for n in range(6)])

    def clicks(n):
        return [items[int(i)] for i in rng.integers(len(items), size=n)]

    with open(root / "sessions.jsonl", "w", encoding="utf-8") as f:
        for s in range(n_sessions):
            obj = {"session_id": f"s{s}", "query_id": f"q{s % 6}", "clicked_item": clicks(1)[0],
                   "short_clicks": clicks(int(rng.choice([0, 0, 1, 3, 6, 9, 55])))}
            if obj["short_clicks"] and s % 2:
                obj["clicked_item"] = obj["short_clicks"][-1]
            if s % 7 == 3:
                obj["query_text"] = " ".join(rng.choice(["red", "shoes", "", "big"], size=3))
            if s % 3 == 0:
                obj["long_clicks"] = clicks(int(rng.choice([1, 4, 60])))
            if s % 4 == 1:
                obj["recent_queries"] = [f"q{int(q)}" for q in rng.integers(6, size=2)]
            if s % 5 == 2:
                obj["aggregate_ref"] = f"a{s}"
            if s % 11 == 5:  # dropped: a click, the query or a recent query has no SID
                key = ["clicked_item", "short_clicks", "query_id", "recent_queries"][s % 4]
                obj[key] = ["nope"] if key.endswith("s") else "nope"
            if caps and s % 13 == 6:
                obj["short_clicks"] = clicks(501)  # over the short-click cap
            if caps and s % 17 == 8:
                obj["long_clicks"] = clicks(5001)  # over the long-click cap
            if caps and s % 19 == 9:
                obj["short_clicks"] = clicks(500)  # at the cap, the clicked item last
                obj["clicked_item"] = obj["short_clicks"][-1]
            f.write(json.dumps(obj) + "\n")
    return {"sessions": root / "sessions.jsonl", "sids": root / "items.sids",
            "query_sids": root / "queries.sids", "codebook": root / "cb.bin",
            "scheme": scheme}


def _curriculum(paths, out, max_window: int) -> None:
    assert main(["curriculum", "--stage", "3", "--sessions", str(paths["sessions"]),
                 "--sids", str(paths["sids"]), "--query-sids", str(paths["query_sids"]),
                 "--codebook", str(paths["codebook"]), "--max-window", str(max_window),
                 "--out", str(out)]) == 0


def _oracle_curriculum(paths, out, max_window: int) -> None:
    """What `curriculum --stage 3` did with every session and record in memory."""
    codebook = load_codebook(paths["codebook"])
    items = read_sid_file(paths["sids"], codebook.scheme).entries
    queries = read_sid_file(paths["query_sids"], codebook.scheme).entries
    sessions = stage3_oracle.read_sessions(paths["sessions"], items, queries)
    rows, stats = stage3_oracle.stage3_rows(sessions, codebook, max_window)
    write_records(out, rows)
    print(f"records={len(rows)} skipped={stats.skipped}")


def _outcome(call, out, capsys):
    """What ``call`` leaves: its stdout and output bytes, or its error; an
    output that existed before keeps its bytes on an error."""
    out.write_bytes(b"old\n")
    capsys.readouterr()
    try:
        call()
    except Exception as exc:  # the type and the message must both match
        return type(exc).__name__, str(exc), out.read_bytes()
    return "ok", capsys.readouterr().out, out.read_bytes()


def _api_sessions(rng, n: int, scheme) -> list[Session]:
    """Sessions of the library API, some with an invalid click SID, a query
    text holding a reserved token or an aggregate reference holding a space."""
    invalid = _random_sid(rng, scheme)
    pool = [_random_sid(rng, scheme) for _ in range(30)]
    pool.append(Sid((9, *invalid.rq[1:]), invalid.opq))  # 9 is past the first level's 6 codes
    sessions = []
    for s in range(n):
        short = tuple(pool[int(i)] for i in rng.integers(len(pool), size=int(
            rng.choice([0, 1, 2, 4, 51]))))
        sessions.append(Session(
            session_id=f"s{s}",
            query_text=str(rng.choice(["red shoes", "", "big", "red [EOS]"], p=[.4, .3, .28, .02])),
            query_sid=pool[int(rng.integers(len(pool)))],
            clicked_sid=pool[int(rng.integers(len(pool) - 1))],
            short_clicks=short,
            long_clicks=tuple(pool[:int(rng.choice([0, 0, 3, 60]))]),
            recent_queries=tuple(pool[:int(rng.choice([0, 2]))]),
            aggregate_ref=str(rng.choice(["a1", "a b"], p=[.98, .02])) if s % 3 else None,
        ))
    return sessions


class TestStage3Blocks:
    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        return _inputs(tmp_path_factory.mktemp("blocks"), np.random.default_rng(7), 90)

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("max_window", [1, 2, curriculum.DEFAULT_MAX_WINDOW])
    def test_records_and_scorer_equal_the_in_memory_reference(
            self, paths, tmp_path, capsys, monkeypatch, block, max_window):
        want = _outcome(lambda: _oracle_curriculum(paths, tmp_path / "want.tsv", max_window),
                        tmp_path / "want.tsv", capsys)
        monkeypatch.setattr(curriculum, "_BLOCK", block)
        got = _outcome(lambda: _curriculum(paths, tmp_path / "got.tsv", max_window),
                       tmp_path / "got.tsv", capsys)
        assert got == want
        assert want[0] == "ok" and want[1].endswith(" skipped=11\n"), want[1]
        records = want[2].decode().splitlines()
        assert len(records) > 300 and any(" q> " in r for r in records)
        assert any(" agg:" in r for r in records) and any(" i> " not in r for r in records)

        scheme = paths["scheme"]
        cooccurrence_fit(stage3_oracle.read_stage3_codes(tmp_path / "got.tsv", scheme),
                         scheme).save(tmp_path / "one_block.json")
        assert main(["fit-scorer", "--records", str(tmp_path / "got.tsv"), "--levels", "6,4,3",
                     "--opq", "2x3", "--out", str(tmp_path / "scorer.json")]) == 0
        assert (tmp_path / "scorer.json").read_bytes() == \
            (tmp_path / "one_block.json").read_bytes()

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("case", ["late_bad_line", "short_codebook",
                                      "short_codebook_late_bad_line", "window_0",
                                      "window_0_nothing_kept", "late_missing_key",
                                      "late_number_id"])
    def test_errors_equal_the_in_memory_reference(self, tmp_path, capsys, monkeypatch,
                                                  block, case):
        """A malformed line in a later block keeps its own `path:line`; the
        checks of a kept session raise as before, after every line is read."""
        paths = _inputs(tmp_path / "in", np.random.default_rng(3), 40,
                        length=3 if case.startswith("short_codebook") else 5)
        lines = paths["sessions"].read_text().splitlines()
        if case.endswith("late_bad_line"):
            lines.insert(30, json.dumps({"session_id": "x", "query_id": "q1",
                                         "clicked_item": "i1", "query_text": "red [SEP]"}))
        if case == "late_missing_key":
            lines.insert(25, json.dumps({"session_id": "x", "clicked_item": "i1"}))
        if case == "late_number_id":
            lines.insert(27, json.dumps({"session_id": "x", "query_id": "q1", "clicked_item": 7}))
        if case == "window_0_nothing_kept":
            lines = [json.dumps({"session_id": "x", "query_id": "q1", "clicked_item": "nope"})]
        paths["sessions"].write_text("\n".join(lines) + "\n")
        window = 0 if case.startswith("window_0") else 2
        want = _outcome(lambda: _oracle_curriculum(paths, tmp_path / "out.tsv", window),
                        tmp_path / "out.tsv", capsys)
        monkeypatch.setattr(curriculum, "_BLOCK", block)
        got = _outcome(lambda: _curriculum(paths, tmp_path / "out.tsv", window),
                       tmp_path / "out.tsv", capsys)
        assert got == want
        expected = {"late_bad_line": f"{paths['sessions']}:31: query text may not contain",
                    "short_codebook": "user id must have 10 digits",
                    "short_codebook_late_bad_line": f"{paths['sessions']}:31: ",
                    "window_0": "max_window must be >= 1, got 0",
                    "window_0_nothing_kept": "records=0 skipped=0",
                    "late_missing_key": f"{paths['sessions']}:26: missing key 'query_id'",
                    "late_number_id": f"{paths['sessions']}:28: expected an id string"}[case]
        assert want[1].startswith(expected), want

    @pytest.mark.parametrize("block", BLOCKS)
    def test_stage3_rows_equal_the_in_memory_reference(self, monkeypatch, block):
        """Skips, rows and the first error, whichever check raises it."""
        monkeypatch.setattr(curriculum, "_BLOCK", block)
        rng = np.random.default_rng(block)
        failures = set()
        for trial in range(60):
            length = 3 if trial % 10 == 9 else 5
            sessions = _api_sessions(rng, int(rng.integers(1, 40)), SCHEMES[length])
            window = int(rng.choice([0, 1, 3])) if trial % 5 == 4 else 2
            outcomes = []
            for build in (stage3_oracle.stage3_rows, stage3_rows):
                try:
                    outcomes.append(build(iter(sessions), _codebook(length), window))
                except ValueError as exc:
                    outcomes.append(str(exc))
            assert outcomes[1] == outcomes[0], trial
            if isinstance(outcomes[0], str):
                failures.add(outcomes[0].split(" ")[0])
        assert failures == {"query", "aggregate_ref", "user", "max_window"}


def test_peak_memory_does_not_grow_with_the_session_count(tmp_path, capsys, monkeypatch):
    """`curriculum --stage 3` then `fit-scorer` hold one block at a time:
    ten times the sessions peak under twice the memory. Blocks of 64
    sessions keep the inputs small."""
    monkeypatch.setattr(curriculum, "_BLOCK", 64)
    peaks = []
    for n in (200, 2000):
        paths = _inputs(tmp_path / str(n), np.random.default_rng(n), n, caps=False)
        out = tmp_path / str(n) / "stage3.tsv"
        tracemalloc.start()
        try:
            _curriculum(paths, out, 3)
            assert main(["fit-scorer", "--records", str(out), "--levels", "6,4,3",
                         "--opq", "2x3", "--out", str(tmp_path / str(n) / "scorer.json")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0], peaks
