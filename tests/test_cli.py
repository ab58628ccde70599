import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sidforge
from sidforge import reward
from sidforge.cli import main
from sidforge.embedding import Catalog, load_catalog, save_catalog
from sidforge.sids import SidScheme, read_sid_file, read_sid_sequence

LEVELS = "4,3,2"
OPQ = "2x2"
SCHEME = SidScheme((4, 3, 2), (2, 2))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic catalog, fitted codebook, and encoded SIDs for CLI runs."""
    root = tmp_path_factory.mktemp("ws")
    spec = {
        "clusters": 4, "items_per_cluster": 8, "dim": 6,
        "noise_scale": 0.4, "sessions": 20, "seed": 11,
    }
    (root / "spec.json").write_text(json.dumps(spec))
    assert main(["synth", "--spec", str(root / "spec.json"), "--out", str(root / "data")]) == 0
    assert main([
        "fit-codebook", "--catalog", str(root / "data" / "items.catalog"),
        "--levels", LEVELS, "--balanced-last", "--opq", OPQ,
        "--seed", "3", "--out", str(root / "cb.bin"),
    ]) == 0
    assert main([
        "encode", "--codebook", str(root / "cb.bin"),
        "--catalog", str(root / "data" / "items.catalog"),
        "--out", str(root / "items.sids"),
    ]) == 0
    assert main([
        "encode", "--codebook", str(root / "cb.bin"),
        "--catalog", str(root / "data" / "queries.catalog"),
        "--out", str(root / "queries.sids"),
    ]) == 0
    return root


class TestSynthAndCodebook:
    def test_synth_outputs_exist(self, workspace):
        for name in ("items.catalog", "queries.catalog", "categories.tsv",
                     "keywords.catalog", "sessions.jsonl"):
            assert (workspace / "data" / name).exists()

    def test_encode_emits_parseable_sids(self, workspace):
        catalog = read_sid_file(workspace / "items.sids", SCHEME)
        assert len(catalog) == 32


@pytest.mark.parametrize("spec, field", [
    ({"sessions": 5, "max_session_clicks": -1}, "max_session_clicks"),
    ({"center_scale": -1}, "center_scale"),
    ({"collapsed_frac": 0.5, "collapse_points": 2, "collapse_noise": -0.1}, "collapse_noise"),
    ({"items_per_cluster": 2.5}, "items_per_cluster"),
    ({"dim": True}, "dim"),
], ids=["negative_clicks", "negative_center_scale", "negative_collapse_noise",
        "fractional_count", "bool_dim"])
def test_synth_bad_spec_names_path(tmp_path, spec, field):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    with pytest.raises(ValueError) as info:
        main(["synth", "--spec", str(path), "--out", str(tmp_path / "data")])
    assert str(info.value).startswith(f"{path}: {field} must be "), str(info.value)


class TestEnhance:
    def test_enhanced_catalog_tightens_items_toward_keywords(self, workspace):
        out = workspace / "enhanced.catalog"
        assert main([
            "enhance", "--catalog", str(workspace / "data" / "items.catalog"),
            "--keywords", str(workspace / "data" / "keywords.catalog"),
            "--out", str(out),
        ]) == 0
        base = load_catalog(workspace / "data" / "items.catalog")
        enhanced = load_catalog(out)
        assert enhanced.ids == base.ids
        assert not np.allclose(enhanced.matrix, base.matrix)


class TestFilterPairs:
    def test_threshold_filtering(self, workspace, capsys):
        pairs = workspace / "pairs.tsv"
        pairs.write_text("a\tb\tq2i\t0.7\na\tc\tq2i\t0.5\nb\tc\ti2i\t0.61\n")
        assert main(["filter-pairs", "--pairs", str(pairs), "--threshold", "0.6"]) == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        assert len(out_lines) == 2
        assert out_lines[0].startswith("a\tb")

    @pytest.mark.parametrize("threshold", ["1.5", "-1.01"])
    def test_threshold_outside_unit_range_rejected(self, workspace, threshold):
        pairs = workspace / "pairs.tsv"
        pairs.write_text("a\tb\tq2i\t0.7\n")
        out = workspace / "kept.tsv"
        with pytest.raises(ValueError, match="outside"):
            main(["filter-pairs", "--pairs", str(pairs), "--threshold", threshold,
                  "--out", str(out)])
        assert not out.exists()


class TestMetricsAndDrift:
    def test_metrics_report(self, workspace):
        out = workspace / "metrics.tsv"
        assert main([
            "metrics", "--sids", str(workspace / "items.sids"),
            "--levels", LEVELS, "--opq", OPQ, "--with-opq", "--out", str(out),
        ]) == 0
        lines = dict(l.split("\t") for l in out.read_text().splitlines())
        assert set(lines) == {"cur_prefix1", "cur_prefix2", "cur_prefix3", "icr_rq", "icr_full"}
        assert float(lines["icr_full"]) >= float(lines["icr_rq"])

    def test_drift_report(self, workspace):
        batches = workspace / "batches"
        batches.mkdir(exist_ok=True)
        base = load_catalog(workspace / "data" / "items.catalog")
        save_catalog(Catalog(["n1", "n2"], base.matrix[:2] + 0.01), batches / "b0.catalog")
        out = workspace / "drift.tsv"
        assert main([
            "drift", "--codebook", str(workspace / "cb.bin"),
            "--baseline", str(workspace / "items.sids"),
            "--batches", str(batches), "--out", str(out),
        ]) == 0
        header, row = out.read_text().splitlines()
        assert header.split("\t") == ["batch", "size", "cumulative", "icr", "occupied_ratio"]
        assert row.split("\t")[1] == "2"


class TestUsageErrorsExit:
    """Bad flag combinations exit with a message instead of a traceback."""

    def test_bad_opq(self, workspace):
        with pytest.raises(SystemExit, match="--opq expects SUBSPACESxCODES"):
            main(["metrics", "--sids", str(workspace / "items.sids"),
                  "--levels", LEVELS, "--opq", "2by2"])

    def test_drift_without_batches(self, workspace, tmp_path):
        with pytest.raises(SystemExit, match=f"no \\*.catalog files under {tmp_path}"):
            main(["drift", "--codebook", str(workspace / "cb.bin"),
                  "--baseline", str(workspace / "items.sids"), "--batches", str(tmp_path)])

    def test_defaults_without_query(self, workspace, tmp_path):
        (tmp_path / "stats.tsv").write_text("")
        with pytest.raises(SystemExit, match="--defaults requires --query"):
            main(["encode-user", "--codebook", str(workspace / "cb.bin"),
                  "--defaults", str(tmp_path / "stats.tsv")])

    def test_empty_sequences_without_defaults(self, workspace, tmp_path):
        (tmp_path / "empty.sids").write_text("")
        with pytest.raises(SystemExit, match="empty behavior sequence and no --defaults"):
            main(["encode-user", "--codebook", str(workspace / "cb.bin"),
                  "--short", str(tmp_path / "empty.sids")])

    def test_dpo_eval_missing_logprob(self, tmp_path):
        lists, logps = tmp_path / "lists.jsonl", tmp_path / "logps.tsv"
        lists.write_text('{"context":"q1","winner":"w","losers":["l"],"deltas":[0.5]}\n')
        logps.write_text("q1\tw\t-1.0\t-1.0\n")
        with pytest.raises(SystemExit, match=r"missing log-probability entry for \('q1', 'l'\)"):
            main(["dpo-eval", "--lists", str(lists), "--logprobs", str(logps),
                  "--out", str(tmp_path / "dpo.tsv")])
        assert not (tmp_path / "dpo.tsv").exists()


class TestEncodeUser:
    def test_user_id_and_aggregate(self, workspace):
        sid_lines = (workspace / "items.sids").read_text().splitlines()
        (workspace / "short.sids").write_text("\n".join(sid_lines[:3]) + "\n")
        (workspace / "long.sids").write_text("\n".join(sid_lines[3:8]) + "\n")
        out = workspace / "user.tsv"
        agg = workspace / "agg.catalog"
        assert main([
            "encode-user", "--codebook", str(workspace / "cb.bin"),
            "--short", str(workspace / "short.sids"),
            "--long", str(workspace / "long.sids"),
            "--out", str(out), "--aggregate-out", str(agg),
        ]) == 0
        label, digits = out.read_text().strip().split("\t")
        assert label == "user"
        assert len(digits.split(",")) == 10
        agg_catalog = load_catalog(agg)
        assert agg_catalog.ids == ["click.L1", "click.L2", "click.L3",
                                   "order.L1", "order.L2", "order.L3",
                                   "rsu.L1", "rsu.L2", "rsu.L3"]

    def test_cold_start_defaults(self, workspace):
        stats = workspace / "stats.tsv"
        sid_lines = (workspace / "items.sids").read_text().splitlines()
        rows = []
        for pv, line in enumerate(sid_lines[:4]):
            item_id, sid = line.split("\t")
            rows.append(f"red shoes\t{item_id}\t{sid}\t{100 - pv}")
        stats.write_text("\n".join(rows) + "\n")
        out = workspace / "cold_user.tsv"
        assert main([
            "encode-user", "--codebook", str(workspace / "cb.bin"),
            "--defaults", str(stats), "--query", "red shoes", "--out", str(out),
        ]) == 0
        assert out.read_text().startswith("user\t")


class TestRewardCommands:
    def test_build_pairs_and_dpo_eval(self, workspace):
        inter = workspace / "inter.tsv"
        inter.write_text(
            "q1\twin\t1\t100\t60\t30\n"
            "q1\tlose1\t5\t0\t0\t0\n"
            "q1\tlose2\t6\t50\t0\t0\n"
        )
        lists = workspace / "lists.jsonl"
        assert main(["build-pairs", "--interactions", str(inter), "--out", str(lists)]) == 0
        parsed = [json.loads(l) for l in lists.read_text().splitlines()]
        assert parsed[0]["winner"] == "win"
        assert parsed[0]["losers"] == ["lose1", "lose2"]

        logps = workspace / "logps.tsv"
        logps.write_text(
            "q1\twin\t-1.0\t-1.0\n"
            "q1\tlose1\t-2.0\t-2.0\n"
            "q1\tlose2\t-2.0\t-2.0\n"
        )
        out = workspace / "dpo.tsv"
        assert main([
            "dpo-eval", "--lists", str(lists), "--logprobs", str(logps),
            "--beta", "0.1", "--alpha", "0.0", "--delta", "0.1", "--out", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[-1].startswith("__mean__\t")
        # policy == reference with two inactive hinges: -log sigmoid(log 2)
        assert float(lines[0].split("\t")[1]) == pytest.approx(-np.log(2 / 3), abs=1e-12)


class TestCurriculumCommands:
    def test_stage1(self, workspace):
        texts = workspace / "texts.tsv"
        cats = workspace / "cats.tsv"
        items = read_sid_file(workspace / "items.sids", SCHEME)
        ids = sorted(items.entries)[:3]
        texts.write_text("".join(f"{i}\tdescription of {i}\n" for i in ids))
        cats.write_text("".join(f"{i}\tcat\n" for i in ids))
        out = workspace / "stage1.tsv"
        assert main([
            "curriculum", "--stage", "1", "--texts", str(texts),
            "--categories", str(cats), "--sids", str(workspace / "items.sids"),
            "--levels", LEVELS, "--opq", OPQ, "--out", str(out),
        ]) == 0
        assert len(out.read_text().splitlines()) == 12

    def test_stage2(self, workspace):
        pairs = workspace / "qi.tsv"
        items = sorted(read_sid_file(workspace / "items.sids", SCHEME).entries)
        queries = sorted(read_sid_file(workspace / "queries.sids", SCHEME).entries)
        pairs.write_text(f"{queries[0]}\t{items[0]}\n")
        merged = workspace / "merged.sids"
        merged.write_text((workspace / "items.sids").read_text()
                          + (workspace / "queries.sids").read_text())
        out = workspace / "stage2.tsv"
        assert main([
            "curriculum", "--stage", "2", "--pairs", str(pairs),
            "--sids", str(merged), "--levels", LEVELS, "--opq", OPQ,
            "--out", str(out),
        ]) == 0
        assert len(out.read_text().splitlines()) == 4

    def test_stage3_and_scorer_and_generate_and_evaluate(self, workspace):
        out = workspace / "stage3.tsv"
        assert main([
            "curriculum", "--stage", "3",
            "--sessions", str(workspace / "data" / "sessions.jsonl"),
            "--sids", str(workspace / "items.sids"),
            "--query-sids", str(workspace / "queries.sids"),
            "--codebook", str(workspace / "cb.bin"),
            "--out", str(out),
        ]) == 0
        assert out.read_text()

        scorer = workspace / "scorer.json"
        assert main([
            "fit-scorer", "--records", str(out),
            "--levels", LEVELS, "--opq", OPQ, "--out", str(scorer),
        ]) == 0

        gen_out = workspace / "gen.tsv"
        queries = read_sid_file(workspace / "queries.sids", SCHEME)
        context = next(iter(sorted(queries.entries)))
        assert main([
            "generate", "--trie-from", str(workspace / "items.sids"),
            "--levels", LEVELS, "--opq", OPQ, "--scorer", str(scorer),
            "--context", queries.entries[context].render(),
            "--beam", "4", "--out", str(gen_out),
        ]) == 0
        rows = [l.split("\t") for l in gen_out.read_text().splitlines()]
        assert len(rows) <= 4
        assert rows[0][0] == "1"
        assert rows[0][3] != "-"

        cases = workspace / "cases.jsonl"
        with open(cases, "w") as f:
            for q_id, q_sid in sorted(queries.entries.items()):
                cluster = q_id.removeprefix("query")
                f.write(json.dumps({
                    "context": q_sid.render(),
                    "truth": [f"item{cluster}_0"],
                }) + "\n")
        eval_out = workspace / "eval.tsv"
        assert main([
            "evaluate", "--codebook", str(workspace / "cb.bin"),
            "--scorer", str(scorer),
            "--catalog", str(workspace / "data" / "items.catalog"),
            "--cases", str(cases), "--k", "1,5", "--beam", "8",
            "--out", str(eval_out),
        ]) == 0
        assert eval_out.read_text().startswith("k\thitrate\tmrr")

    @pytest.mark.parametrize("text, detail", [
        (5, "query text must be a string"),
        ("red [SEP] shoe", "reserved token '[SEP]'"),
    ], ids=["not_a_string", "reserved_token"])
    def test_stage3_bad_query_text_names_path_and_line(self, workspace, tmp_path, text, detail):
        lines = (workspace / "data" / "sessions.jsonl").read_text().splitlines()
        bad = dict(json.loads(lines[0]), query_text=text)
        sessions = tmp_path / "sessions.jsonl"
        sessions.write_text("\n".join([*lines, json.dumps(bad)]) + "\n")
        out = tmp_path / "stage3.tsv"
        with pytest.raises(ValueError) as info:
            main(["curriculum", "--stage", "3", "--sessions", str(sessions),
                  "--sids", str(workspace / "items.sids"),
                  "--query-sids", str(workspace / "queries.sids"),
                  "--codebook", str(workspace / "cb.bin"), "--out", str(out)])
        assert str(info.value).startswith(f"{sessions}:{len(lines) + 1}: "), str(info.value)
        assert detail in str(info.value)

    def test_generate_with_prompt_file_context(self, workspace):
        from sidforge.identity import UserSid, assemble_prompt

        queries = read_sid_file(workspace / "queries.sids", SCHEME)
        q_sid = queries.entries[sorted(queries.entries)[0]]
        user = UserSid((0, 0, 0, 0, 0), (1, 1, 1, 0, 0))
        tokens = assemble_prompt(user, "red shoes", q_sid)
        prompt_path = workspace / "prompt.txt"
        prompt_path.write_text(" ".join(tokens))
        out = workspace / "gen_prompt.tsv"
        assert main([
            "generate", "--trie-from", str(workspace / "items.sids"),
            "--levels", LEVELS, "--opq", OPQ,
            "--scorer", str(workspace / "scorer.json"),
            "--context", str(prompt_path), "--beam", "4", "--out", str(out),
        ]) == 0
        assert len(out.read_text().splitlines()) <= 4

    def test_missing_stage_inputs_rejected(self, workspace):
        with pytest.raises(SystemExit, match="needs --"):
            main(["curriculum", "--stage", "1", "--out", str(workspace / "x.tsv")])
        with pytest.raises(SystemExit, match="needs --"):
            main(["curriculum", "--stage", "3", "--sids", str(workspace / "items.sids"),
                  "--out", str(workspace / "x.tsv")])

    def test_unconstrained_generate_flags_invalid(self, workspace):
        scorer = workspace / "scorer.json"
        gen_out = workspace / "gen_unc.tsv"
        queries = read_sid_file(workspace / "queries.sids", SCHEME)
        context = sorted(queries.entries)[0]
        assert main([
            "generate", "--trie-from", str(workspace / "items.sids"),
            "--levels", LEVELS, "--opq", OPQ, "--scorer", str(scorer),
            "--context", queries.entries[context].render(),
            "--beam", "16", "--unconstrained", "--out", str(gen_out),
        ]) == 0
        rows = [l.split("\t") for l in gen_out.read_text().splitlines()]
        assert len(rows) == 16
        assert any(r[3] == "-" for r in rows)


class TestFlagsReachTheApi:
    """Each flag below changes the command's output bytes to those of the API
    call given the same non-default value, so a flag that is dropped or wired
    to another parameter fails."""

    @pytest.mark.parametrize("flag, kwargs", [("--iters", {"iters": 2}),
                                              ("--opq-iters", {"opq_outer_iters": 1})])
    def test_fit_codebook(self, workspace, tmp_path, flag, kwargs):
        from sidforge.quantizer import fit_codebook, save_codebook

        catalog = workspace / "data" / "items.catalog"
        assert main(["fit-codebook", "--catalog", str(catalog), "--levels", LEVELS,
                     "--balanced-last", "--opq", OPQ, "--seed", "3",
                     flag, str(*kwargs.values()), "--out", str(tmp_path / "cli.bin")]) == 0
        save_codebook(fit_codebook(load_catalog(catalog), (4, 3, 2), balanced_last=True,
                                   opq_subspaces=2, opq_codes=2, seed=3, **kwargs),
                      tmp_path / "api.bin")
        for name in ("{}.bin", "{}.bin.meta.json"):
            cli = (tmp_path / name.format("cli")).read_bytes()
            assert cli == (tmp_path / name.format("api")).read_bytes()
            assert cli != (workspace / name.format("cb")).read_bytes()

    def test_curriculum_max_window(self, workspace, tmp_path):
        from sidforge import curriculum
        from sidforge.cli import _read_sessions
        from sidforge.quantizer import load_codebook

        assert main(["curriculum", "--stage", "3",
                     "--sessions", str(workspace / "data" / "sessions.jsonl"),
                     "--sids", str(workspace / "items.sids"),
                     "--query-sids", str(workspace / "queries.sids"),
                     "--codebook", str(workspace / "cb.bin"), "--max-window", "1",
                     "--out", str(tmp_path / "cli.tsv")]) == 0
        codebook = load_codebook(workspace / "cb.bin")
        sessions = _read_sessions(workspace / "data" / "sessions.jsonl",
                                  read_sid_file(workspace / "items.sids", SCHEME).entries,
                                  read_sid_file(workspace / "queries.sids", SCHEME).entries)
        cli = (tmp_path / "cli.tsv").read_bytes()
        for window, path in ((1, "api.tsv"), (curriculum.DEFAULT_MAX_WINDOW, "default.tsv")):
            records, _ = curriculum.build_stage3(sessions, codebook, max_window=window)
            curriculum.write_task_records(records, tmp_path / path)
        assert cli == (tmp_path / "api.tsv").read_bytes()
        assert cli != (tmp_path / "default.tsv").read_bytes()

    _INTERACTIONS = ("q1\twin\t1\t100\t60\t30\n"
                     "q1\tlose1\t5\t0\t0\t0\n"
                     "q1\tlose2\t4\t50\t40\t30\n")

    @pytest.mark.parametrize("flags, kwargs", [
        (["--epsilon", "1000"], {"epsilon": 1000.0}),
        (["--reranks", "{reranks}"], {"reranks": [
            reward.RerankRecord("q2", ("a", "b", "c"), ("c", "a", "b"))]}),
    ], ids=["epsilon", "reranks"])
    def test_build_pairs(self, tmp_path, flags, kwargs):
        inter = tmp_path / "inter.tsv"
        inter.write_text(self._INTERACTIONS)
        reranks = tmp_path / "reranks.tsv"
        reranks.write_text("q2\ta,b,c\tc,a,b\n")
        flags = [f.format(reranks=reranks) for f in flags]
        assert main(["build-pairs", "--interactions", str(inter), *flags,
                     "--out", str(tmp_path / "cli.jsonl")]) == 0
        records = reward.read_interactions(inter)
        for path, options in (("api.jsonl", kwargs), ("default.jsonl", {})):
            reward.write_preference_lists(
                reward.build_preference_lists(records, **options)[0], tmp_path / path)
        cli = (tmp_path / "cli.jsonl").read_bytes()
        assert cli == (tmp_path / "api.jsonl").read_bytes()
        assert cli != (tmp_path / "default.jsonl").read_bytes()

    def test_drift_rq_only(self, workspace, tmp_path):
        from sidforge.quantizer import load_codebook
        from sidforge.sidmetrics import drift_report

        base = load_catalog(workspace / "data" / "items.catalog")
        batches = tmp_path / "batches"
        batches.mkdir()
        batch = base.matrix[::3] + 0.05
        save_catalog(Catalog([f"n{i}" for i in range(len(batch))], batch),
                     batches / "b0.catalog")
        assert main(["drift", "--codebook", str(workspace / "cb.bin"),
                     "--baseline", str(workspace / "items.sids"), "--batches", str(batches),
                     "--rq-only", "--out", str(tmp_path / "cli.tsv")]) == 0
        codebook = load_codebook(workspace / "cb.bin")
        baseline = read_sid_file(workspace / "items.sids", codebook.scheme)
        batch = load_catalog(batches / "b0.catalog").matrix

        def rendered(use_opq):
            return "batch\tsize\tcumulative\ticr\toccupied_ratio\n" + "".join(
                f"{s.batch_index}\t{s.batch_size}\t{s.cumulative_size}\t{s.icr!r}\t"
                f"{s.occupied_ratio!r}\n"
                for s in drift_report(codebook, baseline, [batch], use_opq=use_opq))

        cli = (tmp_path / "cli.tsv").read_text()
        assert cli == rendered(False)
        assert cli != rendered(True)

    def test_encode_user_long_order_and_rsu(self, workspace, tmp_path):
        from sidforge.identity import BehaviorSequence, aggregate_long
        from sidforge.quantizer import load_codebook

        lines = (workspace / "items.sids").read_text().splitlines()
        files = {}
        for name, rows in (("short", lines[:3]), ("long", lines[3:8]),
                           ("order", lines[8:11]), ("rsu", lines[11:15])):
            files[name] = tmp_path / f"{name}.sids"
            files[name].write_text("\n".join(rows) + "\n")
        assert main(["encode-user", "--codebook", str(workspace / "cb.bin"),
                     "--short", str(files["short"]), "--long", str(files["long"]),
                     "--long-order", str(files["order"]), "--long-rsu", str(files["rsu"]),
                     "--aggregate-out", str(tmp_path / "cli.catalog"),
                     "--out", str(tmp_path / "user.tsv")]) == 0
        codebook = load_codebook(workspace / "cb.bin")

        def seq(name, kind):
            entries = read_sid_sequence(files[name], codebook.scheme)
            return BehaviorSequence(tuple(sid for _, sid in entries), kind)

        empty = {kind: BehaviorSequence((), kind) for kind in ("long_order", "long_rsu")}
        for path, order, rsu in (("api.catalog", seq("order", "long_order"),
                                  seq("rsu", "long_rsu")),
                                 ("default.catalog", empty["long_order"], empty["long_rsu"])):
            rows = aggregate_long(seq("long", "long_click"), order, rsu, codebook).as_rows()
            save_catalog(Catalog([r[0] for r in rows], np.stack([r[1] for r in rows])),
                         tmp_path / path)
        cli = (tmp_path / "cli.catalog").read_bytes()
        assert cli == (tmp_path / "api.catalog").read_bytes()
        assert cli != (tmp_path / "default.catalog").read_bytes()


class TestEvaluateSids:
    def _scorer(self, workspace):
        from sidforge.generator import cooccurrence_fit

        sids = read_sid_file(workspace / "items.sids", SCHEME).sids()
        path = workspace / "sids_scorer.json"
        cooccurrence_fit([(sid, sid) for sid in sids], SCHEME).save(path)
        return path

    @pytest.mark.parametrize("edit", ["drop", "extra"])
    def test_ids_differing_from_the_catalog_name_the_path(self, workspace, edit):
        lines = (workspace / "items.sids").read_text().splitlines()
        lines = lines[1:] if edit == "drop" else lines + [lines[0].replace("item", "other", 1)]
        sids = workspace / f"{edit}.sids"
        sids.write_text("\n".join(lines) + "\n")
        cases = workspace / "one_case.jsonl"
        cases.write_text(json.dumps({"context": lines[0].split("\t")[1],
                                     "truth": ["item0_0"]}) + "\n")
        with pytest.raises(ValueError) as info:
            main(["evaluate", "--codebook", str(workspace / "cb.bin"),
                  "--scorer", str(self._scorer(workspace)),
                  "--catalog", str(workspace / "data" / "items.catalog"),
                  "--cases", str(cases), "--sids", str(sids),
                  "--out", str(workspace / "never.tsv")])
        assert str(info.value).startswith(f"{sids}: SID file ids differ"), str(info.value)
        assert not (workspace / "never.tsv").exists()


def test_evaluate_with_sids_matches_run_eval_on_fit_sids(tmp_path):
    """Criterion 9 through the CLI: ``evaluate --sids`` ranks against the
    codes ``fit-codebook --sids-out`` wrote, as ``run_eval`` does with the
    fit's own SIDs."""
    from sidforge.evalharness import EvalCase, run_eval
    from sidforge.generator import cooccurrence_fit
    from sidforge.quantizer import encode_batch, fit_codebook
    from sidforge.sids import SidCatalog

    spec = {"clusters": 100, "items_per_cluster": 50, "dim": 16, "noise_scale": 0.5,
            "center_scale": 10.0, "sessions": 20_000, "seed": 42}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    data = tmp_path / "data"
    assert main(["synth", "--spec", str(tmp_path / "spec.json"), "--out", str(data)]) == 0
    assert main(["fit-codebook", "--catalog", str(data / "items.catalog"),
                 "--levels", "64,32,16", "--balanced-last", "--opq", "2x16", "--seed", "7",
                 "--out", str(tmp_path / "cb.bin"), "--sids-out", str(tmp_path / "items.sids")]) == 0

    items = load_catalog(data / "items.catalog")
    cb = fit_codebook(items, (64, 32, 16), balanced_last=True, opq_subspaces=2, opq_codes=16,
                      seed=7)
    sid_catalog = SidCatalog(dict(zip(items.ids, cb.fit_sids)), cb.scheme)
    queries = load_catalog(data / "queries.catalog")
    q_sids = dict(zip(queries.ids, encode_batch(queries.matrix, cb)))
    sessions = [json.loads(line) for line in (data / "sessions.jsonl").read_text().splitlines()]
    train, test = sessions[:18_000], sessions[18_000:]
    scorer = cooccurrence_fit([(q_sids[s["query_id"]], sid_catalog.entries[s["clicked_item"]])
                               for s in train], cb.scheme)
    scorer.save(tmp_path / "scorer.json")
    cases = [EvalCase(q_sids[s["query_id"]], frozenset({s["clicked_item"]})) for s in test]
    with open(tmp_path / "cases.jsonl", "w", encoding="utf-8") as f:
        for s in test:
            f.write(json.dumps({"context": q_sids[s["query_id"]].render(),
                                "truth": [s["clicked_item"]]}) + "\n")
    report = run_eval(cb, scorer, cases, [10], items, beam=16, sid_catalog=sid_catalog)

    def evaluate(*sids):
        out = tmp_path / "eval.tsv"
        assert main(["evaluate", "--codebook", str(tmp_path / "cb.bin"),
                     "--scorer", str(tmp_path / "scorer.json"),
                     "--catalog", str(data / "items.catalog"),
                     "--cases", str(tmp_path / "cases.jsonl"), "--k", "10", "--beam", "16",
                     *sids, "--out", str(out)]) == 0
        return {line.split("\t")[0]: line.split("\t")[1:]
                for line in out.read_text().splitlines() if line}

    rows = evaluate("--sids", str(tmp_path / "items.sids"))
    assert rows["10"] == [repr(report.hitrate[10]), repr(report.mrr[10])]
    assert rows["icr_full"] == [repr(report.catalog_icr_full)]
    assert report.hitrate[10] > 0.2
    # without --sids the catalog is re-encoded greedily, and many codes move
    assert evaluate()["icr_full"] != rows["icr_full"]


# synth -> fit-codebook -> encode -> curriculum 3 -> fit-scorer -> evaluate
# into argv[1]; each query is an eval context three times
_PIPELINE = """
import json, sys
from pathlib import Path
from sidforge.cli import main

out, spec = Path(sys.argv[1]), sys.argv[2]
scheme = ["--levels", "4,3,2", "--opq", "2x2"]
steps = [
    ["synth", "--spec", spec, "--out", str(out / "data")],
    ["fit-codebook", "--catalog", str(out / "data" / "items.catalog"), *scheme,
     "--balanced-last", "--seed", "3", "--out", str(out / "cb.bin")],
    ["encode", "--codebook", str(out / "cb.bin"),
     "--catalog", str(out / "data" / "items.catalog"), "--out", str(out / "items.sids")],
    ["encode", "--codebook", str(out / "cb.bin"),
     "--catalog", str(out / "data" / "queries.catalog"), "--out", str(out / "queries.sids")],
    ["curriculum", "--stage", "3", "--sessions", str(out / "data" / "sessions.jsonl"),
     "--sids", str(out / "items.sids"), "--query-sids", str(out / "queries.sids"),
     "--codebook", str(out / "cb.bin"), "--out", str(out / "stage3.tsv")],
    ["fit-scorer", "--records", str(out / "stage3.tsv"), *scheme,
     "--out", str(out / "scorer.json")],
]
for argv in steps:
    assert main(argv) == 0, argv
with open(out / "cases.jsonl", "w", encoding="utf-8") as f:
    for line in (out / "queries.sids").read_text(encoding="utf-8").splitlines():
        q_id, rendered = line.split("\\t")
        for i in range(3):
            truth = [f"item{q_id.removeprefix('query')}_{i}"]
            f.write(json.dumps({"context": rendered, "truth": truth}) + "\\n")
assert main(["evaluate", "--codebook", str(out / "cb.bin"), "--scorer", str(out / "scorer.json"),
             "--catalog", str(out / "data" / "items.catalog"), "--cases", str(out / "cases.jsonl"),
             "--k", "1,5", "--beam", "8", "--out", str(out / "eval.tsv")]) == 0
"""


def test_pipeline_outputs_do_not_depend_on_hash_seed(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"clusters": 4, "items_per_cluster": 8, "dim": 6,
                                "noise_scale": 0.4, "sessions": 40, "seed": 11}))
    src = str(Path(sidforge.__file__).resolve().parents[1])
    outputs = []
    for seed in ("0", "1"):
        out = tmp_path / f"hashseed{seed}"
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-W", "error", "-c", _PIPELINE, str(out), str(spec)],
                       env=env, check=True, timeout=300)
        outputs.append({p.relative_to(out).as_posix(): p.read_bytes()
                        for p in sorted(out.rglob("*")) if p.is_file()})
    assert "eval.tsv" in outputs[0] and outputs[0]["stage3.tsv"]
    assert outputs[0] == outputs[1]
