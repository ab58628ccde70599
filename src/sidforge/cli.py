"""``sidforge`` command-line interface.

Every command is deterministic given its inputs and flags: fixed seeds,
sorted iteration, and repr-based float rendering make reruns byte-identical.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

import numpy as np

from . import curriculum as curr
from . import evalharness as ev
from . import reward as rw
from ._records import id_list, read_json, read_records, write_records
from .embedding import (
    Catalog,
    KeywordSet,
    compose_enhanced,
    cosine_filter,
    load_catalog,
    read_pairs,
    save_catalog,
    write_pairs,
)
from .generator import CooccurrenceScorer, beam_search, build_trie, cooccurrence_fit
from .identity import (
    BehaviorSequence,
    ClickStat,
    aggregate_long,
    build_user_sid,
    default_sequence,
)
from .quantizer import encode_batch, fit_codebook, load_codebook, save_codebook
from .sidmetrics import cur, drift_report, icr
from .sids import SidScheme, read_sid_file, read_sid_sequence, write_sid_file


def _parse_levels(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _parse_opq(text: str) -> tuple[int, int]:
    try:
        subspaces, codes = text.lower().split("x")
        return int(subspaces), int(codes)
    except ValueError:
        raise SystemExit(f"--opq expects SUBSPACESxCODES (e.g. 2x256), got {text!r}")


def _scheme_from_args(args) -> SidScheme:
    subspaces, codes = _parse_opq(args.opq) if args.opq else (0, 0)
    return SidScheme(_parse_levels(args.levels), (codes,) * subspaces)


def cmd_enhance(args) -> None:
    catalog = load_catalog(args.catalog)
    kw_catalog = load_catalog(args.keywords)
    by_owner: dict[str, list] = {}
    for emb in kw_catalog:
        owner = emb.id.split("#", 1)[0]
        by_owner.setdefault(owner, []).append(emb)
    out_rows = []
    for emb in catalog:
        kws = KeywordSet(emb.id, tuple(by_owner.get(emb.id, ())))
        out_rows.append(compose_enhanced(emb, kws))
    save_catalog(Catalog([e.id for e in out_rows], np.stack([e.vector for e in out_rows])),
                 args.out)


def cmd_filter_pairs(args) -> None:
    write_pairs(cosine_filter(read_pairs(args.pairs), args.threshold), args.out)


def cmd_fit_codebook(args) -> None:
    catalog = load_catalog(args.catalog)
    subspaces, codes = _parse_opq(args.opq)
    codebook = fit_codebook(
        catalog,
        level_sizes=_parse_levels(args.levels),
        balanced_last=args.balanced_last,
        opq_subspaces=subspaces,
        opq_codes=codes,
        iters=args.iters,
        opq_outer_iters=args.opq_iters,
        seed=args.seed,
    )
    save_codebook(codebook, args.out)
    if args.sids_out:
        write_sid_file(args.sids_out, zip(catalog.ids, codebook.fit_sids))


def cmd_encode(args) -> None:
    codebook = load_codebook(args.codebook)
    catalog = load_catalog(args.catalog)
    sids = encode_batch(catalog.matrix, codebook)
    write_sid_file(args.out, zip(catalog.ids, sids))


def cmd_metrics(args) -> None:
    scheme = _scheme_from_args(args)
    catalog = read_sid_file(args.sids, scheme)

    def rows():
        for p in range(1, len(scheme.rq_sizes) + 1):
            yield f"cur_prefix{p}", repr(cur(catalog, p))
        yield "icr_rq", repr(icr(catalog, use_opq=False))
        if args.with_opq:
            yield "icr_full", repr(icr(catalog, use_opq=True))

    write_records(args.out, rows())


def cmd_drift(args) -> None:
    codebook = load_codebook(args.codebook)
    baseline = read_sid_file(args.baseline, codebook.scheme)
    batch_paths = sorted(Path(args.batches).glob("*.catalog"))
    if not batch_paths:
        raise SystemExit(f"no *.catalog files under {args.batches}")
    batches = [load_catalog(p).matrix for p in batch_paths]
    steps = drift_report(codebook, baseline, batches, use_opq=not args.rq_only)
    write_records(args.out, itertools.chain(
        [("batch", "size", "cumulative", "icr", "occupied_ratio")],
        ((str(s.batch_index), str(s.batch_size), str(s.cumulative_size), repr(s.icr),
          repr(s.occupied_ratio)) for s in steps)))


def _read_click_stats(path: str, scheme: SidScheme) -> dict[str, list[ClickStat]]:
    stats: dict[str, list[ClickStat]] = {}
    for query, stat in read_records(path, lambda query, item_id, sid, pv: (
            query, ClickStat(item_id, scheme.parse(sid), int(pv))), fields=4):
        stats.setdefault(query, []).append(stat)
    return stats


def cmd_encode_user(args) -> None:
    codebook = load_codebook(args.codebook)
    scheme = codebook.scheme

    def read_seq(path: str | None, kind: str) -> BehaviorSequence | None:
        if path is None:
            return None
        entries = read_sid_sequence(path, scheme)
        if not entries:
            return None
        return BehaviorSequence(tuple(sid for _, sid in entries), kind)

    short = read_seq(args.short, "short_click")
    long_click = read_seq(args.long, "long_click")
    if (short is None or long_click is None) and args.defaults:
        if not args.query:
            raise SystemExit("--defaults requires --query for the cold-start lookup")
        stats = _read_click_stats(args.defaults, scheme)
        fallback = default_sequence(args.query, stats)
        short = short or BehaviorSequence(fallback.items, "short_click")
        long_click = long_click or BehaviorSequence(fallback.items, "long_click")
    if short is None or long_click is None:
        raise SystemExit("empty behavior sequence and no --defaults to fall back on")

    user = build_user_sid(short, long_click, codebook)
    write_records(args.out, [("user", ",".join(str(d) for d in user.digits))])

    if args.aggregate_out:
        order = read_seq(args.long_order, "long_order") or BehaviorSequence((), "long_order")
        rsu = read_seq(args.long_rsu, "long_rsu") or BehaviorSequence((), "long_rsu")
        agg = aggregate_long(long_click, order, rsu, codebook)
        rows = agg.as_rows()
        save_catalog(Catalog([r[0] for r in rows], np.stack([r[1] for r in rows])),
                     args.aggregate_out)


def _read_reranks(path: str) -> list[rw.RerankRecord]:
    return read_records(path, lambda query, before, after: rw.RerankRecord(
        query, tuple(before.split(",")), tuple(after.split(","))), fields=3)


def cmd_build_pairs(args) -> None:
    interactions = rw.read_interactions(args.interactions)
    reranks = _read_reranks(args.reranks) if args.reranks else ()
    lists, stats = rw.build_preference_lists(interactions, reranks, epsilon=args.epsilon)
    rw.write_preference_lists(lists, args.out)
    sys.stdout.write(f"lists={stats.lists_built} skipped_no_loser={stats.skipped_no_loser} "
                     f"skipped_bad_pair={stats.skipped_bad_pair}\n")


def cmd_dpo_eval(args) -> None:
    lists = rw.read_preference_lists(args.lists)
    logps = dict(read_records(args.logprobs, lambda context, candidate, policy, ref: (
        (context, candidate), (float(policy), float(ref))), fields=4))
    cfg = rw.DpoConfig(beta=args.beta, alpha=args.alpha, delta_margin=args.delta)

    def rows():
        total = 0.0
        for pl in lists:
            try:
                pw, refw = logps[(pl.context, pl.winner)]
                losers = [logps[(pl.context, l)] for l in pl.losers]
            except KeyError as e:
                raise SystemExit(f"missing log-probability entry for {e.args[0]}")
            loss = rw.listwise_dpo_loss(pw, refw, [l[0] for l in losers],
                                        [l[1] for l in losers], pl.delta_weights, cfg)
            total += loss
            yield pl.context, repr(loss)
        yield "__mean__", repr(total / len(lists)) if lists else "nan"

    write_records(args.out, rows())


def _read_tsv_map(path: str) -> dict[str, str]:
    """``key<TAB>value`` lines; the value may itself hold tabs."""

    def entry(line: str) -> tuple[str, str]:
        key, tab, value = line.partition("\t")
        if not tab:
            raise ValueError("expected key<TAB>value")
        return key, value

    return dict(read_records(path, entry))


def _read_sessions(path: str, item_sids: dict, query_sids: dict) -> list[curr.Session]:
    """Stage-3 sessions; one whose queries or items have no SID is left out."""

    def session(obj: dict) -> curr.Session | None:
        session_id, query_id, clicked = obj["session_id"], obj["query_id"], obj["clicked_item"]
        short_ids = id_list(obj.get("short_clicks", []))
        long_ids = id_list(obj.get("long_clicks", []))
        recent_ids = id_list(obj.get("recent_queries", []))
        ref = obj.get("aggregate_ref")
        if ref is not None and (not isinstance(ref, str) or ref.split() != [ref]):
            raise ValueError(f"aggregate_ref must be one token without whitespace, got {ref!r}")
        try:
            return curr.Session(
                session_id=session_id,
                query_text=obj.get("query_text", query_id),
                query_sid=query_sids[query_id],
                clicked_sid=item_sids[clicked],
                short_clicks=tuple(item_sids[i] for i in short_ids),
                long_clicks=tuple(item_sids[i] for i in long_ids),
                recent_queries=tuple(query_sids[q] for q in recent_ids),
                aggregate_ref=ref,
            )
        except KeyError:
            return None

    return [s for s in read_records(path, session, jsonl=True) if s is not None]


def _require(args, names) -> None:
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        raise SystemExit(f"stage {args.stage} needs --" + " --".join(missing))


def cmd_curriculum(args) -> None:
    if args.stage == 1:
        _require(args, ["texts", "sids", "levels"])
        scheme = _scheme_from_args(args)
        sids = read_sid_file(args.sids, scheme)
        records, stats = curr.build_stage1(
            _read_tsv_map(args.texts), sids.entries,
            _read_tsv_map(args.categories) if args.categories else {},
        )
    elif args.stage == 2:
        _require(args, ["pairs", "sids", "levels"])
        scheme = _scheme_from_args(args)
        sids = read_sid_file(args.sids, scheme)
        pairs = read_records(args.pairs, lambda query_id, item_id: (query_id, item_id), fields=2)
        texts = _read_tsv_map(args.texts) if args.texts else None
        records, stats = curr.build_stage2(pairs, sids.entries, texts)
    else:
        _require(args, ["sessions", "sids", "query-sids", "codebook"])
        codebook = load_codebook(args.codebook)
        scheme = codebook.scheme
        item_sids = read_sid_file(args.sids, scheme).entries
        query_sids = read_sid_file(args.query_sids, scheme).entries
        sessions = _read_sessions(args.sessions, item_sids, query_sids)
        records, stats = curr.build_stage3(sessions, codebook, max_window=args.max_window)
    curr.write_task_records(records, args.out)
    sys.stdout.write(f"records={len(records)} skipped={stats.skipped}\n")


def cmd_fit_scorer(args) -> None:
    scheme = _scheme_from_args(args)
    codes = curr.read_stage3_codes(args.records, scheme)
    if len(codes) == 0:
        raise ValueError(f"{args.records}: no stage-3 records to fit a scorer on")
    cooccurrence_fit(codes, scheme).save(args.out)


def cmd_generate(args) -> None:
    scheme = _scheme_from_args(args)
    trie = build_trie(read_sid_file(args.trie_from, scheme))
    scorer = CooccurrenceScorer.load(args.scorer)
    context_path = Path(args.context)
    if context_path.exists():
        context = [tok for line in read_records(context_path, str.split) for tok in line]
    else:
        context = scheme.parse(args.context)
    hits = beam_search(context, scorer, args.beam, trie=trie,
                       scheme=scheme, constrained=not args.unconstrained)
    write_records(args.out, (
        (str(rank), hit.sid.render(), repr(hit.score),
         ",".join(trie.items_at(hit.sid.digits) if hit.in_catalog else ()) or "-")
        for rank, hit in enumerate(hits, 1)))


def _read_cases(path: str, scheme: SidScheme) -> list[ev.EvalCase]:
    def case(obj: dict) -> ev.EvalCase:
        if not isinstance(obj["context"], str):
            raise ValueError("context must be a comma-joined SID string")
        return ev.EvalCase(scheme.parse(obj["context"]), id_list(obj["truth"]))

    return read_records(path, case, jsonl=True)


def cmd_evaluate(args) -> None:
    codebook = load_codebook(args.codebook)
    scorer = CooccurrenceScorer.load(args.scorer)
    catalog = load_catalog(args.catalog)
    cases = _read_cases(args.cases, codebook.scheme)
    sid_catalog = None
    if args.sids:
        sid_catalog = read_sid_file(args.sids, codebook.scheme)
        if sid_catalog.entries.keys() != set(catalog.ids):
            raise ValueError(f"{args.sids}: SID file ids differ from the catalog's ids "
                             f"({len(sid_catalog)} SIDs, {len(catalog.ids)} catalog items)")
    ks = _parse_levels(args.k)
    report = ev.run_eval(codebook, scorer, cases, ks, catalog, beam=args.beam,
                         sid_catalog=sid_catalog)
    write_records(args.out, report.rows())


def cmd_synth(args) -> None:
    bundle = ev.synth_catalog(read_json(args.spec, lambda obj: ev.SyntheticSpec(**obj)))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_catalog(bundle.items, out / "items.catalog")
    save_catalog(bundle.queries, out / "queries.catalog")
    write_records(out / "categories.tsv",
                  ((item_id, bundle.categories[item_id]) for item_id in bundle.items.ids))
    kw_ids, kw_rows = [], []
    for item_id in bundle.items.ids:
        for j, kw in enumerate(bundle.keywords[item_id].keyword_embeddings):
            kw_ids.append(f"{item_id}#{j}")
            kw_rows.append(kw.vector)
    save_catalog(Catalog(kw_ids, np.stack(kw_rows)), out / "keywords.catalog")
    write_records(out / "sessions.jsonl", ({
        "session_id": sess.session_id,
        "query_id": sess.query_id,
        "clicked_item": sess.clicked_item,
        "short_clicks": list(sess.short_clicks),
    } for sess in bundle.sessions), jsonl=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sidforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def scheme_flags(p, levels_default=None):
        p.add_argument("--levels", required=levels_default is None, default=levels_default,
                       help="comma-joined hierarchy sizes, e.g. 4096,1024,512")
        p.add_argument("--opq", default=None, help="product tail as SUBSPACESxCODES, e.g. 2x256")

    p = sub.add_parser("enhance", help="compose keyword-enhanced embeddings")
    p.add_argument("--catalog", required=True)
    p.add_argument("--keywords", required=True,
                   help="keyword catalog; ids are <owner>#<n>")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("filter-pairs", help="keep pairs above a cosine threshold")
    p.add_argument("--pairs", required=True)
    p.add_argument("--threshold", type=float, default=0.6)
    p.add_argument("--out")
    p.set_defaults(func=cmd_filter_pairs)

    p = sub.add_parser("fit-codebook", help="fit hierarchy + product codebooks")
    p.add_argument("--catalog", required=True)
    p.add_argument("--levels", default="4096,1024,512")
    p.add_argument("--balanced-last", action="store_true")
    p.add_argument("--opq", default="2x256")
    p.add_argument("--iters", type=int, default=25)
    p.add_argument("--opq-iters", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--sids-out",
                   help="also write the training catalog's fit-assignment SIDs")
    p.set_defaults(func=cmd_fit_codebook)

    p = sub.add_parser("encode", help="encode a catalog into SIDs")
    p.add_argument("--codebook", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("metrics", help="utilization / coding-rate report")
    p.add_argument("--sids", required=True)
    scheme_flags(p)
    p.add_argument("--with-opq", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("drift", help="replay catalog growth against a frozen codebook")
    p.add_argument("--codebook", required=True)
    p.add_argument("--baseline", required=True)
    p.add_argument("--batches", required=True, help="directory of *.catalog batches")
    p.add_argument("--rq-only", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_drift)

    p = sub.add_parser("encode-user", help="build a 10-digit user id")
    p.add_argument("--codebook", required=True)
    p.add_argument("--short")
    p.add_argument("--long")
    p.add_argument("--long-order")
    p.add_argument("--long-rsu")
    p.add_argument("--defaults", help="cold-start stats: query<TAB>item<TAB>sid<TAB>pv")
    p.add_argument("--query")
    p.add_argument("--aggregate-out")
    p.add_argument("--out")
    p.set_defaults(func=cmd_encode_user)

    p = sub.add_parser("build-pairs", help="construct preference lists")
    p.add_argument("--interactions", required=True)
    p.add_argument("--reranks")
    p.add_argument("--epsilon", type=float, default=rw.DEFAULT_EPSILON)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_pairs)

    p = sub.add_parser("dpo-eval", help="evaluate the list-wise loss over lists")
    p.add_argument("--lists", required=True)
    p.add_argument("--logprobs", required=True)
    p.add_argument("--beta", type=float, default=0.1)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_dpo_eval)

    p = sub.add_parser("curriculum", help="emit staged training records")
    p.add_argument("--stage", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--texts")
    p.add_argument("--categories")
    p.add_argument("--sids")
    p.add_argument("--pairs")
    p.add_argument("--sessions")
    p.add_argument("--query-sids")
    p.add_argument("--codebook")
    p.add_argument("--max-window", type=int, default=curr.DEFAULT_MAX_WINDOW)
    p.add_argument("--levels")
    p.add_argument("--opq")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_curriculum)

    p = sub.add_parser("fit-scorer", help="fit the co-occurrence scorer")
    p.add_argument("--records", required=True, help="curriculum file with stage-3 records")
    scheme_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit_scorer)

    p = sub.add_parser("generate", help="beam-generate SIDs for a context")
    p.add_argument("--trie-from", required=True, help="SID file backing the trie")
    scheme_flags(p)
    p.add_argument("--scorer", required=True)
    p.add_argument("--context", required=True,
                   help="query SID (comma digits) or path to a prompt token file")
    p.add_argument("--beam", type=int, default=512)
    p.add_argument("--unconstrained", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="end-to-end retrieval metrics")
    p.add_argument("--codebook", required=True)
    p.add_argument("--scorer", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--cases", required=True, help="JSONL {context, truth}")
    p.add_argument("--k", default="10")
    p.add_argument("--beam", type=int, default=None)
    p.add_argument("--sids", help="the catalog's official SIDs (fit-codebook --sids-out); "
                                  "without it the catalog is greedily re-encoded")
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="generate a synthetic benchmark")
    p.add_argument("--spec", required=True, help="JSON file of generator settings")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
