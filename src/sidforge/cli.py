"""``sidforge`` command-line interface.

Every command is deterministic given its inputs and flags: fixed seeds,
sorted iteration, and repr-based float rendering make reruns byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys
from pathlib import Path
from typing import Iterator

import numpy as np

from . import curriculum as curr
from . import evalharness as ev
from . import reward as rw
from ._records import (LocatedError, id_list, id_text, iter_records, read_json, read_records,
                       write_records)
from .embedding import (
    Catalog,
    cosine_filter,
    enhance_catalog,
    load_catalog,
    read_pairs,
    save_catalog,
    write_pairs,
)
from .generator import CooccurrenceScorer, beam_search, build_trie, cooccurrence_fit_blocks
from .identity import (
    BehaviorSequence,
    ClickStat,
    aggregate_long,
    build_user_sid,
    default_sequence,
    query_words,
)
from .quantizer import encode_batch, fit_codebook, load_codebook, save_codebook
from .sidmetrics import cur, drift_report, icr
from .sids import SidScheme, read_sid_file, read_sid_sequence, write_sid_file


def _parse_levels(text: str, flag: str = "--levels") -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise SystemExit(f"{flag} expects comma-joined integers (e.g. 10,50), got {text!r}")


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
    keywords = load_catalog(args.keywords)
    try:
        enhanced = enhance_catalog(catalog, keywords)
    except ValueError as exc:  # a dim mismatch: the keyword file does not fit the catalog
        raise ValueError(f"{args.keywords}: {exc}") from None
    save_catalog(enhanced, args.out)


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
        try:
            return BehaviorSequence(tuple(sid for _, sid in entries), kind)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

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
                raise LocatedError(f"{args.logprobs}: no log-probability entry for {e.args[0]}")
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


def _read_sessions(path: str, item_rows: dict[str, int], query_sids: dict[str, str],
                   stats: curr.StageStats) -> Iterator[tuple]:
    """Stage-3 sessions, read as they are needed, as the id rows
    :func:`curriculum.stage3_blocks` renders: ``item_rows`` maps an item id
    to its SID's row and ``query_sids`` a query id to its rendered SID. A
    session whose queries or items have no SID is left out; one over a
    length cap is counted in ``stats.skipped``."""

    def session(obj: dict) -> tuple | None:
        # a session id is required, though the records do not name it
        _, query_id, clicked = map(id_text, (obj["session_id"], obj["query_id"],
                                             obj["clicked_item"]))
        short_ids = id_list(obj.get("short_clicks", []))
        long_ids = id_list(obj.get("long_clicks", []))
        recent_ids = id_list(obj.get("recent_queries", []))
        end = curr.aggregate_end(obj.get("aggregate_ref"))
        words = query_words(obj.get("query_text", query_id))
        try:
            query = query_sids[query_id]
            clicks = curr.click_sequences([item_rows[i] for i in short_ids], item_rows[clicked],
                                          [item_rows[i] for i in long_ids])
            recent = [query_sids[q] for q in recent_ids]
        except KeyError:
            return None
        if clicks is None:
            stats.skipped += 1
            return None
        return (words, query, recent, *clicks, end)

    return (s for s in iter_records(path, session, jsonl=True) if s is not None)


def _write_stage3(args, scheme: SidScheme) -> tuple[int, curr.StageStats]:
    """The stage-3 text rows of ``args.sessions`` under ``scheme``, as
    write_task_records would write them, written to ``args.out`` block by
    block; the number of rows and the stats."""
    table = curr.SidRows(scheme)
    item_rows = {item_id: table.add(sid) for item_id, sid in read_sid_file(args.sids, scheme)}
    query_sids = {query_id: table.texts[table.add(sid)]
                  for query_id, sid in read_sid_file(args.query_sids, scheme)}
    stats = curr.StageStats()
    blocks = curr.stage3_blocks(_read_sessions(args.sessions, item_rows, query_sids, stats),
                                table, args.max_window, stats)
    # a kept session's checks run on the first block: when they fail, --out is not opened
    first = next(blocks, [])
    written = 0

    def rows() -> Iterator[tuple[str, str, str, str]]:
        nonlocal written
        for block in itertools.chain([first], blocks):
            written += len(block)
            yield from block

    write_records(args.out, rows())
    return written, stats


def _require(args, names) -> None:
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        raise SystemExit(f"stage {args.stage} needs --" + " --".join(missing))


def cmd_curriculum(args) -> None:
    _require(args, {1: ["texts", "sids", "codebook"], 2: ["pairs", "sids", "codebook"],
                    3: ["sessions", "sids", "query-sids", "codebook"]}[args.stage])
    scheme = load_codebook(args.codebook).scheme
    if args.stage == 1:
        sids = read_sid_file(args.sids, scheme)
        records, stats = curr.build_stage1(
            _read_tsv_map(args.texts), sids.entries,
            _read_tsv_map(args.categories) if args.categories else {},
        )
    elif args.stage == 2:
        sids = read_sid_file(args.sids, scheme)
        pairs = read_records(args.pairs, lambda query_id, item_id: (query_id, item_id), fields=2)
        texts = _read_tsv_map(args.texts) if args.texts else None
        records, stats = curr.build_stage2(pairs, sids.entries, texts)
    else:
        written, stats = _write_stage3(args, scheme)
    if args.stage != 3:
        curr.write_task_records(records, args.out)
        written = len(records)
    sys.stdout.write(f"records={written} skipped={stats.skipped}\n")


def cmd_fit_scorer(args) -> None:
    scheme = _scheme_from_args(args)
    blocks = curr.stage3_code_blocks(args.records, scheme)
    first = next(blocks, None)
    if first is None:
        raise ValueError(f"{args.records}: no stage-3 records to fit a scorer on")
    cooccurrence_fit_blocks(itertools.chain([first], blocks), scheme).save(args.out)


def _load_scorer(path: str, scheme: SidScheme, source: str) -> CooccurrenceScorer:
    """The scorer file at ``path``, refused unless fitted under ``scheme``,
    which comes from ``source``."""
    scorer = CooccurrenceScorer.load(path)
    if scorer.scheme != scheme:
        raise ValueError(f"{path}: scorer scheme {_scheme_text(scorer.scheme)} is not "
                         f"the scheme {_scheme_text(scheme)} of {source}")
    return scorer


def _scheme_text(scheme: SidScheme) -> str:
    return f"levels {scheme.rq_sizes} opq {scheme.opq_sizes}"


def cmd_generate(args) -> None:
    scheme = _scheme_from_args(args)
    trie = build_trie(read_sid_file(args.trie_from, scheme))
    scorer = _load_scorer(args.scorer, scheme, "--levels/--opq")
    context_path = Path(args.context)
    if context_path.exists():
        context = [tok for line in read_records(context_path, str.split) for tok in line]
    else:
        context = scheme.parse(args.context)
    hits = beam_search(context, scorer, args.beam, trie=trie,
                       scheme=scheme, constrained=not args.unconstrained)
    rows = zip(hits.digits.tolist(), hits.scores.tolist(), hits.in_catalog.tolist())
    write_records(args.out, (
        (str(rank), ",".join(map(str, digits)), repr(score),
         ",".join(trie.items_at(digits) if in_catalog else ()) or "-")
        for rank, (digits, score, in_catalog) in enumerate(rows, 1)))


def _read_cases(path: str, scheme: SidScheme) -> list[ev.EvalCase]:
    def case(obj: dict) -> ev.EvalCase:
        if not isinstance(obj["context"], str):
            raise ValueError("context must be a comma-joined SID string")
        return ev.EvalCase(scheme.parse(obj["context"]), id_list(obj["truth"]))

    return read_records(path, case, jsonl=True)


def cmd_evaluate(args) -> None:
    ks = _parse_levels(args.k, "--k")
    codebook = load_codebook(args.codebook)
    scorer = _load_scorer(args.scorer, codebook.scheme, f"codebook {args.codebook}")
    catalog = load_catalog(args.catalog)
    cases = _read_cases(args.cases, codebook.scheme)
    sid_catalog = None
    if args.sids:
        sid_catalog = read_sid_file(args.sids, codebook.scheme)
        if sid_catalog.entries.keys() != set(catalog.ids):
            raise ValueError(f"{args.sids}: SID file ids differ from the catalog's ids "
                             f"({len(sid_catalog)} SIDs, {len(catalog.ids)} catalog items)")
    report = ev.run_eval(codebook, scorer, cases, ks, catalog, beam=args.beam,
                         sid_catalog=sid_catalog)
    write_records(args.out, report.rows())


def cmd_synth(args) -> None:
    bundle, sessions = ev.synth_stream(read_json(args.spec, lambda obj: ev.SyntheticSpec(**obj)))
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
    } for sess in sessions), jsonl=True)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``main`` reuses it."""
    parser = argparse.ArgumentParser(prog="sidforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def scheme_flags(p):
        p.add_argument("--levels", required=True,
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
    p.add_argument("--codebook", help="the codebook whose scheme every SID must fit")
    p.add_argument("--max-window", type=int, default=curr.DEFAULT_MAX_WINDOW)
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
