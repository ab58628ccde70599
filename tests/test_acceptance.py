"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them all)."""

import itertools
import json
import math
import time

import numpy as np
import pytest

from digit_scores import digit_score
from sidforge.cli import main
from sidforge.embedding import Catalog, compose_enhanced, load_catalog, save_catalog
from sidforge.evalharness import EvalCase, SyntheticSpec, run_eval, synth_catalog
from sidforge.generator import (
    UniformScorer,
    beam_search,
    build_trie,
    cooccurrence_fit,
)
from sidforge.kmeans import balanced_kmeans_fit
from sidforge.quantizer import encode_batch, fit_codebook, opq_fit, rq_fit
from sidforge.reward import DpoConfig, InteractionRecord, listwise_dpo_loss, reward_score
from sidforge.sidmetrics import cur, drift_report, icr
from sidforge.sids import Sid, SidCatalog, SidScheme


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    marker = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{marker}] criterion {num}: {desc}{suffix}")
    assert ok, f"criterion {num} failed: {desc}{suffix}"


# --- criterion 1 -----------------------------------------------------------

def balanced_two_partition_oracle(points: np.ndarray) -> float:
    """Exhaustive balanced 2-split optimum, written independently of the
    library's search (explicit loops, explicit means)."""
    n = len(points)
    size = (n + 1) // 2
    best = math.inf
    for left in itertools.combinations(range(n), size):
        right = [i for i in range(n) if i not in left]
        sse = 0.0
        for part in (list(left), right):
            block = points[part]
            mean = block.mean(axis=0)
            sse += float(np.sum((block - mean) ** 2))
        best = min(best, sse)
    return best


def test_criterion_1_balanced_kmeans():
    rng = np.random.default_rng(1001)
    start = time.monotonic()
    balance_ok = True
    sse_ok = True
    for trial in range(1000):
        if trial < 250:
            n, k = int(rng.integers(4, 13)), 2
        else:
            n, k = int(rng.integers(2, 201)), int(rng.integers(1, 17))
        d = int(rng.integers(1, 5))
        pts = rng.normal(size=(n, d))
        res = balanced_kmeans_fit(pts, k, seed=trial)
        sizes = res.cluster_sizes()
        nonempty_spread = sizes.max() - sizes.min()
        if n >= k and nonempty_spread > 1:
            balance_ok = False
        if n < k and sizes.max() > 1:
            balance_ok = False
        if n <= 12 and k == 2:
            opt = balanced_two_partition_oracle(pts)
            if res.sse > opt * 1.05 + 1e-9:
                sse_ok = False
    elapsed = time.monotonic() - start
    _report(
        1,
        "balanced fit keeps |max-min| size <= 1 on 1000 catalogs and stays "
        "within 5% of the exhaustive balanced optimum (n<=12, k=2)",
        balance_ok and sse_ok and elapsed < 60.0,
        f"runtime {elapsed:.1f}s",
    )


# --- criterion 2 -----------------------------------------------------------

def test_criterion_2_residual_monotonicity():
    ok = True
    for seed in range(12):
        spec = SyntheticSpec(
            clusters=8 + seed, items_per_cluster=20, dim=8,
            noise_scale=0.3 + 0.2 * (seed % 3), seed=seed,
            collapsed_frac=0.4 if seed % 2 else 0.0,
            collapse_points=8 if seed % 2 else 0,
        )
        bundle = synth_catalog(spec)
        _, stats = rq_fit(bundle.items, (8, 6, 4), balanced_last=bool(seed % 2), seed=seed)
        norms = stats["mean_sq_residual_per_level"]
        if not (norms[1] <= norms[0] + 1e-9 and norms[2] <= norms[1] + 1e-9):
            ok = False

    # repeated centroid set: residuals vanish at every level
    base = np.random.default_rng(5).normal(size=(6, 8)) * 10
    repeated = np.repeat(base, 10, axis=0)
    _, stats = rq_fit(repeated, (6, 4, 4), balanced_last=False, seed=0)
    zeros_ok = all(v <= 1e-9 for v in stats["mean_sq_residual_per_level"])
    _report(
        2,
        "mean squared residual norm non-increasing across 3 levels on every "
        "synthetic catalog; exact zeros on a repeated-centroid catalog",
        ok and zeros_ok,
        f"repeated-catalog residuals {stats['mean_sq_residual_per_level']}",
    )


# --- criterion 3 -----------------------------------------------------------

def test_criterion_3_icr_inequality():
    rng = np.random.default_rng(3)
    ok = True
    checked = 0
    for fit_seed in range(5):
        train = rng.normal(size=(80, 8))
        cb = fit_codebook(train, (4, 3), balanced_last=bool(fit_seed % 2),
                          opq_subspaces=2, opq_codes=3, seed=fit_seed)
        for _ in range(20):
            batch = rng.normal(size=(int(rng.integers(2, 60)), 8)) * rng.uniform(0.5, 3.0)
            sids = encode_batch(batch, cb)
            cat = SidCatalog({f"i{n}": s for n, s in enumerate(sids)}, cb.scheme)
            if icr(cat, use_opq=True) < icr(cat, use_opq=False):
                ok = False
            checked += 1

    # constructed collision catalog: mirrored pair shares every hierarchy
    # level (all k=1) but separates in the product digits
    v = np.array([3.0, -2.0, 1.0, 4.0, 0.5, -1.0])
    pair = np.stack([v, -v])
    cb = fit_codebook(pair, (1, 1, 1), balanced_last=False,
                      opq_subspaces=2, opq_codes=2, seed=0)
    sids = encode_batch(pair, cb)
    cat = SidCatalog({"a": sids[0], "b": sids[1]}, cb.scheme)
    strict = icr(cat, use_opq=True) > icr(cat, use_opq=False)
    _report(
        3,
        "ICR with product digits >= ICR without on random catalogs, strictly "
        "better on a constructed collision catalog",
        ok and strict and checked == 100,
        f"{checked} catalogs, collision catalog "
        f"{icr(cat, use_opq=False):.2f} -> {icr(cat, use_opq=True):.2f}",
    )


# --- criterion 4 -----------------------------------------------------------

def test_criterion_4_keyword_enhancement_direction():
    cur_wins = icr_wins = 0
    for seed in range(10):
        spec = SyntheticSpec(
            clusters=12, items_per_cluster=40, dim=12,
            noise_scale=1.0, center_scale=10.0, keyword_noise=0.1,
            collapsed_frac=0.6, collapse_points=24, seed=seed,
        )
        bundle = synth_catalog(spec)
        enhanced_rows = [
            compose_enhanced(emb, bundle.keywords[emb.id]).vector for emb in bundle.items
        ]
        enhanced = Catalog(bundle.items.ids, np.stack(enhanced_rows))

        metrics = {}
        for name, catalog in (("plain", bundle.items), ("enhanced", enhanced)):
            cb = fit_codebook(catalog, (12, 8, 8), balanced_last=False,
                              opq_subspaces=2, opq_codes=4, seed=seed)
            cat = SidCatalog(dict(zip(catalog.ids, cb.fit_sids)), cb.scheme)
            metrics[name] = (cur(cat, 2), icr(cat, use_opq=False))
        cur_wins += metrics["enhanced"][0] >= metrics["plain"][0]
        icr_wins += metrics["enhanced"][1] >= metrics["plain"][1]
    _report(
        4,
        "keyword enhancement lifts level-2 utilization and coding rate in "
        ">= 8 of 10 seeds",
        cur_wins >= 8 and icr_wins >= 8,
        f"cur wins {cur_wins}/10, icr wins {icr_wins}/10",
    )


# --- criterion 5 -----------------------------------------------------------

def _variant_catalog(seed, clusters=16, per=30, variants=8, dim=12,
                     tight=0.15, broad_frac=0.15, center_scale=60.0):
    """Collision-prone: most items sit on shared fine-variant offsets."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, center_scale, size=(clusters, dim))
    offsets = rng.normal(0, 1.0, size=(variants, dim))
    rows = []
    for g in range(clusters):
        for _ in range(per):
            if rng.random() < broad_frac:
                rows.append(centers[g] + rng.normal(0, 1.0, size=dim))
            else:
                v = int(rng.integers(variants))
                rows.append(centers[g] + offsets[v] + rng.normal(0, tight, size=dim))
    return np.vstack(rows)


def test_criterion_5_level3_balancing_direction():
    cur_wins = icr_wins = 0
    for seed in range(10):
        vecs = _variant_catalog(seed)
        metrics = {}
        for balanced in (False, True):
            cb = fit_codebook(vecs, (8, 4, 64), balanced_last=balanced,
                              opq_subspaces=2, opq_codes=4, seed=seed)
            cat = SidCatalog({f"i{n}": s for n, s in enumerate(cb.fit_sids)}, cb.scheme)
            metrics[balanced] = (cur(cat, 3), icr(cat, use_opq=False))
        cur_wins += metrics[True][0] >= metrics[False][0]
        icr_wins += metrics[True][1] >= metrics[False][1]
    _report(
        5,
        "last-level balancing lifts total utilization and coding rate on "
        "collision-prone catalogs in >= 8 of 10 seeds",
        cur_wins >= 8 and icr_wins >= 8,
        f"cur wins {cur_wins}/10, icr wins {icr_wins}/10",
    )


# --- criterion 6 -----------------------------------------------------------

def test_criterion_6_reward_math_oracle():
    rng = np.random.default_rng(6)
    weights = (2.0, 1.5, 1.0, 0.5, 0.2, 0.0)
    worst = 0.0
    for _ in range(10_000):
        level = int(rng.integers(1, 7))
        pos, clk, order = (int(rng.integers(0, 100_000)) for _ in range(3))
        rec = InteractionRecord("q", "i", level, pos, clk, order)
        # independent oracle in log base 10
        lp = math.log10(pos + 10)
        lc = math.log10(clk + 10)
        lo = math.log10(order + 10)
        ctr_o = lc / (lp + lc + lo)
        cvr_o = lo / lc
        r_o = 2.0 * weights[level - 1] * (ctr_o * cvr_o) / (ctr_o + cvr_o)
        worst = max(worst, abs(reward_score(rec) - r_o))
    zero = reward_score(InteractionRecord("q", "i", 3))
    _report(
        6,
        "calibrated-rate reward matches a plain-arithmetic oracle to 1e-12 "
        "over 10,000 random records; zero-count click-level reward is 0.5",
        worst < 1e-12 and zero == 0.5,
        f"worst |diff| {worst:.2e}, zero-count reward {zero!r}",
    )


# --- criterion 7 -----------------------------------------------------------

def test_criterion_7_dpo_loss():
    cfg = DpoConfig(beta=0.1, alpha=0.0, delta_margin=0.1)
    closed = listwise_dpo_loss(-1.5, -1.5, [-2.0], [-2.0], [1.0], cfg)
    closed_ok = abs(closed - math.log(2)) < 1e-12

    rng = np.random.default_rng(7)
    h = 1e-5
    violations = 0
    for _ in range(100):
        c = DpoConfig(
            beta=float(rng.uniform(0.05, 1.0)),
            alpha=float(rng.uniform(0.01, 0.5)),
            delta_margin=float(rng.uniform(0.0, 0.3)),
        )
        n = int(rng.integers(1, 5))
        pw, refw = float(rng.uniform(-3, 0)), float(rng.uniform(-3, 0))
        pl = rng.uniform(-4, 0, size=n).tolist()
        rl = rng.uniform(-4, 0, size=n).tolist()
        dw = rng.uniform(0.2, 3.0, size=n).tolist()
        grad = (
            listwise_dpo_loss(pw + h, refw, pl, rl, dw, c)
            - listwise_dpo_loss(pw - h, refw, pl, rl, dw, c)
        ) / (2 * h)
        if grad >= 0:
            violations += 1
    _report(
        7,
        "closed-form list-wise loss equals ln 2 and winner-advantage "
        "monotonicity holds on 100 random configurations",
        closed_ok and violations == 0,
        f"closed-form |diff| {abs(closed - math.log(2)):.2e}, violations {violations}",
    )


# --- criterion 8 -----------------------------------------------------------

def _exhaustive_paths(trie, scorer, context):
    scored = []

    def walk(node, prefix, acc):
        if len(prefix) == trie.scheme.length:
            scored.append((prefix, acc))
            return
        for digit in sorted(node.children):
            walk(node.children[digit], prefix + (digit,),
                 acc + digit_score(scorer, context, prefix, digit, trie.scheme))

    walk(trie.root, (), 0.0)
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored


def test_criterion_8_constrained_beam_exactness():
    rng = np.random.default_rng(8)
    ok = True
    for trial in range(12):
        scheme = SidScheme(
            (int(rng.integers(2, 6)), int(rng.integers(2, 6)), int(rng.integers(2, 5))),
            (int(rng.integers(2, 4)),),
        )
        n_items = int(rng.integers(1, 65))
        entries = {}
        for i in range(n_items):
            entries[f"i{i}"] = Sid(
                tuple(int(rng.integers(w)) for w in scheme.rq_sizes),
                tuple(int(rng.integers(w)) for w in scheme.opq_sizes),
            )
        catalog = SidCatalog(entries, scheme)
        trie = build_trie(catalog)
        pairs = [
            (Sid((int(rng.integers(scheme.rq_sizes[0])),) + (0,) * 2, (0,)), sid)
            for sid in list(entries.values())[: max(1, n_items // 2)]
        ]
        scorers = [UniformScorer(), cooccurrence_fit(pairs, scheme)]
        context = Sid((0, 0, 0), (0,))
        for scorer in scorers:
            hits = beam_search(context, scorer, n_items, trie=trie)
            oracle = _exhaustive_paths(trie, scorer, context)[:n_items]
            if len(hits) != len(oracle):
                ok = False
                continue
            for hit, (digits, score) in zip(hits, oracle):
                if hit.sid.digits != digits or abs(hit.score - score) > 1e-12:
                    ok = False
    _report(
        8,
        "constrained beam at |catalog| width reproduces exhaustive path "
        "enumeration exactly on catalogs up to 64 items",
        ok,
    )


# --- criterion 9 -----------------------------------------------------------

def test_criterion_9_end_to_end_lift():
    start = time.monotonic()
    spec = SyntheticSpec(
        clusters=100, items_per_cluster=50, dim=16, noise_scale=0.5,
        center_scale=10.0, sessions=20_000, seed=42,
    )
    bundle = synth_catalog(spec)
    cb = fit_codebook(bundle.items, (64, 32, 16), balanced_last=True,
                      opq_subspaces=2, opq_codes=16, seed=7)
    sid_catalog = SidCatalog(dict(zip(bundle.items.ids, cb.fit_sids)), cb.scheme)
    q_sids = dict(zip(bundle.queries.ids, encode_batch(bundle.queries.matrix, cb)))

    train, test = bundle.sessions[:18_000], bundle.sessions[18_000:]
    scorer = cooccurrence_fit(
        [(q_sids[s.query_id], sid_catalog.entries[s.clicked_item]) for s in train],
        cb.scheme,
    )
    cases = [EvalCase(q_sids[s.query_id], frozenset({s.clicked_item})) for s in test]

    learned = run_eval(cb, scorer, cases, [10], bundle.items, beam=16,
                       sid_catalog=sid_catalog)
    uniform = run_eval(cb, UniformScorer(), cases, [10], bundle.items, beam=16,
                       sid_catalog=sid_catalog)
    elapsed = time.monotonic() - start
    baseline = max(uniform.hitrate[10], 1.0 / len(cases))
    lift = learned.hitrate[10] / baseline
    _report(
        9,
        "co-occurrence scorer with constrained decoding beats the uniform "
        "baseline by >= 5x HR@10 on the 5k-item / 20k-session benchmark "
        "within 5 minutes",
        lift >= 5.0 and elapsed < 300.0,
        f"HR@10 {learned.hitrate[10]:.4f} vs {uniform.hitrate[10]:.4f} "
        f"(lift {lift:.0f}x), runtime {elapsed:.1f}s",
    )


# --- criterion 10 ----------------------------------------------------------

def _clustered(rng, centers, per, noise):
    return np.vstack([c + rng.normal(0, noise, size=(per, len(c))) for c in centers])


def test_criterion_10_drift_direction():
    wins = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        dim, clusters, per, noise = 10, 12, 30, 0.8
        centers = rng.normal(0, 10, size=(clusters, dim))
        base = _clustered(rng, centers, per, noise)
        cb = fit_codebook(base, (16, 12, 12), balanced_last=True,
                          opq_subspaces=2, opq_codes=4, seed=seed)
        baseline = SidCatalog({f"b{i}": s for i, s in enumerate(cb.fit_sids)}, cb.scheme)
        base_icr = icr(baseline, use_opq=False)

        n_new = int(0.2 * len(base))
        in_batch = _clustered(rng, centers, max(1, n_new // clusters), noise)[:n_new]
        ood_centers = rng.normal(0, 10, size=(clusters, dim)) + 40.0
        ood_batch = _clustered(rng, ood_centers, max(1, n_new // clusters), noise)[:n_new]

        icr_in = drift_report(cb, baseline, [in_batch], use_opq=False)[0].icr
        icr_ood = drift_report(cb, baseline, [ood_batch], use_opq=False)[0].icr
        if abs(icr_in - base_icr) < abs(icr_ood - base_icr):
            wins += 1
    _report(
        10,
        "20% in-distribution arrivals move ICR less than 20% "
        "out-of-distribution arrivals in >= 8 of 10 seeds",
        wins >= 8,
        f"wins {wins}/10",
    )


# --- criterion 11 ----------------------------------------------------------

def _run_twice(argv_template, tmp_path, outputs):
    """Run a CLI command twice with distinct output paths; compare bytes."""
    results = []
    for tag in ("a", "b"):
        argv = [
            part.replace("{OUT}", str(tmp_path / f"{tag}_{outputs[0]}"))
                .replace("{OUT2}", str(tmp_path / f"{tag}_{outputs[1] if len(outputs) > 1 else ''}"))
            for part in argv_template
        ]
        assert main(argv) == 0
        results.append([
            (tmp_path / f"{tag}_{name}").read_bytes() for name in outputs
        ])
    return all(x == y for x, y in zip(results[0], results[1]))


def test_criterion_11_cli_determinism(tmp_path, capsys):
    spec = {"clusters": 4, "items_per_cluster": 8, "dim": 6,
            "noise_scale": 0.4, "sessions": 16, "seed": 11}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))

    ok = True

    # synth: compare every emitted file across two runs
    for tag in ("sa", "sb"):
        assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / tag)]) == 0
    names = ["items.catalog", "queries.catalog", "categories.tsv",
             "keywords.catalog", "sessions.jsonl"]
    ok &= all(
        (tmp_path / "sa" / n).read_bytes() == (tmp_path / "sb" / n).read_bytes()
        for n in names
    )
    data = tmp_path / "sa"

    # fit-codebook (+ fit-assignment SIDs)
    for tag in ("a", "b"):
        assert main([
            "fit-codebook", "--catalog", str(data / "items.catalog"),
            "--levels", "4,3,2", "--balanced-last", "--opq", "2x2", "--seed", "5",
            "--out", str(tmp_path / f"{tag}_cb.bin"),
            "--sids-out", str(tmp_path / f"{tag}_fit.sids"),
        ]) == 0
    ok &= (tmp_path / "a_cb.bin").read_bytes() == (tmp_path / "b_cb.bin").read_bytes()
    ok &= (tmp_path / "a_cb.bin.meta.json").read_bytes() == (tmp_path / "b_cb.bin.meta.json").read_bytes()
    ok &= (tmp_path / "a_fit.sids").read_bytes() == (tmp_path / "b_fit.sids").read_bytes()
    cb = str(tmp_path / "a_cb.bin")

    ok &= _run_twice(["enhance", "--catalog", str(data / "items.catalog"),
                      "--keywords", str(data / "keywords.catalog"), "--out", "{OUT}"],
                     tmp_path, ["enh.catalog"])

    pairs_path = tmp_path / "pairs.tsv"
    pairs_path.write_text("a\tb\tq2i\t0.7\na\tc\tq2i\t0.4\n")
    ok &= _run_twice(["filter-pairs", "--pairs", str(pairs_path),
                      "--threshold", "0.6", "--out", "{OUT}"], tmp_path, ["kept.tsv"])

    ok &= _run_twice(["encode", "--codebook", cb,
                      "--catalog", str(data / "items.catalog"), "--out", "{OUT}"],
                     tmp_path, ["items.sids"])
    sids = str(tmp_path / "a_items.sids")

    ok &= _run_twice(["encode", "--codebook", cb,
                      "--catalog", str(data / "queries.catalog"), "--out", "{OUT}"],
                     tmp_path, ["queries.sids"])
    qsids = str(tmp_path / "a_queries.sids")

    ok &= _run_twice(["metrics", "--sids", sids, "--levels", "4,3,2", "--opq", "2x2",
                      "--with-opq", "--out", "{OUT}"], tmp_path, ["metrics.tsv"])

    batches = tmp_path / "batches"
    batches.mkdir()
    base_catalog = load_catalog(data / "items.catalog")
    save_catalog(Catalog(["n0", "n1"], base_catalog.matrix[:2] * 1.01),
                 batches / "b0.catalog")
    ok &= _run_twice(["drift", "--codebook", cb, "--baseline", sids,
                      "--batches", str(batches), "--out", "{OUT}"], tmp_path, ["drift.tsv"])

    sid_lines = (tmp_path / "a_items.sids").read_text().splitlines()
    (tmp_path / "short.sids").write_text("\n".join(sid_lines[:3]) + "\n")
    (tmp_path / "long.sids").write_text("\n".join(sid_lines[3:8]) + "\n")
    ok &= _run_twice(["encode-user", "--codebook", cb,
                      "--short", str(tmp_path / "short.sids"),
                      "--long", str(tmp_path / "long.sids"),
                      "--out", "{OUT}", "--aggregate-out", "{OUT2}"],
                     tmp_path, ["user.tsv", "agg.catalog"])

    inter = tmp_path / "inter.tsv"
    inter.write_text("q1\twin\t1\t100\t60\t30\nq1\tl1\t5\t0\t0\t0\nq1\tl2\t6\t3\t0\t0\n")
    ok &= _run_twice(["build-pairs", "--interactions", str(inter), "--out", "{OUT}"],
                     tmp_path, ["lists.jsonl"])
    lists = str(tmp_path / "a_lists.jsonl")

    logps = tmp_path / "logps.tsv"
    logps.write_text("q1\twin\t-1.0\t-1.2\nq1\tl1\t-2.0\t-1.8\nq1\tl2\t-2.5\t-2.5\n")
    ok &= _run_twice(["dpo-eval", "--lists", lists, "--logprobs", str(logps),
                      "--beta", "0.1", "--alpha", "0.05", "--delta", "0.1",
                      "--out", "{OUT}"], tmp_path, ["dpo.tsv"])

    texts = tmp_path / "texts.tsv"
    cats = tmp_path / "cats.tsv"
    item_ids = [l.split("\t")[0] for l in sid_lines[:4]]
    texts.write_text("".join(f"{i}\twords for {i}\n" for i in item_ids))
    cats.write_text("".join(f"{i}\tcat\n" for i in item_ids))
    ok &= _run_twice(["curriculum", "--stage", "1", "--texts", str(texts),
                      "--categories", str(cats), "--sids", sids,
                      "--levels", "4,3,2", "--opq", "2x2", "--out", "{OUT}"],
                     tmp_path, ["stage1.tsv"])

    qi_pairs = tmp_path / "qi.tsv"
    first_query = (tmp_path / "a_queries.sids").read_text().splitlines()[0].split("\t")[0]
    qi_pairs.write_text(f"{first_query}\t{item_ids[0]}\n")
    merged = tmp_path / "merged.sids"
    merged.write_text((tmp_path / "a_items.sids").read_text()
                      + (tmp_path / "a_queries.sids").read_text())
    ok &= _run_twice(["curriculum", "--stage", "2", "--pairs", str(qi_pairs),
                      "--sids", str(merged), "--levels", "4,3,2", "--opq", "2x2",
                      "--out", "{OUT}"], tmp_path, ["stage2.tsv"])

    ok &= _run_twice(["curriculum", "--stage", "3",
                      "--sessions", str(data / "sessions.jsonl"),
                      "--sids", sids, "--query-sids", qsids, "--codebook", cb,
                      "--out", "{OUT}"], tmp_path, ["stage3.tsv"])
    stage3 = str(tmp_path / "a_stage3.tsv")

    ok &= _run_twice(["fit-scorer", "--records", stage3, "--levels", "4,3,2",
                      "--opq", "2x2", "--out", "{OUT}"], tmp_path, ["scorer.json"])
    scorer = str(tmp_path / "a_scorer.json")

    first_qsid = (tmp_path / "a_queries.sids").read_text().splitlines()[0].split("\t")[1]
    ok &= _run_twice(["generate", "--trie-from", sids, "--levels", "4,3,2",
                      "--opq", "2x2", "--scorer", scorer, "--context", first_qsid,
                      "--beam", "4", "--out", "{OUT}"], tmp_path, ["gen.tsv"])
    ok &= _run_twice(["generate", "--trie-from", sids, "--levels", "4,3,2",
                      "--opq", "2x2", "--scorer", scorer, "--context", first_qsid,
                      "--beam", "8", "--unconstrained", "--out", "{OUT}"],
                     tmp_path, ["gen_unc.tsv"])

    cases_path = tmp_path / "cases.jsonl"
    with open(cases_path, "w") as f:
        for line in (tmp_path / "a_queries.sids").read_text().splitlines():
            q_id, q_sid = line.split("\t")
            cluster = q_id.removeprefix("query")
            f.write(json.dumps({"context": q_sid,
                                "truth": [f"item{cluster}_0"]}) + "\n")
    ok &= _run_twice(["evaluate", "--codebook", cb, "--scorer", scorer,
                      "--catalog", str(data / "items.catalog"),
                      "--cases", str(cases_path), "--k", "1,5", "--beam", "8",
                      "--out", "{OUT}"], tmp_path, ["eval.tsv"])

    capsys.readouterr()  # swallow incidental stdout from the commands
    _report(
        11,
        "every CLI command produces byte-identical outputs across two runs "
        "with fixed seeds and inputs",
        ok,
    )
