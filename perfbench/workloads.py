"""The four benchmark workloads and the checks on their outputs.

Each workload has ``setup(seed, size, workdir)``, which builds the inputs
(and any fit the timed phase needs), and ``repeat(state, tracer)``, which
runs the timed phase once and then checks what it produced.

Timed-phase calls go through module attributes (``quantizer.fit_codebook``)
so that the tracer's wrappers see them. Check-phase calls use the names
bound below at import time, before any wrapper exists, so checks never
show up as spans.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sidforge import cli, evalharness, generator, quantizer, sidmetrics
from sidforge.evalharness import EvalCase, SyntheticSpec
from sidforge.generator import beam_search as _beam_search
from sidforge.quantizer import OpqCodebook, RqCodebook, RqOpqCodebook
from sidforge.sidmetrics import icr as _icr
from sidforge.sids import SidCatalog, SidScheme
from sidforge.sids import read_sid_file as _read_sid_file


@dataclass
class Repeat:
    wall_s: float
    # (operation, problems found, digest of its outputs)
    ops: list[tuple[str, list[str], str]]
    # workload-specific figures (throughputs, latencies, quality)
    values: dict[str, float]


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def _invalid_sids(sids, scheme: SidScheme) -> list[str]:
    problems = []
    for sid in sids:
        try:
            scheme.validate(sid)
        except ValueError as exc:
            problems.append(f"invalid SID {sid}: {exc}")
            break
    return problems


def _balance_problems(rq_codes: np.ndarray, k: int) -> list[str]:
    sizes = np.bincount(rq_codes, minlength=k)
    spread = int(sizes.max() - sizes.min())
    return [] if spread <= 1 else [f"balanced last level sizes differ by {spread}"]


def _ranking_problems(hits) -> list[str]:
    keys = [(-h.score, h.sid.digits) for h in hits]
    return [] if keys == sorted(keys) else ["hits not sorted by (-score, digits)"]


def _codebook_digest(cb: RqOpqCodebook) -> str:
    tables = [t.tobytes() for t in cb.rq.levels] + [cb.opq.rotation.tobytes()]
    tables += [t.tobytes() for t in cb.opq.subspaces]
    return _digest(*tables, json.dumps(cb.build_metadata, sort_keys=True))


def _sid_digest(sids) -> str:
    return _digest(np.array([s.digits for s in sids], dtype=np.int64).tobytes())


# --------------------------------------------------------------------------
# fit-m: fit_codebook at ROADMAP scale M, then encode a held-out batch

FIT_M = {
    "full": dict(clusters=200, items=100, dim=32, held_out=4000,
                 levels=(256, 64, 32), opq=(2, 64)),
    "tiny": dict(clusters=8, items=12, dim=8, held_out=40, levels=(8, 4, 4), opq=(2, 4)),
}
# The training catalog is the fixed scale-M catalog. Fit time depends on how
# fast Lloyd converges on a catalog: over catalog seeds 1-5 one fit took
# 14.1-19.2 s, a spread far above any usable bound, so --seed varies only
# the held-out batch.
FIT_M_CATALOG_SEED = 3
FIT_SEED = 7


class FitM:
    def setup(self, seed: int, size: str, workdir: Path):
        p = FIT_M[size]
        bundle = evalharness.synth_catalog(SyntheticSpec(
            clusters=p["clusters"], items_per_cluster=p["items"], dim=p["dim"],
            seed=FIT_M_CATALOG_SEED))
        # held-out arrivals from the same clusters: catalog items moved by
        # the catalog's own noise scale
        rng = np.random.default_rng(seed)
        rows = rng.integers(len(bundle.items), size=p["held_out"])
        held_out = bundle.items.matrix[rows] + rng.normal(0.0, 0.5, size=(p["held_out"], p["dim"]))
        return dict(p=p, items=bundle.items, held_out=held_out)

    def repeat(self, s, tracer) -> Repeat:
        p = s["p"]
        t0 = time.perf_counter()
        cb = quantizer.fit_codebook(s["items"], p["levels"], balanced_last=True,
                                    opq_subspaces=p["opq"][0], opq_codes=p["opq"][1],
                                    seed=FIT_SEED)
        t1 = time.perf_counter()
        sids = quantizer.encode_batch(s["held_out"], cb)
        t2 = time.perf_counter()

        scheme = cb.scheme
        rq = np.array([sid.rq for sid in cb.fit_sids], dtype=np.int64)
        fit_problems = _invalid_sids(cb.fit_sids, scheme)
        fit_problems += _balance_problems(rq[:, -1], p["levels"][-1])
        if len(cb.fit_sids) != len(s["items"]):
            fit_problems.append("fit_sids does not cover the catalog")
        encode_problems = _invalid_sids(sids, scheme)
        if len(sids) != len(s["held_out"]):
            encode_problems.append("encode_batch returned the wrong number of SIDs")
        fit_catalog = SidCatalog(dict(zip(s["items"].ids, cb.fit_sids)), scheme)
        return Repeat(
            wall_s=t2 - t0,
            ops=[("fit_codebook", fit_problems,
                  _digest(_codebook_digest(cb), _sid_digest(cb.fit_sids))),
                 ("encode_batch", encode_problems, _sid_digest(sids))],
            values={
                "fit_items_per_s": len(s["items"]) / (t1 - t0),
                "encode_items_per_s": len(sids) / (t2 - t1),
                "recon_mse": cb.build_metadata["opq"]["mean_sq_error_per_outer_iter"][-1],
                "icr_full": _icr(fit_catalog),
            },
        )


# --------------------------------------------------------------------------
# encode-paper: encode at the paper's code width against seeded tables

ENCODE_PAPER = {
    "full": dict(n=20_000, dim=32, levels=(4096, 1024, 512), opq=(2, 256),
                 batches=4, batch=5_000),
    "tiny": dict(n=300, dim=8, levels=(64, 16, 8), opq=(2, 8), batches=4, batch=50),
}
# per-level centroid scales: each level refines the residual of the one above
_LEVEL_SCALES = (10.0, 2.5, 0.6)
_OPQ_SCALE = 0.15
_NOISE = 0.1
# share of rows that repeat an earlier row (re-listed items), so that the
# independent coding rate is below 1 and moves when codes move
_DUPLICATE_SHARE = 0.1


def _paper_codebook(rng, p) -> RqOpqCodebook:
    d = p["dim"]
    levels = [rng.normal(0.0, scale, size=(k, d)) for k, scale in zip(p["levels"], _LEVEL_SCALES)]
    rotation, _ = np.linalg.qr(rng.normal(size=(d, d)))
    subspaces, codes = p["opq"]
    tables = [rng.normal(0.0, _OPQ_SCALE, size=(codes, d // subspaces)) for _ in range(subspaces)]
    return RqOpqCodebook(RqCodebook(levels, tuple(p["levels"]), True), OpqCodebook(rotation, tables))


def _paper_vectors(rng, cb: RqOpqCodebook, n: int, pool: np.ndarray | None) -> np.ndarray:
    x = rng.normal(0.0, _NOISE, size=(n, cb.dim))
    for table in cb.rq.levels:
        x += table[rng.integers(table.shape[0], size=n)]
    dup = rng.random(n) < _DUPLICATE_SHARE
    source = x if pool is None else pool
    x[dup] = source[rng.integers(len(source), size=int(dup.sum()))]
    return x


class EncodePaper:
    def setup(self, seed: int, size: str, workdir: Path):
        p = ENCODE_PAPER[size]
        rng = np.random.default_rng(seed)
        cb = _paper_codebook(rng, p)
        vectors = _paper_vectors(rng, cb, p["n"], None)
        batches = [_paper_vectors(rng, cb, p["batch"], vectors) for _ in range(p["batches"])]
        return dict(p=p, cb=cb, vectors=vectors, batches=batches,
                    ids=[f"item{i}" for i in range(p["n"])])

    def repeat(self, s, tracer) -> Repeat:
        cb = s["cb"]
        t0 = time.perf_counter()
        sids = quantizer.encode_batch(s["vectors"], cb)
        t1 = time.perf_counter()
        catalog = SidCatalog(dict(zip(s["ids"], sids)), cb.scheme)
        curs = [sidmetrics.cur(catalog, p) for p in range(1, len(cb.rq.levels) + 1)]
        icr_full = sidmetrics.icr(catalog)
        icr_rq = sidmetrics.icr(catalog, use_opq=False)
        steps = sidmetrics.drift_report(cb, catalog, s["batches"])
        t2 = time.perf_counter()

        encode_problems = _invalid_sids(sids, cb.scheme)
        if len(sids) != len(s["vectors"]):
            encode_problems.append("encode_batch returned the wrong number of SIDs")
        rate_problems = [] if all(0.0 < c <= 1.0 for c in curs) and 0.0 <= icr_rq <= icr_full <= 1.0 \
            else [f"rates out of range: cur {curs}, icr {icr_rq} / {icr_full}"]
        sizes = [len(s["vectors"]) + sum(len(b) for b in s["batches"][:i + 1])
                 for i in range(len(s["batches"]))]
        drift_problems = [] if (
            [st.cumulative_size for st in steps] == sizes
            and all(0.0 <= st.occupied_ratio <= 1.0 and 0.0 <= st.icr <= 1.0 for st in steps)
        ) else ["drift steps inconsistent with the batches"]
        return Repeat(
            wall_s=t2 - t0,
            ops=[("encode_batch", encode_problems, _sid_digest(sids)),
                 ("cur_icr", rate_problems, _digest(curs, icr_full, icr_rq)),
                 ("drift_report", drift_problems, _digest(steps))],
            values={"encode_items_per_s": len(sids) / (t1 - t0), "icr_full": icr_full},
        )


# --------------------------------------------------------------------------
# decode-s: the criterion-9 setup; run_eval plus wide unconstrained beams

DECODE_S = {
    "full": dict(clusters=100, items=50, dim=16, sessions=20_000, train=18_000,
                 levels=(64, 32, 16), opq=(2, 16), beam=16, wide=512),
    "tiny": dict(clusters=10, items=12, dim=8, sessions=300, train=270,
                 levels=(8, 4, 4), opq=(2, 4), beam=4, wide=32),
}


def _criterion9_setup(seed: int, p):
    """The acceptance suite's criterion-9 path, with the synth seed given."""
    bundle = evalharness.synth_catalog(SyntheticSpec(
        clusters=p["clusters"], items_per_cluster=p["items"], dim=p["dim"],
        noise_scale=0.5, center_scale=10.0, sessions=p["sessions"], seed=seed))
    cb = quantizer.fit_codebook(bundle.items, p["levels"], balanced_last=True,
                                opq_subspaces=p["opq"][0], opq_codes=p["opq"][1], seed=FIT_SEED)
    sid_catalog = SidCatalog(dict(zip(bundle.items.ids, cb.fit_sids)), cb.scheme)
    q_sids = dict(zip(bundle.queries.ids, quantizer.encode_batch(bundle.queries.matrix, cb)))
    train, test = bundle.sessions[:p["train"]], bundle.sessions[p["train"]:]
    scorer = generator.cooccurrence_fit(
        [(q_sids[t.query_id], sid_catalog.entries[t.clicked_item]) for t in train], cb.scheme)
    cases = [EvalCase(q_sids[t.query_id], frozenset({t.clicked_item})) for t in test]
    return bundle, cb, sid_catalog, scorer, cases


class DecodeS:
    def setup(self, seed: int, size: str, workdir: Path):
        p = DECODE_S[size]
        bundle, cb, sid_catalog, scorer, cases = _criterion9_setup(seed, p)
        contexts = sorted({case.context for case in cases}, key=lambda sid: sid.digits)
        return dict(p=p, items=bundle.items, cb=cb, sid_catalog=sid_catalog, scorer=scorer,
                    cases=cases, contexts=contexts, trie=generator.build_trie(sid_catalog))

    def repeat(self, s, tracer) -> Repeat:
        p, trie, scorer = s["p"], s["trie"], s["scorer"]
        t0 = time.perf_counter()
        report = evalharness.run_eval(s["cb"], scorer, s["cases"], [10], s["items"],
                                      beam=p["beam"], sid_catalog=s["sid_catalog"])
        t1 = time.perf_counter()
        latencies, wide = [], []
        for context in s["contexts"]:
            start = time.perf_counter()
            wide.append(generator.beam_search(context, scorer, p["wide"], trie=trie,
                                              constrained=False))
            latencies.append(time.perf_counter() - start)
        t2 = time.perf_counter()

        # run_eval hides its hits; re-run the constrained search per context
        eval_problems = []
        if report.n_cases != len(s["cases"]) or not 0.0 <= report.hitrate[10] <= 1.0:
            eval_problems.append(f"report covers {report.n_cases} cases, HR@10 {report.hitrate[10]}")
        constrained = []
        for context in s["contexts"]:
            hits = _beam_search(context, scorer, p["beam"], trie=trie)
            constrained.append(hits)
            eval_problems += _ranking_problems(hits)
            if not all(h.in_catalog and trie.contains(h.sid.digits) for h in hits):
                eval_problems.append("constrained hit outside the trie")
        ops = [("run_eval", eval_problems, _digest(report.render(), constrained))]
        for i, hits in enumerate(wide):
            problems = _ranking_problems(hits) + _invalid_sids([h.sid for h in hits], trie.scheme)
            if any(h.in_catalog != trie.contains(h.sid.digits) for h in hits):
                problems.append("in_catalog disagrees with the trie")
            if len(hits) != p["wide"]:
                problems.append(f"{len(hits)} hits for beam {p['wide']}")
            ops.append((f"beam_wide[{i}]", problems, _digest(hits)))

        values = {
            "eval_cases_per_s": len(s["cases"]) / (t1 - t0),
            "beam512_p50_ms": 1000.0 * statistics.median(latencies),
            "hr_at_10": report.hitrate[10],
            "mrr_at_10": report.mrr[10],
            "icr_full": report.catalog_icr_full,
            "recon_mse": s["cb"].build_metadata["opq"]["mean_sq_error_per_outer_iter"][-1],
        }
        if len(latencies) >= 2:
            values["beam512_p90_ms"] = 1000.0 * statistics.quantiles(latencies, n=10)[-1]
        return Repeat(wall_s=t2 - t0, ops=ops, values=values)


# --------------------------------------------------------------------------
# cli-s: the whole CLI pipeline in-process on the criterion-9 spec

CLI_S = {
    "full": dict(spec=dict(clusters=100, items_per_cluster=50, dim=16, noise_scale=0.5,
                           center_scale=10.0, sessions=20_000),
                 train=18_000, levels="64,32,16", opq="2x16", beam=16, wide=512),
    "tiny": dict(spec=dict(clusters=10, items_per_cluster=12, dim=8, noise_scale=0.5,
                           center_scale=10.0, sessions=300),
                 train=270, levels="8,4,4", opq="2x4", beam=4, wide=32),
}


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run one command in-process; return its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def _tsv(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines() if line]


class CliS:
    def setup(self, seed: int, size: str, workdir: Path):
        """Synthesize the inputs with ``sidforge synth`` and split the sessions."""
        p = CLI_S[size]
        data = workdir / "data"
        shutil.rmtree(data, ignore_errors=True)
        data.mkdir(parents=True)
        (data / "spec.json").write_text(json.dumps({**p["spec"], "seed": seed}), encoding="utf-8")
        code, _ = _cli(["synth", "--spec", str(data / "spec.json"), "--out", str(data)])
        if code != 0:
            raise RuntimeError(f"sidforge synth exited with {code}")
        lines = (data / "sessions.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        (data / "train.jsonl").write_text("".join(lines[:p["train"]]), encoding="utf-8")
        held_out = [json.loads(line) for line in lines[p["train"]:]]
        return dict(p=p, data=data, workdir=workdir, held_out=held_out,
                    n_items=p["spec"]["clusters"] * p["spec"]["items_per_cluster"])

    def repeat(self, s, tracer) -> Repeat:
        p, data = s["p"], s["data"]
        r = s["workdir"] / "run"
        shutil.rmtree(r, ignore_errors=True)
        r.mkdir(parents=True)
        scheme_flags = ["--levels", p["levels"], "--opq", p["opq"]]
        runs: dict[str, tuple[int, str, float]] = {}

        def run(command: str, *argv: str) -> None:
            with tracer.span(f"cli.{command}"):
                start = time.perf_counter()
                code, stdout = _cli([command, *argv])
                runs[command] = (code, stdout, time.perf_counter() - start)

        t0 = time.perf_counter()
        run("enhance", "--catalog", str(data / "items.catalog"),
            "--keywords", str(data / "keywords.catalog"), "--out", str(r / "enhanced.catalog"))
        run("fit-codebook", "--catalog", str(r / "enhanced.catalog"), "--levels", p["levels"],
            "--balanced-last", "--opq", p["opq"], "--seed", str(FIT_SEED),
            "--out", str(r / "cb.bin"), "--sids-out", str(r / "items.sids"))
        run("encode", "--codebook", str(r / "cb.bin"),
            "--catalog", str(data / "queries.catalog"), "--out", str(r / "queries.sids"))
        query_sids = dict(_tsv(r / "queries.sids"))
        with open(r / "cases.jsonl", "w", encoding="utf-8") as f:
            for sess in s["held_out"]:
                f.write(json.dumps({"context": query_sids[sess["query_id"]],
                                    "truth": [sess["clicked_item"]]}) + "\n")
        run("curriculum", "--stage", "3", "--sessions", str(data / "train.jsonl"),
            "--sids", str(r / "items.sids"), "--query-sids", str(r / "queries.sids"),
            "--codebook", str(r / "cb.bin"), "--out", str(r / "stage3.tsv"))
        run("fit-scorer", "--records", str(r / "stage3.tsv"), *scheme_flags,
            "--out", str(r / "scorer.json"))
        run("evaluate", "--codebook", str(r / "cb.bin"), "--scorer", str(r / "scorer.json"),
            "--catalog", str(r / "enhanced.catalog"), "--cases", str(r / "cases.jsonl"),
            "--k", "10,50", "--beam", str(p["beam"]), "--out", str(r / "eval.tsv"))
        run("metrics", "--sids", str(r / "items.sids"), *scheme_flags, "--with-opq",
            "--out", str(r / "metrics.tsv"))
        first_query = min(query_sids)
        run("generate", "--trie-from", str(r / "items.sids"), *scheme_flags,
            "--scorer", str(r / "scorer.json"), "--context", query_sids[first_query],
            "--beam", str(p["wide"]), "--out", str(r / "gen.tsv"))
        wall = time.perf_counter() - t0

        outputs = {
            "enhance": ["enhanced.catalog"], "fit-codebook": ["cb.bin", "cb.bin.meta.json", "items.sids"],
            "encode": ["queries.sids"], "curriculum": ["stage3.tsv"], "fit-scorer": ["scorer.json"],
            "evaluate": ["eval.tsv"], "metrics": ["metrics.tsv"], "generate": ["gen.tsv"],
        }
        problems = {command: [] if runs[command][0] == 0 else [f"exit code {runs[command][0]}"]
                    for command in outputs}
        subspaces, codes = (int(x) for x in p["opq"].split("x"))
        scheme = SidScheme(tuple(int(x) for x in p["levels"].split(",")), (codes,) * subspaces)
        items = _read_sid_file(r / "items.sids", scheme)
        rq = np.array([sid.rq for sid in items.sids()], dtype=np.int64)
        problems["fit-codebook"] += _balance_problems(rq[:, -1], scheme.rq_sizes[-1])
        if len(items) != s["n_items"]:
            problems["fit-codebook"].append(f"{len(items)} fit SIDs for {s['n_items']} items")
        _read_sid_file(r / "queries.sids", scheme)
        report = {row[0]: row[1:] for row in _tsv(r / "eval.tsv")}
        if report.get("cases") != [str(len(s["held_out"]))]:
            problems["evaluate"].append(f"evaluated {report.get('cases')} cases")
        rates = {row[0]: float(row[1]) for row in _tsv(r / "metrics.tsv")}
        if not all(0.0 <= v <= 1.0 for v in rates.values()):
            problems["metrics"].append(f"rates out of range: {rates}")
        catalog_digits = {sid.digits for sid in items.sids()}
        hits = []
        for rank, (shown, rendered, score, ids) in enumerate(_tsv(r / "gen.tsv"), 1):
            sid = scheme.parse(rendered)
            hits.append(generator.BeamHit(sid, float(score), True))
            if int(shown) != rank or ids == "-" or sid.digits not in catalog_digits:
                problems["generate"].append(f"rank {rank}: constrained hit outside the catalog")
        problems["generate"] += _ranking_problems(hits)

        ops = []
        for command, names in outputs.items():
            digest = _digest(runs[command][1], *((r / n).read_bytes() for n in names))
            ops.append((f"cli.{command}", problems[command], digest))
        meta = json.loads((r / "cb.bin.meta.json").read_text(encoding="utf-8"))
        values = {
            "fit_items_per_s": s["n_items"] / runs["fit-codebook"][2],
            "eval_cases_per_s": len(s["held_out"]) / runs["evaluate"][2],
            "hr_at_10": float(report["10"][0]),
            "mrr_at_10": float(report["10"][1]),
            "icr_full": rates["icr_full"],
            "recon_mse": meta["opq"]["mean_sq_error_per_outer_iter"][-1],
        }
        shutil.rmtree(r)
        return Repeat(wall_s=wall, ops=ops, values=values)


WORKLOADS = {"fit-m": FitM(), "encode-paper": EncodePaper(),
             "decode-s": DecodeS(), "cli-s": CliS()}
