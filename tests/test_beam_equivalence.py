"""The array decoder against the reference decoder in ``beam_oracle``: every
hit, score, tie-break and catalog flag is equal, compared by ``repr``."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import beam_oracle
from sidforge.generator import (
    BeamHit,
    BeamHits,
    CooccurrenceScorer,
    UniformScorer,
    _best,
    beam_search,
    build_trie,
    cooccurrence_fit,
)
from sidforge.sids import Sid, SidCatalog, SidScheme

# finite row entries; pairs of the largest sum past float64 to +-inf
ROW_VALUES = (0.0, -0.0, 1.0, -1.0, -2.5, 3.0, 1e308, -1e308, 1.7e308, -1.7e308)


class TableScorer:
    """Rows looked up by position and previous digit, a pure function of the prefixes."""

    def __init__(self, tables):
        self.tables = tables

    def score_step(self, context, prefixes, vocab):
        pos = prefixes.shape[1]
        prev = prefixes[:, -1] if pos else np.zeros(len(prefixes), dtype=np.int64)
        return self.tables[pos][prev]


@st.composite
def schemes(draw):
    rq = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    opq = draw(st.lists(st.integers(1, 3), max_size=2))
    return SidScheme(tuple(rq), tuple(opq))


def sids_of(draw, scheme, min_size=0, max_size=12):
    digits = draw(st.lists(st.tuples(*(st.integers(0, n - 1) for n in scheme.sizes)),
                           min_size=min_size, max_size=max_size))
    n_rq = len(scheme.rq_sizes)
    return [Sid(d[:n_rq], d[n_rq:]) for d in digits]


@st.composite
def searches(draw):
    """``(scheme, trie, library scorer, oracle scorer, context, beam, constrained)``."""
    scheme = draw(schemes())
    sids = sids_of(draw, scheme)
    if sids and draw(st.booleans()):  # the same SID under several ids
        sids += draw(st.lists(st.sampled_from(sids), max_size=4))
    constrained = draw(st.booleans())
    trie = None
    if constrained or draw(st.booleans()):
        trie = build_trie(SidCatalog({f"i{n}": sid for n, sid in enumerate(sids)}, scheme))
    kind = draw(st.sampled_from(["uniform", "integer", "huge", "cooccurrence"]))
    if kind == "uniform":
        scorer = oracle = UniformScorer()
    elif kind == "cooccurrence":
        pairs = list(zip(sids_of(draw, scheme, 1), sids_of(draw, scheme, 1)))
        scorer = cooccurrence_fit(pairs, scheme)
        oracle = beam_oracle.OracleCooccurrence(scorer)
    else:
        values = st.integers(-3, 3) if kind == "integer" else st.sampled_from(ROW_VALUES)
        tables = [np.array(draw(st.lists(st.lists(values, min_size=vocab, max_size=vocab),
                                         min_size=prev, max_size=prev)))
                  for prev, vocab in zip((1, *scheme.sizes), scheme.sizes)]
        scorer = oracle = TableScorer(tables)
    q1 = draw(st.integers(0, scheme.rq_sizes[0]))  # one past the first level: unseen
    context = Sid((q1,) + (0,) * (len(scheme.rq_sizes) - 1), (0,) * len(scheme.opq_sizes))
    if draw(st.booleans()):
        context = [q1]
    space = int(np.prod(scheme.sizes))
    beam = draw(st.integers(1, space + 3))
    return scheme, trie, scorer, oracle, context, beam, constrained


@settings(max_examples=400, deadline=None, database=None)
@given(search=searches())
def test_beam_search_equals_reference(search):
    scheme, trie, scorer, oracle, context, beam, constrained = search
    with np.errstate(over="ignore"):  # "huge" rows sum past float64 in both
        hits = beam_search(context, scorer, beam, trie=trie, scheme=scheme,
                           constrained=constrained)
        expected = beam_oracle.beam_search(context, oracle, beam, trie=trie, scheme=scheme,
                                           constrained=constrained)
    assert repr(hits) == repr(expected)


def test_wide_tie_heavy_search_equals_reference():
    """Steps of thousands of candidates, few distinct scores and a beam that
    ends inside a run of ties, as in the width-512 searches."""
    scheme = SidScheme((16, 8, 8), (4, 4))
    rng = np.random.default_rng(9)
    tables = [rng.integers(-2, 1, size=(prev, vocab)).astype(float)
              for prev, vocab in zip((1, *scheme.sizes), scheme.sizes)]
    digits = [tuple(int(rng.integers(n)) for n in scheme.sizes) for _ in range(300)]
    trie = build_trie(SidCatalog({f"i{n}": Sid(d[:3], d[3:]) for n, d in enumerate(digits)},
                                 scheme))
    for beam, constrained in itertools.product((1, 7, 64, 100, 250), (True, False)):
        hits = beam_search([0], TableScorer(tables), beam, trie=trie, constrained=constrained)
        expected = beam_oracle.beam_search([0], TableScorer(tables), beam, trie=trie,
                                           constrained=constrained)
        assert repr(hits) == repr(expected)


@settings(max_examples=400, deadline=None, database=None)
@given(search=searches(), empty=st.booleans())
def test_hit_arrays_equal_reference(search, empty):
    """``digits``, ``scores`` and ``in_catalog`` hold the reference hits as
    arrays: codes and flags equal, scores bit for bit."""
    scheme, trie, scorer, oracle, context, beam, constrained = search
    if empty and trie is not None:
        trie = build_trie(SidCatalog({}, scheme))
    with np.errstate(over="ignore"):
        hits = beam_search(context, scorer, beam, trie=trie, scheme=scheme,
                           constrained=constrained)
        expected = beam_oracle.beam_search(context, oracle, beam, trie=trie, scheme=scheme,
                                           constrained=constrained)
    assert isinstance(hits, BeamHits)
    assert hits.digits.dtype == np.int64 and hits.digits.shape == (len(expected), scheme.length)
    assert hits.digits.tolist() == [list(h.sid.digits) for h in expected]
    assert hits.scores.dtype == np.float64
    assert hits.scores.tobytes() == np.array([h.score for h in expected], dtype=float).tobytes()
    if trie is None:
        assert hits.in_catalog is None
        assert all(h.in_catalog is None for h in expected)
    else:
        assert hits.in_catalog.dtype == bool
        assert hits.in_catalog.tolist() == [h.in_catalog for h in expected]


def _wide_hits(constrained=False, trie=True):
    scheme = SidScheme((4, 3), (2,))
    tables = [np.array([[0.0, -1.0, -1.0, -2.0]]), np.array([[0.0, -1.0, 0.0]] * 4),
              np.array([[-0.5, 0.0]] * 3)]
    catalog = SidCatalog({"a": Sid((0, 0), (1,)), "b": Sid((1, 2), (0,)),
                          "c": Sid((0, 0), (1,))}, scheme)
    return beam_search([0], TableScorer(tables), 30, trie=build_trie(catalog) if trie else None,
                       scheme=scheme, constrained=constrained)


def test_hits_read_as_the_list_of_beam_hits():
    hits = _wide_hits()
    listed = list(hits)
    assert len(hits) == len(listed) == 24
    assert all(type(h) is BeamHit for h in listed)
    assert [hits[i] for i in range(len(hits))] == listed
    assert [hits[i] for i in range(-1, -len(hits) - 1, -1)] == listed[::-1]
    assert hits[np.int64(3)] == listed[3]
    for index in (24, -25, 100):
        with pytest.raises(IndexError):
            hits[index]
    with pytest.raises(TypeError):
        hits["0"]
    for cut in (slice(3), slice(-5, None), slice(1, 20, 3), slice(None, None, -2), slice(30, 40)):
        part = hits[cut]
        assert isinstance(part, BeamHits)
        assert part == listed[cut] and list(part) == listed[cut] and len(part) == len(listed[cut])
    assert hits == listed and listed == hits and hits == tuple(listed) and hits == hits[:]
    assert hits != listed[:-1] and hits != listed[::-1] and hits != hits[1:]
    assert hits != set(listed) and hits != "hits"
    assert repr(hits) == repr(listed) and str(hits) == str(listed)
    assert BeamHits.__hash__ is None
    with pytest.raises(TypeError):
        hash(hits)
    assert listed[0] in hits and hits.index(listed[5]) == 5


def test_hit_elements_hold_python_values():
    for constrained, trie, flag in ((False, True, (True, False)), (True, True, (True,)),
                                    (False, False, (None,))):
        hits = _wide_hits(constrained, trie)
        assert hits
        for hit in (*hits, hits[0], hits[-1]):
            assert type(hit.score) is float
            assert hit.in_catalog in flag and type(hit.in_catalog) is type(flag[0])
            assert all(type(d) is int for d in hit.sid.digits)
            assert type(hit.sid) is Sid and len(hit.sid.rq) == 2 and len(hit.sid.opq) == 1
        assert {h.in_catalog for h in hits} == set(flag)


def test_empty_trie_gives_empty_hits():
    scheme = SidScheme((3, 2))
    trie = build_trie(SidCatalog({}, scheme))
    hits = beam_search([0], UniformScorer(), 4, trie=trie)
    assert hits == [] and len(hits) == 0 and hits.digits.shape == (0, 2)
    wide = beam_search([0], UniformScorer(), 4, trie=trie, constrained=False)
    assert wide.in_catalog.tolist() == [False] * 4


def test_wide_unconstrained_search_builds_no_hit_objects(monkeypatch):
    scheme = SidScheme((64, 32, 16), (16, 16))
    rng = np.random.default_rng(3)
    tables = [rng.normal(size=(prev, vocab))
              for prev, vocab in zip((1, *scheme.sizes), scheme.sizes)]
    digits = rng.integers(0, 16, size=(200, 5))
    trie = build_trie(SidCatalog({f"i{n}": Sid(tuple(d[:3]), tuple(d[3:]))
                                  for n, d in enumerate(digits.tolist())}, scheme))
    built = {"BeamHit": 0, "Sid": 0}
    for cls in (BeamHit, Sid):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    hits = beam_search([0], TableScorer(tables), 512, trie=trie, constrained=False)
    assert len(hits) == 512 and built == {"BeamHit": 0, "Sid": 0}
    list(hits)
    assert built == {"BeamHit": 512, "Sid": 512}


@settings(max_examples=300, deadline=None, database=None)
@given(scores=st.lists(st.sampled_from((0.0, -0.0, 1.0, -1.0, 2.0, np.inf, -np.inf)),
                       max_size=40),
       extra=st.integers(0, 3))
def test_cut_equals_stable_argsort_cut(scores, extra):
    scores = np.array(scores, dtype=float)
    for beam in range(1, len(scores) + extra + 1):
        expected = np.sort(np.argsort(-scores, kind="stable")[:beam])
        assert _best(scores, beam).tolist() == expected.tolist()


def test_cut_keeps_lowest_index_ties_across_signed_zeros():
    scores = np.array([-0.0, 1.0, 0.0, -np.inf, 0.0, np.inf, -0.0])
    assert _best(scores, 3).tolist() == [0, 1, 5]
    assert _best(scores, 5).tolist() == [0, 1, 2, 4, 5]
    assert _best(np.array([-np.inf] * 4), 2).tolist() == [0, 1]


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_trie_lookups_equal_node_walk(data):
    scheme = data.draw(schemes())
    sids = sids_of(data.draw, scheme)
    sids += data.draw(st.lists(st.sampled_from(sids), max_size=3)) if sids else []
    trie = build_trie(SidCatalog({f"i{n}": sid for n, sid in enumerate(sids)}, scheme))
    probes = {sid.digits[:k] for sid in sids for k in range(scheme.length + 1)}
    probes |= {sid.digits + (0,) for sid in sids}
    probes |= set(data.draw(st.lists(st.lists(st.integers(-1, 4), max_size=scheme.length + 1)
                                     .map(tuple), max_size=10)))
    for digits in probes:
        assert trie.items_at(digits) == beam_oracle.items_at(trie, digits)
        assert trie.contains(digits) is beam_oracle.contains(trie, digits)
        assert trie.items_at(list(digits)) == beam_oracle.items_at(trie, digits)
    assert sum(map(len, trie.terminals.values())) == trie.size
    for digits, item_ids in trie.terminals.items():  # the terminal node's own list
        node = trie.root
        for d in digits:
            node = node.children[d]
        assert node.item_ids is item_ids


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_scorer_rows_equal_reference_bit_for_bit(data):
    """Including previous and query digits outside the scheme, whose slots are unseen."""
    scheme = data.draw(schemes())
    pairs = list(zip(sids_of(data.draw, scheme, 1), sids_of(data.draw, scheme, 1)))
    scorer = cooccurrence_fit(pairs, scheme)
    oracle = beam_oracle.OracleCooccurrence(scorer)
    q1 = data.draw(st.integers(-1, scheme.rq_sizes[0]))
    for pos, vocab in enumerate(scheme.sizes):
        prev = data.draw(st.lists(st.integers(-1, max(scheme.sizes[:pos], default=0)),
                                  min_size=1, max_size=8))
        prefixes = np.array(prev, dtype=np.int64)[:, None].repeat(pos, axis=1)
        rows = scorer.score_step([q1], prefixes, vocab)
        assert rows.tobytes() == oracle.score_step([q1], prefixes, vocab).tobytes()


def test_counts_are_read_only(tmp_path):
    scheme = SidScheme((3, 3), (2,))
    scorer = cooccurrence_fit([(Sid((1, 0), (0,)), Sid((2, 1), (1,)))], scheme)
    scorer.save(tmp_path / "scorer.json")
    for s in (scorer, CooccurrenceScorer.load(tmp_path / "scorer.json"), CooccurrenceScorer(scheme)):
        with pytest.raises(TypeError):
            s.counts[(0, 1, -1)] = {0: 5}
        with pytest.raises(AttributeError):
            s.counts = {}
    with pytest.raises(TypeError):
        scorer.counts[(0, 1, -1)][0] = 5
    assert scorer.counts == {(0, 1, -1): {2: 1}, (1, 1, 2): {1: 1}, (2, 1, 1): {1: 1}}
