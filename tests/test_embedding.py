import numpy as np
import pytest
from hypothesis import given, strategies as st

from sidforge.embedding import (
    Catalog,
    Embedding,
    KeywordSet,
    PairRecord,
    compose_enhanced,
    cosine,
    cosine_filter,
    float_rows,
    load_catalog,
    make_pair,
    match_keywords,
    read_pairs,
    save_catalog,
    write_pairs,
)


def emb(id_, *vals):
    return Embedding(id_, np.array(vals, dtype=float))


class TestComposeEnhanced:
    def test_single_keyword_hand_case(self):
        # 0.5 * ((2,0) + (0,2)) = (1,1)
        out = compose_enhanced(emb("b", 2, 0), KeywordSet("b", (emb("k", 0, 2),)))
        assert np.allclose(out.vector, [1.0, 1.0])

    def test_empty_keywords_passthrough(self):
        base = emb("b", 3.5, -1.0, 2.0)
        out = compose_enhanced(base, KeywordSet("b"))
        assert np.array_equal(out.vector, base.vector)

    def test_zero_mean_keywords_halve_base(self):
        out = compose_enhanced(
            emb("b", 4, 4), KeywordSet("b", (emb("k1", 0, 0), emb("k2", 0, 0)))
        )
        assert np.allclose(out.vector, [2.0, 2.0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            compose_enhanced(emb("b", 1, 2), KeywordSet("b", (emb("k", 1, 2, 3),)))

    @given(
        alpha=st.floats(min_value=-4, max_value=4, allow_nan=False),
        base=st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=5),
        kw=st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=5),
    )
    def test_linearity_in_inputs(self, alpha, base, kw):
        d = min(len(base), len(kw))
        b, k = np.array(base[:d]), np.array(kw[:d])
        scaled = compose_enhanced(emb("b", *(alpha * b)), KeywordSet("b", (emb("k", *(alpha * k)),)))
        unscaled = compose_enhanced(emb("b", *b), KeywordSet("b", (emb("k", *k),)))
        assert np.allclose(scaled.vector, alpha * unscaled.vector, atol=1e-9)

    def test_output_dim_matches_catalog(self):
        out = compose_enhanced(emb("b", 1, 2, 3), KeywordSet("b", (emb("k", 1, 1, 1),)))
        assert out.dim == 3


class TestCosineFilter:
    def test_threshold_cut(self):
        pairs = [PairRecord("a", "b", "q2i", 0.7), PairRecord("a", "c", "q2i", 0.5)]
        assert cosine_filter(pairs, 0.6) == [pairs[0]]

    def test_empty_input(self):
        assert cosine_filter([], 0.6) == []

    def test_identical_vectors_survive_any_threshold_below_one(self):
        p = make_pair(emb("a", 1, 2), emb("b", 1, 2), "i2i")
        assert p.cosine == pytest.approx(1.0)
        assert cosine_filter([p], 0.999999) == [p]

    def test_order_preserved_and_subset(self):
        pairs = [PairRecord("a", str(i), "q2q", c) for i, c in enumerate([0.9, 0.1, 0.8, 0.61])]
        kept = cosine_filter(pairs, 0.6)
        assert kept == [pairs[0], pairs[2], pairs[3]]

    def test_idempotent(self):
        pairs = [PairRecord("a", str(i), "q2q", c) for i, c in enumerate([0.9, 0.3, 0.7])]
        once = cosine_filter(pairs, 0.6)
        assert cosine_filter(once, 0.6) == once

    def test_threshold_out_of_range(self):
        with pytest.raises(ValueError):
            cosine_filter([], 1.5)

    def test_stored_cosine_matches_recomputation(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            u, v = rng.normal(size=4), rng.normal(size=4)
            p = make_pair(Embedding("u", u), Embedding("v", v), "q2i")
            assert abs(p.cosine - cosine(u, v)) < 1e-6


class TestMatchKeywords:
    LEXICON = {"Color": ["red"], "Material": ["cotton"]}

    def test_exact_containment(self):
        assert match_keywords("red cotton shirt", self.LEXICON) == [
            ("Color", "red"), ("Material", "cotton")
        ]

    def test_no_match(self):
        assert match_keywords("shirt", {"Color": ["red"]}) == []

    def test_repeated_occurrence_reported_once(self):
        assert match_keywords("redred", {"Color": ["red"]}) == [("Color", "red")]

    def test_lexicon_order(self):
        lex = {"Material": ["cotton"], "Color": ["red", "blue"]}
        assert match_keywords("blue red cotton", lex) == [
            ("Material", "cotton"), ("Color", "red"), ("Color", "blue")
        ]

    def test_empty_keyword_rejected(self):
        with pytest.raises(ValueError):
            match_keywords("x", {"Color": [""]})


class TestCatalogIO:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        mat = rng.normal(size=(5, 7)).astype(np.float32).astype(np.float64)
        cat = Catalog([f"i{i}" for i in range(5)], mat)
        path = tmp_path / "x.catalog"
        save_catalog(cat, path)
        loaded = load_catalog(path)
        assert loaded.ids == cat.ids
        assert np.array_equal(loaded.matrix, cat.matrix)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            Catalog(["a"], np.array([[np.nan, 1.0]]))

    def test_float32_max_round_trips(self, tmp_path):
        top = float(np.finfo(np.float32).max)
        path = tmp_path / "x.catalog"
        save_catalog(Catalog(["a"], np.array([[top, -top]])), path)
        assert load_catalog(path).matrix.tolist() == [[top, -top]]

    @pytest.mark.parametrize("value", [1e39, -1e50])
    def test_entry_beyond_float32_refused_before_writing(self, tmp_path, value):
        matrix = np.zeros((3, 2))
        matrix[1, 0] = value
        path = tmp_path / "x.catalog"
        with pytest.raises(ValueError, match="catalog row 1 holds a value beyond float32 range"):
            save_catalog(Catalog(["a", "b", "c"], matrix), path)
        assert not path.exists()

    def test_dimension_enforced(self, tmp_path):
        path = tmp_path / "bad.catalog"
        path.write_text("dim=0\n")
        with pytest.raises(ValueError):
            load_catalog(path)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Catalog(["a", "a"], np.zeros((2, 2)))


class TestIdentityEquality:
    """Equal-valued embeddings are distinct objects; comparing or hashing
    them must not touch the vector."""

    def test_embedding(self):
        a, b = emb("a", 1.0, 2.0), emb("a", 1.0, 2.0)
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert {a, b, a} == {a, b}

    def test_keyword_set(self):
        a = KeywordSet("q", (emb("k", 1.0, 2.0),))
        b = KeywordSet("q", (emb("k", 1.0, 2.0),))
        assert a == a and a != b
        assert len({a, b, a}) == 2


class TestFloatRows:
    """The one gate for float arrays: shape, NaN or inf, and magnitude."""

    @given(n=st.integers(1, 40), dim=st.integers(1, 6), data=st.data(),
           bad=st.sampled_from([np.nan, np.inf, -np.inf])
           | st.floats(min_value=1e100, exclude_min=True, allow_infinity=False)
           | st.floats(max_value=-1e100, exclude_max=True, allow_infinity=False))
    def test_error_names_the_bad_row(self, n, dim, data, bad):
        row = data.draw(st.integers(0, n - 1), label="row")
        rows = np.random.default_rng(n).normal(size=(n, dim))
        rows[row, data.draw(st.integers(0, dim - 1), label="col")] = bad
        with pytest.raises(ValueError, match=f"^catalog row {row} holds "):
            float_rows(rows, "catalog")
        with pytest.raises(ValueError, match=f"^catalog row {row} holds "):
            Catalog([f"i{i}" for i in range(n)], rows)

    def test_bound_itself_accepted(self):
        rows = float_rows([[1e100, -1e100], [0.0, 1.0]], "catalog")
        assert rows.dtype == np.float64 and rows.shape == (2, 2)

    @pytest.mark.parametrize("shape, dim, empty", [
        ((3,), None, False), ((2, 0), None, False), ((1, 2, 3), None, False),
        ((0, 3), None, False), ((4, 3), 2, True),
    ])
    def test_bad_shape_names_the_noun_and_dim(self, shape, dim, empty):
        with pytest.raises(ValueError, match=r"^catalog must be .*\(n, dim\) array with dim"):
            float_rows(np.zeros(shape), "catalog", dim, empty=empty)

    def test_zero_rows_only_when_allowed(self):
        assert float_rows(np.zeros((0, 3)), "catalog", 3, empty=True).shape == (0, 3)
        assert len(Catalog([], np.zeros((0, 3)))) == 0


class TestPairsIO:
    def test_round_trip(self, tmp_path):
        pairs = [PairRecord("a", "b", "q2i", 0.7), PairRecord("b", "c", "i2i", -0.25)]
        path = tmp_path / "pairs.tsv"
        write_pairs(pairs, path)
        assert read_pairs(path) == pairs

    @pytest.mark.parametrize("bad", ["a\tb\tq2i", "a\tb\tq2i\t0.5\textra",
                                     "a\tb\tq2i\tnope", "a\tb\tzzz\t0.5"])
    def test_malformed_line_names_path_and_line(self, tmp_path, bad):
        path = tmp_path / "pairs.tsv"
        path.write_text(f"a\tb\tq2i\t0.7\n\n{bad}\n")
        with pytest.raises(ValueError, match=f"{path}:3: "):
            read_pairs(path)
