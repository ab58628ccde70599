import itertools
import json
import struct
import tracemalloc

import numpy as np
import pytest

from sidforge.quantizer import (
    OpqCodebook,
    RqCodebook,
    RqOpqCodebook,
    descend,
    encode,
    encode_batch,
    fit_codebook,
    load_codebook,
    lookup_centroids,
    opq_fit,
    reconstruct,
    rq_fit,
    save_codebook,
)
from sidforge.embedding import Catalog
from sidforge.kmeans import balanced_kmeans_fit, kmeans_fit
from sidforge.sidmetrics import drift_report
from sidforge.sids import Sid, SidCatalog


def hierarchical_catalog():
    """16 noiseless points on a 3-level grid (scales 100 / 10 / 1) plus
    4 duplicates; greedy descent and global chain argmin coincide here."""
    corners = np.array([[100, 100, 0, 0], [100, -100, 0, 0],
                        [-100, 100, 0, 0], [-100, -100, 0, 0]], dtype=float)
    rows = []
    for c in corners:
        for mid in (-10.0, 10.0):
            for fine in (-1.0, 1.0):
                row = c.copy()
                row[2] += mid
                row[3] += fine
                rows.append(row)
    rows.extend(rows[:4])
    return np.array(rows)


def exhaustive_chain_codes(x, rq_levels):
    """Brute force over all full code chains; ties to lexicographic lowest."""
    best, best_chain = np.inf, None
    for chain in itertools.product(*(range(t.shape[0]) for t in rq_levels)):
        approx = np.sum([t[c] for t, c in zip(rq_levels, chain)], axis=0)
        err = float(np.sum((x - approx) ** 2))
        if err < best - 1e-12:
            best, best_chain = err, chain
    return best_chain


class TestRqFit:
    def test_single_level_k1_is_catalog_mean(self):
        rng = np.random.default_rng(0)
        vecs = rng.normal(size=(20, 4))
        rq, stats = rq_fit(vecs, (1,), balanced_last=False, seed=0)
        assert np.allclose(rq.levels[0][0], vecs.mean(axis=0))
        centered = vecs - vecs.mean(axis=0)
        assert stats["mean_sq_residual_per_level"][0] == pytest.approx(
            float(np.mean(np.sum(centered**2, axis=1)))
        )

    def test_repeated_distinct_points_zero_residual(self):
        base = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        vecs = np.tile(base, (4, 1))
        rq, stats = rq_fit(vecs, (3,), balanced_last=False, seed=1)
        assert stats["mean_sq_residual_per_level"][0] == pytest.approx(0.0, abs=1e-18)

    def test_residual_energy_monotone(self):
        rng = np.random.default_rng(3)
        for seed in range(4):
            vecs = rng.normal(size=(80, 6))
            _, stats = rq_fit(vecs, (8, 4, 4), balanced_last=(seed % 2 == 0), seed=seed)
            norms = stats["mean_sq_residual_per_level"]
            initial = float(np.mean(np.sum(vecs**2, axis=1)))
            assert norms[0] <= initial + 1e-9
            assert norms[1] <= norms[0] + 1e-9
            assert norms[2] <= norms[1] + 1e-9

    def test_oversized_level_records_warning(self):
        vecs = np.array([[0.0], [1.0], [2.0]])
        _, stats = rq_fit(vecs, (5,), balanced_last=False, seed=0)
        assert any("exceeds catalog size" in w for w in stats["warnings"])


class TestOpqFit:
    def test_zero_residuals_zero_error(self):
        opq, stats = opq_fit(np.zeros((10, 4)), subspaces=2, codes_per_subspace=2, seed=0)
        assert stats["mean_sq_error_per_outer_iter"][-1] == pytest.approx(0.0, abs=1e-18)
        for table in opq.subspaces:
            assert np.allclose(table, 0.0)

    def test_outer_iters_zero_is_identity_rotation(self):
        rng = np.random.default_rng(1)
        opq, _ = opq_fit(rng.normal(size=(30, 4)), 2, 4, outer_iters=0, seed=0)
        assert np.array_equal(opq.rotation, np.eye(4))

    def test_rotation_beats_or_ties_plain_pq(self):
        # axis-aligned structure that a rotation can align with subspaces
        rng = np.random.default_rng(2)
        raw = rng.choice([-1.0, 1.0], size=(60, 2)) * np.array([5.0, 1.0])
        theta = 0.7
        mix = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        vecs = raw @ mix
        _, plain = opq_fit(vecs, 2, 2, outer_iters=0, seed=3)
        _, rotated = opq_fit(vecs, 2, 2, outer_iters=10, seed=3)
        assert rotated["mean_sq_error_per_outer_iter"][-1] <= (
            plain["mean_sq_error_per_outer_iter"][-1] + 1e-9
        )

    def test_error_non_increasing_over_outer_iters(self):
        rng = np.random.default_rng(4)
        _, stats = opq_fit(rng.normal(size=(50, 6)), 3, 4, outer_iters=8, seed=5)
        errs = stats["mean_sq_error_per_outer_iter"]
        assert all(b <= a + 1e-9 for a, b in zip(errs, errs[1:]))

    def test_rotation_orthonormal(self):
        rng = np.random.default_rng(6)
        opq, _ = opq_fit(rng.normal(size=(40, 4)), 2, 3, outer_iters=6, seed=7)
        assert np.max(np.abs(opq.rotation.T @ opq.rotation - np.eye(4))) < 1e-10

    def test_indivisible_dim_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            opq_fit(np.zeros((5, 5)), 2, 2)


@pytest.fixture(scope="module")
def codebook():
    return fit_codebook(
        hierarchical_catalog(), level_sizes=(4, 2, 2), balanced_last=False,
        opq_subspaces=2, opq_codes=2, seed=0,
    )


@pytest.fixture(scope="module")
def random_codebook():
    rng = np.random.default_rng(8)
    return fit_codebook(rng.normal(size=(60, 4)), (4, 3, 2), balanced_last=True,
                        opq_subspaces=2, opq_codes=3, seed=2)


class TestEncode:
    def test_matches_exhaustive_chain_oracle(self, codebook):
        vecs = hierarchical_catalog()
        sids = encode_batch(vecs, codebook)
        for x, sid in zip(vecs, sids):
            assert sid.rq == exhaustive_chain_codes(x, codebook.rq.levels)

    def test_opq_digits_match_per_subspace_scan(self, codebook):
        vecs = hierarchical_catalog()
        sids = encode_batch(vecs, codebook)
        _, residuals = descend(codebook.rq.levels, codebook.opq, vecs)
        rotated = residuals @ codebook.opq.rotation
        dsub = codebook.dim // len(codebook.opq.subspaces)
        for row, sid in zip(rotated, sids):
            for s, table in enumerate(codebook.opq.subspaces):
                block = row[s * dsub:(s + 1) * dsub]
                errs = [float(np.sum((block - cent) ** 2)) for cent in table]
                assert sid.opq[s] == int(np.argmin(errs))

    def test_centroid_chain_sum_recovers_chain(self, codebook):
        chain = (2, 1, 0)
        x = np.sum([t[c] for t, c in zip(codebook.rq.levels, chain)], axis=0)
        sid = encode(x, codebook)
        assert sid.rq == chain
        # residual is exactly zero; product digits must encode the zero vector
        dsub = codebook.dim // len(codebook.opq.subspaces)
        zero = np.zeros(codebook.dim) @ codebook.opq.rotation
        for s, table in enumerate(codebook.opq.subspaces):
            block = zero[s * dsub:(s + 1) * dsub]
            errs = [float(np.sum((block - cent) ** 2)) for cent in table]
            assert sid.opq[s] == int(np.argmin(errs))

    def test_deterministic(self, codebook):
        x = hierarchical_catalog()[7]
        assert encode(x, codebook) == encode(x, codebook)

    def test_dimension_mismatch_rejected(self, codebook):
        with pytest.raises(ValueError):
            encode(np.zeros(3), codebook)

    def test_zero_rows_encode_to_nothing(self, codebook):
        assert encode_batch(np.zeros((0, codebook.dim)), codebook) == []


    def test_peak_memory_bounded_by_chunks_not_n_times_k(self):
        rng = np.random.default_rng(9)
        level = rng.normal(size=(4096, 32))
        cb = RqOpqCodebook(RqCodebook([level], (4096,), False),
                           OpqCodebook(np.eye(32), [rng.normal(size=(4, 16))] * 2))
        vecs = rng.normal(size=(20_000, 32))
        tracemalloc.start()
        try:
            sids = encode_batch(vecs, cb)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(sids) == 20_000
        # one full 20000 x 4096 float64 distance matrix alone is 655 MB
        assert peak < 64 * 2**20


class TestNonFiniteRejected:
    """NaN and inf are refused with the first bad row named; greedy descent
    would otherwise map a NaN row to code 0 at every level."""

    @staticmethod
    def vectors(bad, dim=4):
        vecs = np.random.default_rng(8).normal(size=(40, dim))
        vecs[5, 2] = bad
        vecs[9, 0] = bad
        return vecs

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_fit_codebook(self, bad):
        with pytest.raises(ValueError, match="catalog row 5 holds a non-finite value"):
            fit_codebook(self.vectors(bad), (3, 2), opq_subspaces=2, opq_codes=2, iters=3,
                         opq_outer_iters=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_opq_fit(self, bad):
        with pytest.raises(ValueError, match="residual row 5 holds a non-finite value"):
            opq_fit(self.vectors(bad), subspaces=2, codes_per_subspace=2, outer_iters=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_encode_batch(self, random_codebook, bad):
        with pytest.raises(ValueError, match="embedding row 5 holds a non-finite value"):
            encode_batch(self.vectors(bad, random_codebook.dim), random_codebook)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_encode(self, random_codebook, bad):
        vec = np.zeros(random_codebook.dim)
        vec[-1] = bad
        with pytest.raises(ValueError, match="embedding row 0 holds a non-finite value"):
            encode(vec, random_codebook)


class TestHugeValuesRejected:
    """Finite values beyond the gate's bound are refused like NaN, naming the
    first bad row, before any product or square can overflow."""

    CALLERS = {
        "encode_batch": lambda x, cb: encode_batch(x, cb),
        "kmeans_fit": lambda x, cb: kmeans_fit(x, 3),
        "balanced_kmeans_fit": lambda x, cb: balanced_kmeans_fit(x, 3),
        "fit_codebook": lambda x, cb: fit_codebook(x, (3, 2), opq_subspaces=2, opq_codes=2,
                                                   iters=3, opq_outer_iters=1),
        "opq_fit": lambda x, cb: opq_fit(x, subspaces=2, codes_per_subspace=2, outer_iters=1),
        "drift_report": lambda x, cb: drift_report(cb, SidCatalog({}, cb.scheme), [x]),
        "Catalog": lambda x, cb: Catalog([f"i{n}" for n in range(len(x))], x),
    }

    @pytest.mark.parametrize("bad", [np.finfo(float).max, -np.finfo(float).max, 1e300])
    @pytest.mark.parametrize("caller", list(CALLERS))
    def test_names_first_bad_row(self, random_codebook, caller, bad):
        vecs = np.random.default_rng(8).normal(size=(40, random_codebook.dim))
        vecs[6, 1] = bad
        vecs[11, 0] = -bad
        with pytest.raises(ValueError, match="row 6 holds a value beyond"):
            self.CALLERS[caller](vecs, random_codebook)


class TestCodebookTablesChecked:
    """Every table a codebook holds goes through the gate, so a corrupt file
    fails at load, naming its path, instead of encoding garbage."""

    def test_nan_rotation_entry(self):
        rotation = np.eye(4)
        rotation[2, 3] = np.nan
        with pytest.raises(ValueError, match="rotation row 2 holds a non-finite value"):
            OpqCodebook(rotation, [np.zeros((2, 2))] * 2)

    def test_inf_subspace_entry(self):
        tables = [np.zeros((2, 2)), np.zeros((3, 2))]
        tables[1][2, 0] = np.inf
        with pytest.raises(ValueError, match="subspace 1 table row 2 holds a non-finite value"):
            OpqCodebook(np.eye(4), tables)

    @pytest.mark.parametrize("table, value", [("rotation", np.nan), ("subspace", np.inf)])
    def test_load_names_path(self, random_codebook, tmp_path, table, value):
        path = tmp_path / "corrupt.cb"
        save_codebook(random_codebook, path)
        data = bytearray(path.read_bytes())
        (blob_len,) = struct.unpack("<I", data[8:12])
        d = random_codebook.dim
        rotation = 12 + blob_len + 4 * d * sum(random_codebook.rq.level_sizes)
        # rotation row 1, column 1, or row 1 of the first subspace table
        entry = rotation + 4 * (d + 1 if table == "rotation" else d * d + d // 2)
        data[entry:entry + 4] = np.float32(value).tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=f"{path}: {table}.* row 1 holds a non-finite value"):
            load_codebook(path)


class TestLookupAndReconstruct:
    def test_code_zero_gives_first_rows(self, random_codebook):
        codebook = random_codebook
        cents = lookup_centroids(Sid((0, 0, 0)), codebook)
        for table, c in zip(codebook.rq.levels, cents):
            assert np.array_equal(table[0], c)

    def test_out_of_range_code_rejected(self, random_codebook):
        with pytest.raises(ValueError, match="outside"):
            lookup_centroids(Sid((0, 99, 0)), random_codebook)

    def test_reconstruction_identity(self, random_codebook):
        codebook = random_codebook
        rng = np.random.default_rng(9)
        x = rng.normal(size=4)
        sid = encode(x, codebook)
        cents = lookup_centroids(sid, codebook)
        residual = x - np.sum(cents, axis=0)
        # rotation preserves norms, so the reconstruction error equals the
        # product-quantization error of the final residual
        recon = reconstruct(sid, codebook)
        rotated = residual @ codebook.opq.rotation
        dsub = codebook.dim // len(codebook.opq.subspaces)
        q = np.concatenate([
            codebook.opq.subspaces[s][sid.opq[s]] for s in range(len(codebook.opq.subspaces))
        ])
        assert np.sum((x - recon) ** 2) == pytest.approx(float(np.sum((rotated - q) ** 2)))


class TestSerialization:
    def test_round_trip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(10)
        cb = fit_codebook(rng.normal(size=(40, 4)), (4, 2), balanced_last=True,
                          opq_subspaces=2, opq_codes=2, seed=3)
        p1, p2 = tmp_path / "a.cb", tmp_path / "b.cb"
        save_codebook(cb, p1)
        loaded = load_codebook(p1)
        save_codebook(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert loaded.scheme == cb.scheme
        assert loaded.build_metadata == cb.build_metadata

    def test_loaded_codebook_encodes_consistently(self, tmp_path):
        rng = np.random.default_rng(11)
        vecs = rng.normal(size=(50, 6))
        cb = fit_codebook(vecs, (4, 3), balanced_last=False,
                          opq_subspaces=3, opq_codes=2, seed=4)
        save_codebook(cb, tmp_path / "c.cb")
        l1 = load_codebook(tmp_path / "c.cb")
        l2 = load_codebook(tmp_path / "c.cb")
        assert encode_batch(vecs, l1) == encode_batch(vecs, l2)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.cb"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_codebook(path)

    @pytest.fixture
    def saved(self, tmp_path):
        rng = np.random.default_rng(13)
        cb = fit_codebook(rng.normal(size=(30, 4)), (3, 2), balanced_last=True,
                          opq_subspaces=2, opq_codes=2, seed=1)
        path = tmp_path / "good.cb"
        save_codebook(cb, path)
        return path

    def test_unsupported_version_names_path(self, saved):
        data = saved.read_bytes()
        saved.write_bytes(data[:4] + struct.pack("<I", 2) + data[8:])
        with pytest.raises(ValueError, match=f"{saved}: unsupported version 2"):
            load_codebook(saved)

    def test_trailing_bytes_name_path(self, saved):
        saved.write_bytes(saved.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match=f"{saved}: trailing bytes"):
            load_codebook(saved)

    @pytest.mark.parametrize("table", ["level 2 table", "subspace 1 table"])
    def test_entry_beyond_float32_refused_before_writing(self, tmp_path, table):
        levels = [np.zeros((2, 4)), np.zeros((3, 4))]
        subspaces = [np.zeros((2, 2)), np.zeros((3, 2))]
        (levels if table.startswith("level") else subspaces)[1][2, 1] = 1e39
        cb = RqOpqCodebook(RqCodebook(levels, (2, 3), False), OpqCodebook(np.eye(4), subspaces))
        path = tmp_path / "huge.cb"
        with pytest.raises(ValueError, match=f"{table} row 2 holds a value beyond float32 range"):
            save_codebook(cb, path)
        assert list(tmp_path.iterdir()) == []

    def test_truncation_at_every_offset_names_path(self, saved, tmp_path):
        data = saved.read_bytes()
        cut = tmp_path / "cut.cb"
        for size in range(len(data)):
            cut.write_bytes(data[:size])
            with pytest.raises(ValueError, match=f"{cut}: "):
                load_codebook(cut)

    def _with_config(self, path, config):
        blob = json.dumps(config).encode("utf-8")
        data = path.read_bytes()
        (old_len,) = struct.unpack("<I", data[8:12])
        path.write_bytes(data[:8] + struct.pack("<I", len(blob)) + blob + data[12 + old_len:])

    @pytest.mark.parametrize("edit", [
        lambda c: c.pop("dim"),
        lambda c: c.pop("opq_code_sizes"),
        lambda c: c.update(level_sizes="3,2"),
        lambda c: c.update(level_sizes=[3, 0]),
        lambda c: c.update(opq_code_sizes=[2, 2, 2]),
    ])
    def test_bad_config_names_path(self, saved, edit):
        config = {"balanced_last": True, "dim": 4, "level_sizes": [3, 2], "opq_code_sizes": [2, 2]}
        edit(config)
        self._with_config(saved, config)
        with pytest.raises(ValueError, match=f"{saved}: "):
            load_codebook(saved)

    def test_config_rewrite_round_trips(self, saved):
        config = {"balanced_last": True, "dim": 4, "level_sizes": [3, 2], "opq_code_sizes": [2, 2]}
        self._with_config(saved, config)
        assert load_codebook(saved).scheme.rq_sizes == (3, 2)

    def test_determinism_same_seed_bit_identical(self):
        rng = np.random.default_rng(12)
        vecs = rng.normal(size=(30, 4))
        a = fit_codebook(vecs, (3, 2), balanced_last=True, opq_subspaces=2, opq_codes=2, seed=5)
        b = fit_codebook(vecs, (3, 2), balanced_last=True, opq_subspaces=2, opq_codes=2, seed=5)
        for ta, tb in zip(a.rq.levels, b.rq.levels):
            assert np.array_equal(ta, tb)
        assert np.array_equal(a.opq.rotation, b.opq.rotation)
        assert encode_batch(vecs, a) == encode_batch(vecs, b)
