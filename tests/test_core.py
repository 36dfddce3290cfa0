import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from activeseg.core import (
    BinaryMask,
    ImageGrid,
    PoolState,
    ProbMap,
    Sample,
    binarize,
    dice,
    image_from_pgm,
    image_to_pgm,
    load_dataset,
    mask_from_pgm,
    mask_to_pgm,
    move_to_labeled,
    pad_to_multiple,
    read_pgm,
    save_dataset,
    write_pgm,
)


def mask_of(rows) -> BinaryMask:
    return BinaryMask(np.array(rows))


class TestContainers:
    def test_image_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ImageGrid(np.array([[0.5, 1.2]]))
        with pytest.raises(ValueError):
            ImageGrid(np.array([[np.nan, 0.2]]))

    def test_mask_rejects_non_binary(self):
        with pytest.raises(ValueError):
            BinaryMask(np.array([[0, 2]]))

    @pytest.mark.parametrize("bad", [
        np.array([[0, 2]]),
        np.array([[-1, 1]]),
        np.array([[0.5, 1.0]]),
        np.array([[np.nan, 0.0]]),
        np.array([["0", "1"]]),
    ])
    def test_mask_non_binary_values_name_the_rule(self, bad):
        with pytest.raises(ValueError, match="mask values must be strictly binary"):
            BinaryMask(bad)

    def test_mask_accepts_bool_and_float_binary(self):
        for raw in (np.array([[True, False]]), np.array([[1.0, 0.0]])):
            assert BinaryMask(raw).values.tolist() == [[1, 0]]

    def test_probmap_bounds(self):
        ProbMap(np.array([[0.0, 1.0]]))
        with pytest.raises(ValueError):
            ProbMap(np.array([[-0.1, 0.5]]))

    def test_values_are_read_only(self):
        img = ImageGrid(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            img.values[0, 0] = 1.0


class TestDice:
    def test_identity_is_one(self):
        m = mask_of([[1, 0], [1, 1]])
        assert dice(m, m) == 1.0

    def test_disjoint_is_zero(self):
        a = mask_of([[1, 0], [0, 0]])
        b = mask_of([[0, 1], [0, 1]])
        assert dice(a, b) == 0.0

    def test_half_overlap(self):
        # |A| = 4, |B| = 4, intersection 2 -> 2*2/(4+4)
        a = mask_of([[1, 1, 1, 1], [0, 0, 0, 0]])
        b = mask_of([[0, 0, 1, 1], [1, 1, 0, 0]])
        assert dice(a, b) == 0.5

    def test_empty_conventions(self):
        empty = mask_of([[0, 0]])
        full = mask_of([[1, 1]])
        assert dice(empty, empty) == 1.0
        assert dice(empty, full) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dice(mask_of([[1]]), mask_of([[1, 0]]))

    @given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, bits_a, bits_b):
        a = mask_of([[(bits_a >> k) & 1 for k in range(16)]])
        b = mask_of([[(bits_b >> k) & 1 for k in range(16)]])
        assert dice(a, b) == dice(b, a)


class TestBinarize:
    def test_all_above(self):
        m = binarize(ProbMap(np.full((3, 3), 0.7)))
        assert m.values.all()

    def test_all_below(self):
        m = binarize(ProbMap(np.full((3, 3), 0.3)))
        assert not m.values.any()

    def test_boundary_is_foreground(self):
        m = binarize(ProbMap(np.array([[0.4, 0.6, 0.5]])))
        assert m.values.tolist() == [[0, 1, 1]]


def make_pool(n_unlabeled: int, n_labeled: int = 0) -> PoolState:
    img = ImageGrid(np.zeros((4, 4)))
    m = BinaryMask(np.zeros((4, 4), dtype=int))
    unlabeled = tuple(Sample(id=f"u{i}", image=img, ground_truth=m) for i in range(n_unlabeled))
    pool = PoolState(labeled=(), unlabeled=unlabeled)
    if n_labeled:
        ids = [f"u{i}" for i in range(n_labeled)]
        pool = move_to_labeled(pool, ids, [m] * n_labeled, "initial")
    return pool


class TestPoolState:
    def test_move_shrinks_unlabeled(self):
        pool = make_pool(100)
        m = BinaryMask(np.zeros((4, 4), dtype=int))
        pool = move_to_labeled(pool, [f"u{i}" for i in range(35)], [m] * 35, "oracle")
        pool = move_to_labeled(pool, [f"u{i}" for i in range(35, 55)], [m] * 20, "pseudo")
        assert len(pool.unlabeled) == 45
        assert len(pool.labeled) == 55
        assert pool.provenance_counts() == {"initial": 0, "oracle": 35, "pseudo": 20}

    def test_move_empty_is_noop(self):
        pool = make_pool(10)
        after = move_to_labeled(pool, [], [], "oracle")
        assert after.unlabeled == pool.unlabeled
        assert after.labeled == pool.labeled

    def test_duplicate_id_rejected(self):
        pool = make_pool(10)
        m = BinaryMask(np.zeros((4, 4), dtype=int))
        with pytest.raises(ValueError):
            move_to_labeled(pool, ["u1", "u1"], [m, m], "oracle")

    def test_unknown_id_rejected(self):
        pool = make_pool(3)
        m = BinaryMask(np.zeros((4, 4), dtype=int))
        with pytest.raises(ValueError):
            move_to_labeled(pool, ["nope"], [m], "oracle")

    def test_total_count_conserved(self):
        pool = make_pool(20)
        total = len(pool.labeled) + len(pool.unlabeled)
        m = BinaryMask(np.zeros((4, 4), dtype=int))
        for ids in (["u0", "u1"], ["u5"], []):
            pool = move_to_labeled(pool, ids, [m] * len(ids), "oracle")
            assert len(pool.labeled) + len(pool.unlabeled) == total

    def test_pool_rejects_overlapping_sets(self):
        img = ImageGrid(np.zeros((4, 4)))
        s = Sample(id="a", image=img)
        with pytest.raises(ValueError):
            PoolState(labeled=(), unlabeled=(s, s))

    def test_sample_requires_ground_truth(self):
        s = Sample(id="a", image=ImageGrid(np.zeros((4, 4))))
        with pytest.raises(ValueError):
            s.require_ground_truth()


class TestPadding:
    def test_pad_and_crop_roundtrip(self):
        arr = np.arange(15.0).reshape(3, 5) / 15.0
        padded, orig = pad_to_multiple(arr, 4)
        assert padded.shape == (4, 8)
        assert orig == (3, 5)
        np.testing.assert_array_equal(padded[:3, :5], arr)
        # edge replication
        np.testing.assert_array_equal(padded[3, :5], arr[2])

    def test_already_aligned_is_identity(self):
        arr = np.zeros((8, 4))
        padded, _ = pad_to_multiple(arr, 4)
        assert padded is arr


class TestPgmIO:
    def test_image_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        raw = rng.integers(0, 256, size=(9, 7), dtype=np.uint8)
        path = str(tmp_path / "img.pgm")
        write_pgm(path, raw)
        np.testing.assert_array_equal(read_pgm(path), raw)

    def test_image_normalization(self, tmp_path):
        path = str(tmp_path / "img.pgm")
        write_pgm(path, np.array([[0, 255]], dtype=np.uint8))
        img = image_from_pgm(path)
        np.testing.assert_allclose(img.values, [[0.0, 1.0]])

    def test_mask_mapping(self, tmp_path):
        path = str(tmp_path / "m.pgm")
        write_pgm(path, np.array([[0, 255]], dtype=np.uint8))
        assert mask_from_pgm(path).values.tolist() == [[0, 1]]

    def test_dataset_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        samples = [
            Sample(
                id=f"s{i}",
                image=ImageGrid(rng.integers(0, 256, size=(8, 8)) / 255.0),
                ground_truth=BinaryMask((rng.uniform(size=(8, 8)) > 0.5).astype(int)),
            )
            for i in range(4)
        ]
        root = str(tmp_path / "data")
        save_dataset(root, samples)
        loaded = load_dataset(root)
        assert [s.id for s in loaded] == [s.id for s in samples]
        for a, b in zip(loaded, samples):
            np.testing.assert_allclose(a.image.values, b.image.values, atol=1 / 510)
            np.testing.assert_array_equal(a.ground_truth.values, b.ground_truth.values)

    def test_listing_order_without_manifest(self, tmp_path):
        root = tmp_path / "data"
        (root / "images").mkdir(parents=True)
        for name in ("b", "a", "c"):
            write_pgm(str(root / "images" / f"{name}.pgm"), np.zeros((4, 4), dtype=np.uint8))
        loaded = load_dataset(str(root))
        assert [s.id for s in loaded] == ["a", "b", "c"]
        assert all(s.ground_truth is None for s in loaded)
