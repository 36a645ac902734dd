"""Tests for repro.features.tensor."""

import numpy as np
import pytest

from repro.exceptions import FeatureError
from repro.features.tensor import FeatureTensor


@pytest.fixture()
def tensor():
    values = np.zeros((2, 3, 3))
    values[0, 0, 1] = values[0, 1, 0] = 2.0
    values[1, 1, 2] = values[1, 2, 1] = 4.0
    return FeatureTensor(values, ["a", "b"])


class TestConstruction:
    def test_shapes(self, tensor):
        assert tensor.n_features == 2
        assert tensor.n_users == 3

    def test_default_names(self):
        t = FeatureTensor(np.zeros((3, 2, 2)))
        assert t.feature_names == ["f0", "f1", "f2"]

    def test_rejects_non_3d(self):
        with pytest.raises(FeatureError, match="shape"):
            FeatureTensor(np.zeros((3, 3)))

    def test_rejects_non_square_slices(self):
        with pytest.raises(FeatureError):
            FeatureTensor(np.zeros((2, 3, 4)))

    def test_rejects_name_count_mismatch(self):
        with pytest.raises(FeatureError, match="names"):
            FeatureTensor(np.zeros((2, 2, 2)), ["only-one"])

    def test_rejects_duplicate_names(self):
        with pytest.raises(FeatureError, match="duplicate"):
            FeatureTensor(np.zeros((2, 2, 2)), ["x", "x"])

    def test_from_matrices(self):
        t = FeatureTensor(np.stack([np.eye(2), np.ones((2, 2))]))
        assert t.n_features == 2
        assert t.slice(1)[0, 1] == 1.0


class TestAccess:
    def test_slice_by_index(self, tensor):
        assert tensor.slice(0)[0, 1] == 2.0

    def test_slice_by_name(self, tensor):
        assert tensor.slice("b")[1, 2] == 4.0

    def test_slice_unknown_name(self, tensor):
        with pytest.raises(FeatureError, match="unknown feature"):
            tensor.slice("zzz")

    def test_pair_vector(self, tensor):
        assert list(tensor.pair_vector(0, 1)) == [2.0, 0.0]

    def test_pair_vectors(self, tensor):
        out = tensor.pair_vectors([(0, 1), (1, 2)])
        assert out.shape == (2, 2)
        assert out[0, 0] == 2.0 and out[1, 1] == 4.0

    def test_pair_vectors_empty(self, tensor):
        assert tensor.pair_vectors([]).shape == (0, 2)


class TestOperations:
    def test_normalized_max_one(self, tensor):
        normalized = tensor.normalized()
        assert normalized.slice(0).max() == 1.0
        assert normalized.slice(1).max() == 1.0

    def test_normalized_zero_slice_untouched(self):
        t = FeatureTensor(np.zeros((1, 2, 2)))
        assert t.normalized().values.max() == 0.0

    def test_normalized_preserves_original(self, tensor):
        tensor.normalized()
        assert tensor.slice(0).max() == 2.0

    def test_aggregate_unit(self, tensor):
        agg = tensor.aggregate()
        assert agg[0, 1] == 2.0 and agg[1, 2] == 4.0

    def test_aggregate_weighted(self, tensor):
        agg = tensor.aggregate([0.5, 0.25])
        assert agg[0, 1] == 1.0 and agg[1, 2] == 1.0

    def test_aggregate_bad_weights(self, tensor):
        with pytest.raises(FeatureError, match="weights"):
            tensor.aggregate([1.0])

    def test_project_shape(self, tensor):
        projection = np.array([[1.0], [1.0]])
        out = tensor.project(projection)
        assert out.n_features == 1
        assert out.n_users == 3

    def test_project_values(self, tensor):
        projection = np.array([[1.0], [2.0]])
        out = tensor.project(projection)
        # latent = 1·a + 2·b
        assert out.slice(0)[1, 2] == 8.0
        assert out.slice(0)[0, 1] == 2.0

    def test_project_bad_shape(self, tensor):
        with pytest.raises(FeatureError, match="projection"):
            tensor.project(np.zeros((3, 1)))

    def test_project_custom_names(self, tensor):
        out = tensor.project(np.ones((2, 2)), names=["u", "v"])
        assert out.feature_names == ["u", "v"]
