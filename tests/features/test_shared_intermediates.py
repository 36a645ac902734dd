"""One extraction computes each shared intermediate once, with no drift.

``A @ A`` feeds common neighbours, Jaccard and Katz; each meta path's
profile matrix feeds its cosine slice and its path-count slice.  The
extractor builds them once per call, and every slice must stay bitwise
equal to the standalone per-feature function.
"""

import numpy as np
import pytest

from repro.features import intimacy as intimacy_module
from repro.features import metapath as metapath_module
from repro.features.intimacy import IntimacyFeatureExtractor
from repro.features.metapath import METAPATHS, metapath_count_matrix
from repro.features.spatial import checkin_similarity
from repro.features.structural import (
    adamic_adar_matrix,
    common_neighbors_matrix,
    jaccard_matrix,
    katz_matrix,
    preferential_attachment_matrix,
    resource_allocation_matrix,
)
from repro.features.temporal import temporal_similarity
from repro.features.textual import word_usage_similarity
from repro.networks.social import SocialGraph


def _standalone(name, network, adjacency, extractor):
    structural = {
        "common_neighbors": common_neighbors_matrix,
        "jaccard": jaccard_matrix,
        "adamic_adar": adamic_adar_matrix,
        "resource_allocation": resource_allocation_matrix,
        "preferential_attachment": preferential_attachment_matrix,
    }
    if name in structural:
        return structural[name](adjacency)
    if name == "katz":
        return katz_matrix(
            adjacency, extractor.katz_beta, extractor.katz_max_length
        )
    attribute = {
        "checkin_similarity": checkin_similarity,
        "temporal_similarity": temporal_similarity,
        "word_similarity": word_usage_similarity,
    }
    if name in attribute:
        return attribute[name](network)
    return metapath_count_matrix(network, name[len("metapath_"):])


@pytest.fixture(scope="module")
def target(aligned):
    return aligned.target, SocialGraph.from_network(aligned.target).adjacency


class TestBitwiseParity:
    def test_raw_slices_equal_standalone_functions(self, target):
        network, adjacency = target
        extractor = IntimacyFeatureExtractor(normalize=False)
        tensor = extractor.extract(network)
        for k, name in enumerate(extractor.features):
            expected = _standalone(name, network, adjacency, extractor)
            np.testing.assert_array_equal(tensor.values[k], expected, err_msg=name)

    def test_in_place_normalization_equals_normalized_copy(self, target):
        network, _ = target
        raw = IntimacyFeatureExtractor(normalize=False).extract(network)
        normalized = IntimacyFeatureExtractor().extract(network)
        np.testing.assert_array_equal(
            normalized.values, raw.normalized().values
        )

    @pytest.mark.parametrize("max_length", [1, 2, 4])
    def test_katz_matches_power_series(self, target, max_length):
        _, adjacency = target
        expected = np.zeros_like(adjacency)
        power = np.eye(adjacency.shape[0])
        for length in range(1, max_length + 1):
            power = power @ adjacency
            expected = expected + 0.05 ** length * power
        np.fill_diagonal(expected, 0.0)
        np.testing.assert_allclose(
            katz_matrix(adjacency, 0.05, max_length), expected, rtol=1e-12
        )

    def test_feature_subset_and_order(self, target):
        network, adjacency = target
        features = ("katz", "metapath_UPLPU", "jaccard", "checkin_similarity")
        extractor = IntimacyFeatureExtractor(features=features, normalize=False)
        tensor = extractor.extract(network)
        for k, name in enumerate(features):
            expected = _standalone(name, network, adjacency, extractor)
            np.testing.assert_array_equal(tensor.values[k], expected, err_msg=name)


class TestComputedOnce:
    def test_each_profile_matrix_built_once(self, target, monkeypatch):
        network, _ = target
        calls = {mp: 0 for mp in METAPATHS}
        for mp, builder in list(metapath_module._PROFILE_BUILDERS.items()):
            def counted(net, _mp=mp, _builder=builder):
                calls[_mp] += 1
                return _builder(net)

            monkeypatch.setitem(metapath_module._PROFILE_BUILDERS, mp, counted)
        IntimacyFeatureExtractor().extract(network)
        assert calls == {mp: 1 for mp in METAPATHS}

    def test_adjacency_squared_once(self, target, monkeypatch):
        network, adjacency = target
        squares = []

        def recording(function, position):
            def wrapper(*args):
                squares.append(args[position])
                return function(*args)

            return wrapper

        for name, position in (
            ("zero_diagonal", 0),
            ("jaccard_from_square", 1),
            ("katz_from_square", 1),
        ):
            monkeypatch.setattr(
                intimacy_module,
                name,
                recording(getattr(intimacy_module, name), position),
            )
        extractor = IntimacyFeatureExtractor(
            features=("common_neighbors", "jaccard", "katz")
        )
        extractor.extract(network)
        assert len(squares) == 3
        assert all(square is squares[0] for square in squares)
        np.testing.assert_array_equal(squares[0], adjacency @ adjacency)
