"""Shared serving fixtures: a tiny deterministic artifact store.

Serving is exercised against hand-built :class:`FrozenPredictor` artifacts
(no model fitting), so these tests are fast and independent of the
training stack — exactly the deployment boundary the subsystem promises.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.persistence import FrozenPredictor
from repro.serving.aio import AsyncLinkPredictionServer
from repro.serving.artifacts import ArtifactStore
from repro.serving.service import LinkPredictionService

N_USERS = 24


@pytest.fixture()
def score_matrix(rng):
    """A symmetric dense score matrix with distinct entries."""
    scores = rng.normal(size=(N_USERS, N_USERS))
    return (scores + scores.T) / 2.0


@pytest.fixture()
def adjacency(rng):
    """A sparse symmetric zero-diagonal binary adjacency."""
    upper = np.triu((rng.random((N_USERS, N_USERS)) < 0.15).astype(float), 1)
    return upper + upper.T


@pytest.fixture()
def predictor(score_matrix):
    """A frozen predictor over the synthetic scores."""
    return FrozenPredictor(score_matrix, {"name": "toy-model", "gamma": 0.05})


@pytest.fixture()
def store(tmp_path, predictor, adjacency):
    """A store with one published version (model + graph)."""
    store = ArtifactStore(str(tmp_path / "store"))
    store.publish(predictor, graph=adjacency, meta={"origin": "test"})
    return store


@pytest.fixture()
def service(store):
    """A service over the one-version store."""
    return LinkPredictionService(store, cache_size=16)


@pytest.fixture(params=["aio"])
def endpoint(service):
    """A live asyncio server on a free port; yields its base URL.

    Test ids carry the front end's name (``[aio]``) so results stay
    comparable with earlier runs of the same endpoint tests.
    """
    server = AsyncLinkPredictionServer(service, port=0).start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
