"""Tests for the serving CLI and the experiments --publish bridge."""

import numpy as np
import pytest
from scipy import sparse

from repro.models.persistence import FrozenPredictor, save_predictor
from repro.serving.__main__ import build_parser, main
from repro.serving.artifacts import ArtifactStore
from repro.serving.service import LinkPredictionService


class TestParser:
    def test_subcommands_registered(self):
        parser = build_parser()
        for argv in (
            ["publish", "--store", "s"],
            ["inspect", "--store", "s", "--version", "2", "--json"],
            ["serve", "--store", "s", "--port", "0", "--no-batcher"],
        ):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestRouteRateParsing:
    """Path-style keys must normalize to the tracer's route labels."""

    def test_paths_normalize_to_route_labels(self):
        from repro.serving.__main__ import _parse_route_rates

        rates = _parse_route_rates(
            ["/v1/topk=0.5", "/v1/score=0.0", "topk=0.25"]
        )
        # The tracer samples by label, so the path key must land on the
        # label; the later bare-label entry wins over the path form.
        assert rates == {"topk": 0.25, "score": 0.0}

    def test_unknown_path_aborts_instead_of_never_matching(self):
        from repro.serving.__main__ import _parse_route_rates

        with pytest.raises(SystemExit, match="unknown route"):
            _parse_route_rates(["/v1/nope=0.5"])

    def test_malformed_pairs_abort(self):
        from repro.serving.__main__ import _parse_route_rates

        with pytest.raises(SystemExit, match="ROUTE=RATE"):
            _parse_route_rates(["topk"])
        with pytest.raises(SystemExit, match="number"):
            _parse_route_rates(["topk=fast"])


class TestPublishCommand:
    def test_publish_from_npz(self, tmp_path, predictor, capsys):
        saved = str(tmp_path / "model")
        save_predictor(predictor, saved)
        store_dir = str(tmp_path / "store")
        assert main(["publish", "--store", store_dir, "--predictor", saved]) == 0
        out = capsys.readouterr().out
        assert "published" in out and "v0001" in out
        store = ArtifactStore(store_dir)
        artifact = store.load()
        assert np.array_equal(
            artifact.predictor.score_matrix, predictor.score_matrix
        )
        assert artifact.manifest["meta"]["source"] == "predictor"

    def test_publish_synthetic_fit_and_serve_round_trip(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        code = main(
            [
                "publish",
                "--store", store_dir,
                "--scale", "40",
                "--seed", "3",
                "--model", "slampred-h",
                "--inner-iterations", "3",
                "--outer-iterations", "2",
            ]
        )
        assert code == 0
        artifact = ArtifactStore(store_dir).load()
        assert artifact.adjacency is not None
        assert artifact.manifest["meta"]["variant"] == "slampred-h"
        service = LinkPredictionService(store_dir)
        ranking = service.top_k(0, k=5)
        assert ranking
        for candidate, _ in ranking:
            assert artifact.adjacency[0, candidate] == 0


class TestInspectCommand:
    def test_inspect_prints_manifest(self, store, capsys):
        assert main(["inspect", "--store", store.root]) == 0
        out = capsys.readouterr().out
        assert "integrity ok" in out
        assert "toy-model" in out
        assert "kind      dense" in out
        assert "score_matrix.npy" in out
        assert "sha256" in out

    def test_inspect_json(self, store, capsys):
        import json

        assert main(["inspect", "--store", store.root, "--json"]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["version"] == 1


@pytest.fixture(scope="module")
def sharded(tmp_path_factory):
    """A store holding one 2-shard ShardedSlamPred fit, plus model and graph."""
    from repro.sharding.model import ShardedSlamPred

    rng = np.random.default_rng(5)
    n = 120
    labels = np.arange(n) // (n // 2)
    probs = np.where(labels[:, None] == labels[None, :], 0.3, 0.02)
    dense = np.triu((rng.random((n, n)) < probs).astype(float), 1)
    adjacency = sparse.csr_matrix(dense + dense.T)
    model = ShardedSlamPred(
        n_shards=2,
        svd_rank=6,
        inner_iterations=3,
        outer_iterations=2,
        use_processes=False,
    ).fit(adjacency, labels=labels)
    store = ArtifactStore(str(tmp_path_factory.mktemp("sharded")))
    store.publish(model, graph=adjacency)
    return store, model, adjacency


class TestShardedStore:
    def test_inspect_prints_kind_and_shard_count(self, sharded, capsys):
        store, _, _ = sharded
        assert main(["inspect", "--store", store.root]) == 0
        out = capsys.readouterr().out
        assert "integrity ok" in out
        assert "kind      sharded (2 shards)" in out
        assert "shard-001/model.json" in out

    def test_service_built_like_serve_answers_top_k(self, sharded):
        from repro.observability.metrics import MetricsRegistry
        from repro.observability.tracer import Tracer
        from repro.sharding.artifacts import LoadedShardedArtifact

        store, model, adjacency = sharded
        # run_serve hands the store path to the service.
        service = LinkPredictionService(store.root, cache_size=1024)
        assert service.artifact.n_shards == 2
        assert not service.artifact.missing_shards
        # The same scatter-gather over the in-memory fit, never published.
        in_memory = LoadedShardedArtifact(
            version=0,
            manifest={},
            plan=model.plan,
            scales=model.scales,
            estimates=dict(enumerate(model.estimates)),
            adjacency=adjacency,
        ).candidates(Tracer(), MetricsRegistry())
        for user in (0, 61, 119):
            ranking = service.top_k(user, k=5)
            assert len(ranking) == 5
            assert ranking == in_memory.rank([user], [5])[0][0]
            for candidate, score in ranking:
                assert candidate != user and adjacency[user, candidate] == 0
                assert service.score(user, candidate) == in_memory.score(
                    user, candidate
                )


class TestExperimentsPublishFlag:
    def test_flag_registered_with_default_store(self):
        from repro.experiments.__main__ import build_parser as experiments_parser
        from repro.experiments.publishing import DEFAULT_STORE_DIR

        args = experiments_parser().parse_args(["table1", "--publish"])
        assert args.publish == DEFAULT_STORE_DIR
        args = experiments_parser().parse_args(["table1", "--publish", "d"])
        assert args.publish == "d"
        args = experiments_parser().parse_args(["table1"])
        assert args.publish is None

    def test_publish_reference_fit(self, tmp_path):
        from repro.experiments.publishing import publish_reference_fit

        version, store = publish_reference_fit(
            str(tmp_path / "store"),
            scale=40,
            random_state=5,
            experiment="table1",
            inner_iterations=3,
            outer_iterations=2,
        )
        assert version == 1
        artifact = store.load()
        assert artifact.manifest["meta"]["experiment"] == "table1"
        assert artifact.manifest["meta"]["scale"] == 40
        assert artifact.adjacency is not None
        assert artifact.n_users == artifact.adjacency.shape[0]
