"""End-to-end serving demo: fit → publish → serve → query.

Fits a small SLAMPRED-T on a synthetic world, publishes the fitted
predictor (plus the known-link graph) into a versioned artifact store,
starts the HTTP endpoint on a free port, and queries ``/healthz``,
``/v1/topk``, ``/v1/score`` and ``/v1/stats`` over real sockets —
asserting the response shapes on the way, so CI can run this file as the
serving smoke check.

Run with::

    PYTHONPATH=src python examples/serving_quickstart.py
"""

from __future__ import annotations

import json
import tempfile
import urllib.request

from repro import SlamPredT, TransferTask, generate_aligned_pair
from repro.networks.social import SocialGraph
from repro.serving import (
    ArtifactStore,
    AsyncLinkPredictionServer,
    LinkPredictionService,
    MicroBatcher,
)

SCALE = 40
SEED = 7


def fetch(url: str, payload=None):
    """GET (or POST ``payload`` as JSON) and parse the JSON response."""
    if payload is None:
        request = url
    else:
        request = urllib.request.Request(
            url,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.load(response)


def main() -> None:
    """Run the publish → serve → query loop and print each stage."""
    # 1. Fit on synthetic data (fast, laptop-scale).
    aligned = generate_aligned_pair(scale=SCALE, random_state=SEED)
    task = TransferTask.from_aligned(aligned, random_state=SEED)
    model = SlamPredT(inner_iterations=10, outer_iterations=6).fit(task)
    graph = SocialGraph.from_network(aligned.target)
    print(f"fitted {model.name} on {graph.n_users} users / {graph.n_links} links")

    # 2. Publish a checksummed, versioned artifact.
    store = ArtifactStore(tempfile.mkdtemp(prefix="slampred-store-"))
    version = store.publish(
        model, graph=graph, meta={"demo": "serving_quickstart"}
    )
    print(f"published v{version:04d} -> {store.path(version)}")

    # 3. Serve it: service + micro-batcher + HTTP endpoint on a free port.
    service = LinkPredictionService(store, cache_size=256)
    with MicroBatcher(service, max_batch=32) as batcher:
        server = AsyncLinkPredictionServer(
            service, port=0, batcher=batcher
        ).start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        print(f"serving on {base}")
        try:
            # 4. Query it like a client would.
            health = fetch(f"{base}/healthz")
            assert health["status"] == "ok" and health["version"] == version
            print(f"healthz   {health}")

            topk = fetch(f"{base}/v1/topk?user=0&k=5")
            candidates = topk["candidates"]
            assert len(candidates) == 5
            assert len({c["user"] for c in candidates}) == 5  # deduplicated
            for c in candidates:
                assert c["user"] != 0
                assert graph.adjacency[0, c["user"]] == 0  # no existing edges
            print(f"topk(0)   {[(c['user'], round(c['score'], 3)) for c in candidates]}")

            fetch(f"{base}/v1/topk?user=0&k=5")  # warm-cache repeat
            pair = fetch(f"{base}/v1/score?u=0&v=1")
            print(f"score     (0,1) -> {pair['score']:.4f} known={pair['known_link']}")

            batch = fetch(f"{base}/v1/topk", {"users": [1, 2, 3], "k": 3})
            assert len(batch["results"]) == 3
            print(f"batch     {len(batch['results'])} users answered")

            stats = fetch(f"{base}/v1/stats")
            assert stats["cache"]["hits"] >= 1  # cache hit counters visible
            print(
                f"stats     cache hits={stats['cache']['hits']} "
                f"misses={stats['cache']['misses']} "
                f"requests={stats['counters']['serve.requests']}"
            )
        finally:
            server.shutdown()
            server.server_close()
    print("serving quickstart OK")


if __name__ == "__main__":
    main()
