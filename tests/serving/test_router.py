"""The endpoint contract, driven through ``EndpointRouter.dispatch`` alone.

No socket, no transport: every case hands parsed request pieces to the
router and checks the status, the uniform error body and the HTTP metric
series.  ``EXCEPTION_STATUS`` is the exception→status table of DESIGN.md
§8; a new exception type in :mod:`repro.exceptions` fails
``test_table_covers_every_exception_type`` until it is given a row.
"""

from __future__ import annotations

import inspect
import json
import re

import pytest

from repro import exceptions
from repro.exceptions import (
    AlignmentError,
    ArtifactCorruptError,
    BackpressureError,
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    DuplicateNodeError,
    EvaluationError,
    FeatureError,
    NetworkError,
    NotFittedError,
    OptimizationError,
    ReliabilityError,
    ReproError,
    RetryExhaustedError,
    SerializationError,
    TruncatedSVTWarning,
    UnknownNodeError,
    WalCorruptError,
)
from repro.reliability.faults import InjectedFaultError
from repro.serving.http import EndpointRouter

REQUEST_ID = "rid-router"

EXCEPTION_STATUS = {
    # Degradation: the request was valid but cannot be answered now.
    DeadlineExceededError: 503,
    CircuitOpenError: 503,
    BackpressureError: 503,
    RetryExhaustedError: 503,
    ArtifactCorruptError: 503,
    # Chaos faults stand in for arbitrary internal crashes.
    InjectedFaultError: 500,
    # Every other library error, and ValueError, is the caller's.
    ReproError: 400,
    ConfigurationError: 400,
    NetworkError: 400,
    UnknownNodeError: 400,
    DuplicateNodeError: 400,
    AlignmentError: 400,
    FeatureError: 400,
    OptimizationError: 400,
    NotFittedError: 400,
    EvaluationError: 400,
    SerializationError: 400,
    WalCorruptError: 400,
    ReliabilityError: 400,
    ValueError: 400,
    # Anything else is an internal error.
    TruncatedSVTWarning: 500,
    RuntimeError: 500,
}


@pytest.fixture()
def router(service):
    return EndpointRouter(service)


def _dispatch(router, method, path, query=None, body=b""):
    return router.dispatch(
        method, path, query or {}, body, REQUEST_ID, None
    )


def _by_route(router, family):
    """``{route: count}`` of one route-labeled HTTP counter family."""
    pattern = re.compile(
        rf'^repro_serving_http_{family}_total\{{route="(\w+)"\}} (\S+)$',
        re.MULTILINE,
    )
    text = router.service.metrics_text()
    return {route: float(value) for route, value in pattern.findall(text)}


def _assert_error_body(status, payload, expected):
    assert status == expected
    assert payload.keys() == {"error", "status", "request_id"}
    assert payload["status"] == expected
    assert payload["request_id"] == REQUEST_ID
    assert payload["error"]


class TestExceptionLadder:
    def test_table_covers_every_exception_type(self):
        declared = {
            cls
            for _, cls in inspect.getmembers(exceptions, inspect.isclass)
            if issubclass(cls, Exception)
            and cls.__module__ == exceptions.__name__
        }
        assert declared <= EXCEPTION_STATUS.keys()

    @pytest.mark.parametrize(
        "exc_type, expected",
        sorted(EXCEPTION_STATUS.items(), key=lambda item: item[0].__name__),
        ids=lambda value: getattr(value, "__name__", str(value)),
    )
    def test_status_body_and_metrics(
        self, router, monkeypatch, exc_type, expected
    ):
        def boom():
            raise exc_type("boom")

        monkeypatch.setattr(router, "_stats", boom)
        status, payload = _dispatch(router, "GET", "/v1/stats")
        _assert_error_body(status, payload, expected)
        if expected == 400:
            assert _by_route(router, "errors") == {"stats": 1.0}
            assert _by_route(router, "server_errors") == {}
            assert payload["error"] == "boom"
        else:
            assert _by_route(router, "server_errors") == {"stats": 1.0}
            assert _by_route(router, "errors") == {}

    def test_labels_follow_the_route(self, router):
        status, _ = _dispatch(router, "GET", "/v1/score", {"u": ["x"]})
        assert status == 400
        status, _ = _dispatch(router, "GET", "/v1/topk")
        assert status == 400
        assert _by_route(router, "errors") == {"score": 1.0, "topk": 1.0}


class TestUnroutable:
    @pytest.mark.parametrize(
        "method, path",
        [("GET", "/nope"), ("GET", "/v1"), ("POST", "/v1/score")],
    )
    def test_unknown_path_404(self, router, method, path):
        status, payload = _dispatch(router, method, path)
        _assert_error_body(status, payload, 404)
        assert router.not_found.value == 1

    @pytest.mark.parametrize("method", ["PUT", "DELETE", "PATCH"])
    def test_unsupported_method_501(self, router, method):
        status, payload = _dispatch(router, method, "/v1/topk")
        _assert_error_body(status, payload, 501)
        assert router.not_found.value == 0


class TestTopkPostValidation:
    @pytest.mark.parametrize(
        "body",
        [
            {"user": None},
            {"users": 5},
            {"users": "12"},
            {"user": 1, "k": [1]},
            {"user": 1, "k": float("inf")},
            {"users": [{"a": 1}]},
            {"users": [1, None]},
        ],
        ids=json.dumps,
    )
    def test_wrong_typed_field_is_400(self, router, body):
        status, payload = _dispatch(
            router, "POST", "/v1/topk", body=json.dumps(body).encode()
        )
        _assert_error_body(status, payload, 400)
        assert _by_route(router, "errors") == {"topk": 1.0}
        assert _by_route(router, "server_errors") == {}

    def test_numeric_strings_and_integral_floats_still_parse(
        self, router, service
    ):
        status, payload = _dispatch(
            router, "POST", "/v1/topk", body=b'{"user": "3", "k": 2.0}'
        )
        assert status == 200
        assert (payload["user"], payload["k"]) == (3, 2)
        assert [c["user"] for c in payload["candidates"]] == [
            u for u, _ in service.top_k(3, k=2)
        ]
        status, payload = _dispatch(
            router, "POST", "/v1/topk", body=b'{"users": ["1", 2.0], "k": "3"}'
        )
        assert status == 200
        assert [r["user"] for r in payload["results"]] == [1, 2]
        assert all(len(r["candidates"]) == 3 for r in payload["results"])
