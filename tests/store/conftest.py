"""Shared fixtures for the store suite: one fixture per backend."""

from __future__ import annotations

import pytest

from store_backends import BACKENDS, make_store


@pytest.fixture(params=BACKENDS)
def store(request, tmp_path):
    """One ResultStore per registered backend, closed on teardown."""
    instance = make_store(request.param, tmp_path)
    yield instance
    instance.close()
