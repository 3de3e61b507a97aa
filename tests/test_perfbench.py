"""The benchmark harness still finds every program name it reaches."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).parents[1] / "perfbench"
_HARNESS_MODULES = ("session", "checks", "calibrate", "spans")


@pytest.fixture()
def session(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import session

    yield session
    for name in _HARNESS_MODULES:
        sys.modules.pop(name, None)


def test_harness_reaches_every_name_it_calls(session):
    # install() looks up every traced function by name and layer_probe()
    # calls into each traced layer; a renamed or deleted name fails here
    from spans import Tracer

    tracer = Tracer()
    try:
        session.install(tracer)
        session.layer_probe()
    finally:
        tracer.restore()
    metrics = session.micro_metrics(1, size=4)
    assert metrics and all(value >= 0 for value in metrics.values())
