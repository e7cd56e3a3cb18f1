"""The end-to-end benchmark's layer tracer patches library entry points
by name (``SessionLedger.login``, ``EventBus.publish``,
``RowwiseBenefit.column``, ...).  Building it resolves every target, so
a renamed entry point fails here, in the tier-1 suite."""

import pytest

layers = pytest.importorskip("benchmarks.e2e.layers")


def test_layer_tracer_resolves_every_patch_target():
    tracer = layers.LayerTracer()
    with tracer.installed():
        pass
    assert tracer.calls == [0] * len(tracer.calls)
