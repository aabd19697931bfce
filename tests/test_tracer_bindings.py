"""The benchmark's span tracer (``perfbench/spans.py``) wraps program
entry points by name. Each name must resolve, so that renaming or deleting
one fails here and not only in a traced benchmark run. No Spark session is
started."""
from perfbench.spans import _targets


def test_every_traced_name_resolves():
    targets = _targets()
    assert targets
    for owner, attr, span, *_ in targets:
        assert callable(getattr(owner, attr, None)), (span, owner, attr)
