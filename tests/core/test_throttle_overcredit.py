"""Over-crediting a write throttle must be reported through the sanitizer.

Before, ``credit()`` raised a bare ``RuntimeError("write throttle
over-credited")`` from interrupt context — no file, no request, no trail.
Now it raises :class:`~repro.sim.invariants.SanitizerError` naming the
owning file, the completion that over-credited, and (when tracing was on)
the offending request's span tree.
"""

import pytest

from repro.core import WriteThrottle
from repro.obs.metrics import MetricsRegistry
from repro.sim import Engine, SanitizerError, StatSet, Tracer
from repro.sim.request import RequestRegistry


def test_over_credit_raises_sanitizer_error():
    eng = Engine()
    throttle = WriteThrottle(eng, 8192, StatSet(), owner="inode 42")
    throttle.take(4096)
    throttle.credit(4096)
    with pytest.raises(SanitizerError) as exc:
        throttle.credit(1)
    assert exc.value.check == "throttle_conservation"
    assert "inode 42" in str(exc.value)
    assert "over-credited" in str(exc.value)


def test_over_credit_names_the_source():
    eng = Engine()
    throttle = WriteThrottle(eng, 8192, StatSet(), owner="inode 7")

    class FakeBuf:
        request = None

        def __repr__(self):
            return "<Buf#99 write sec=8+16>"

    with pytest.raises(SanitizerError, match="Buf#99"):
        throttle.credit(64, source=FakeBuf())


def test_over_credit_attaches_request_span_tree():
    eng = Engine()
    tracer = Tracer(eng, enabled=True)
    registry = RequestRegistry(eng, MetricsRegistry(eng), tracer)
    req = registry.start("write", fd=3)

    class FakeBuf:
        def __init__(self, request):
            self.request = request

        def __repr__(self):
            return "<Buf#100>"

    throttle = WriteThrottle(eng, 8192, StatSet(), owner="inode 9")
    with pytest.raises(SanitizerError) as exc:
        throttle.credit(64, source=FakeBuf(req))
    assert exc.value.span_tree is not None
    assert "write" in exc.value.span_tree
    assert "request span tree" in str(exc.value)
    req.complete()


def test_disabled_throttle_cannot_over_credit():
    eng = Engine()
    throttle = WriteThrottle(eng, 0, StatSet())
    throttle.credit(1 << 20)  # no limit, no claim, no error


def test_balanced_take_credit_round_trip():
    eng = Engine()
    throttle = WriteThrottle(eng, 8192, StatSet(), owner="inode 1")
    throttle.take(8192)
    assert throttle.in_flight == 8192
    throttle.credit(8192)
    assert throttle.in_flight == 0
    assert throttle.value == throttle.limit
