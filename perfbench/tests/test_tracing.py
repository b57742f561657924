"""Self-time arithmetic and patching of the benchmark's span stack."""

import sys
import types

import pytest

from tracing import Patches, SpanStack


class FakeClock:
    """A clock the test advances by hand (integer nanoseconds)."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def tick(self, ns):
        self.now += ns


def test_children_subtract_from_self_time():
    clock = FakeClock()
    stack = SpanStack(clock)
    with stack.span("outer"):
        clock.tick(10)
        with stack.span("inner"):
            clock.tick(30)
            with stack.span("leaf"):
                clock.tick(5)
        clock.tick(7)
        with stack.span("inner"):
            clock.tick(3)
    assert stack.inclusive_ns == {"outer": 55, "inner": 38, "leaf": 5}
    assert stack.self_ns == {"outer": 17, "inner": 33, "leaf": 5}
    assert stack.calls == {"outer": 1, "inner": 2, "leaf": 1}


def test_partition_sums_to_wall_time():
    clock = FakeClock()
    stack = SpanStack(clock)
    clock.tick(4)  # before any span: unattributed
    with stack.span("a"):
        clock.tick(20)
        with stack.span("b"):
            clock.tick(6)
    clock.tick(2)
    with stack.span("b"):
        clock.tick(8)
    self_ns, unattributed = stack.partition(wall_ns=40)
    assert self_ns == {"a": 20, "b": 14}
    assert unattributed == 6
    assert sum(self_ns.values()) + unattributed == 40


def test_partition_rejects_spans_longer_than_wall():
    clock = FakeClock()
    stack = SpanStack(clock)
    with stack.span("a"):
        clock.tick(50)
    with pytest.raises(ValueError, match="more than the wall time"):
        stack.partition(wall_ns=40)


def test_partition_rejects_open_spans():
    stack = SpanStack(FakeClock())
    stack.enter()
    with pytest.raises(ValueError, match="still open"):
        stack.partition(wall_ns=10)


def test_wrap_records_span_even_when_call_raises():
    clock = FakeClock()
    stack = SpanStack(clock)

    def boom():
        clock.tick(3)
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        stack.wrap("boom", boom)()
    assert stack.partition(wall_ns=3) == ({"boom": 3}, 0)


def test_wrap_hook_sees_arguments_and_result():
    stack = SpanStack(FakeClock())
    seen = []
    wrapped = stack.wrap(
        "add", lambda a, b=0: a + b, lambda args, kw, r: seen.append((args, kw, r))
    )
    assert wrapped(2, b=3) == 5
    assert seen == [((2,), {"b": 3}, 5)]


@pytest.fixture
def fake_package():
    """``fakepkg`` with two modules that both import one function."""

    def target():
        return "original"

    class Thing:
        def method(self):
            return "method"

    pkg = types.ModuleType("fakepkg")
    defining = types.ModuleType("fakepkg.defining")
    user = types.ModuleType("fakepkg.user")
    other = types.ModuleType("otherpkg")
    defining.target, defining.Thing = target, Thing
    user.target = target
    other.target = target
    mods = {
        "fakepkg": pkg,
        "fakepkg.defining": defining,
        "fakepkg.user": user,
        "otherpkg": other,
    }
    sys.modules.update(mods)
    yield mods, target, Thing
    for name in mods:
        del sys.modules[name]


def test_patches_replace_every_reference_inside_the_package(fake_package):
    mods, target, Thing = fake_package
    method = vars(Thing)["method"]
    stack = SpanStack(FakeClock())
    with Patches("fakepkg") as patches:
        assert patches.function(target, stack.wrap("t", target)) == 2
        patches.method(Thing, "method", stack.wrap("m", method))
        assert mods["fakepkg.user"].target() == "original"
        assert mods["fakepkg.defining"].Thing().method() == "method"
        assert mods["otherpkg"].target is target
    assert stack.calls == {"t": 1, "m": 1}
    assert mods["fakepkg.user"].target is target
    assert mods["fakepkg.defining"].target is target
    assert vars(Thing)["method"] is method


def test_patches_refuse_unreachable_functions(fake_package):
    with Patches("fakepkg") as patches:
        with pytest.raises(LookupError):
            patches.function(lambda: None, lambda: None)
