import weakref

import pytest
from hypothesis import HealthCheck, settings

from gradedsupport import graded_objects

# exact arithmetic has wildly variable per-example timing
settings.register_profile(
    "exact",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")

_TRUSTED_OF = graded_objects._GradedObject._of.__func__


def _fields(x):
    """Every field of a graded object but its lazily filled pair cache."""
    return {k: v for k, v in vars(x).items() if k != "_pair_cache"}


_LAZY_ROWS = graded_objects._LazyModule._rows


def _checked_rows(twins):
    """_LazyModule._rows, each map it builds also run through the checking
    constructor's map check, on a twin with the same algebra, window and
    components."""

    def checked(x, g, h):
        unread = len(x._read)
        rows = _LAZY_ROWS(x, g, h)
        if len(x._read) == unread:  # read before: checked when built
            return rows
        twin = twins.get(x)
        if twin is None:
            twin = twins[x] = graded_objects.GradedModule(
                x.over, x.window, x.components, {})
            assert (twin.window, twin.components) == (x.window, x.components)
        if x.group.kind == "Zn":
            g, h = g % x.group.n, h % x.group.n
        # an absent map is offered as an empty one: the check keeps it
        # exactly when it must be present
        twin._store_maps({(g, h): {} if rows is None else rows})
        assert twin._maps == ({} if rows is None else {(g, h): rows}), \
            f"{type(x).__name__} map ({g}, {h}) differs from the checked path"
        return rows

    return checked


@pytest.fixture(autouse=True, scope="session")
def trusted_builds_match_the_checked_path():
    """Run every trusted build (_of) through the checking constructor on the
    same arguments too, and require the same fields: map table, components,
    window and the rest, dict for dict.  A builder whose table the checking
    path would refuse fails with that path's error.  A module that builds
    its maps on first read (graded_objects._LazyModule) is held to the same
    check one map at a time, as each is built."""

    def checked_of(cls, *args):
        x = _TRUSTED_OF(cls, *args)
        assert _fields(x) == _fields(cls(*args)), \
            f"{cls.__name__}._of differs from the checked path"
        return x

    twins = weakref.WeakKeyDictionary()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graded_objects._GradedObject, "_of",
                   classmethod(checked_of))
        mp.setattr(graded_objects._LazyModule, "_rows", _checked_rows(twins))
        yield
