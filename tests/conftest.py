import pytest
from hypothesis import HealthCheck, settings

from gradedsupport import graded_core

# exact arithmetic has wildly variable per-example timing
settings.register_profile(
    "exact",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")

_TRUSTED_OF = graded_core._GradedObject._of.__func__


def _fields(x):
    """Every field of a graded object but its lazily filled pair cache."""
    return {k: v for k, v in vars(x).items() if k != "_pair_cache"}


@pytest.fixture(autouse=True, scope="session")
def trusted_builds_match_the_checked_path():
    """Run every trusted build (_of) through the checking constructor on the
    same arguments too, and require the same fields: map table, components,
    window and the rest, dict for dict.  A builder whose table the checking
    path would refuse fails with that path's error."""

    def checked_of(cls, *args):
        x = _TRUSTED_OF(cls, *args)
        assert _fields(x) == _fields(cls(*args)), \
            f"{cls.__name__}._of differs from the checked path"
        return x

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graded_core._GradedObject, "_of", classmethod(checked_of))
        yield
