"""hypothesis, or stand-ins under which the tests that need it skip.

hypothesis is an optional test dependency.  Without it, ``given`` marks its
test skipped, ``settings`` and ``example`` leave the test as it is, and
``st`` is an inert strategy namespace, so that a module whose other tests
need no generated inputs still collects and runs them."""

try:
    from hypothesis import assume, example, given, settings
    from hypothesis import strategies as st
except ImportError:
    import pytest

    class _Inert:
        """Every strategy and strategy combinator: each attribute, call and
        union gives the stand-in back."""

        def __getattr__(self, name):
            return self

        def __call__(self, *args, **kwargs):
            return self

        def __or__(self, other):
            return self

    st = _Inert()

    def given(*args, **kwargs):
        return pytest.mark.skip(reason="hypothesis is not installed")

    def settings(*args, **kwargs):
        return lambda test: test

    example = settings

    def assume(condition):
        return True

__all__ = ["assume", "example", "given", "settings", "st"]
