import pytest

# rewrite the asserts of the shared helpers too, so they still check under
# `python -O`, which strips plain assert statements
pytest.register_assert_rewrite("helpers")
