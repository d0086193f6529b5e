"""The ``import repro`` docstring example runs as written."""

import doctest

import pytest

import repro


def test_package_docstring_example():
    pytest.importorskip("numpy")
    result = doctest.testmod(repro)
    assert result.attempted > 0
    assert result.failed == 0
