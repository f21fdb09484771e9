"""Executable documentation: the package-level doctest must stay true."""

import doctest

import repro
import repro.core.partitioner
import repro.evaluation.stats_tests


def test_package_doctest():
    results = doctest.testmod(repro, verbose=False)
    assert results.failed == 0
    assert results.attempted >= 1


def test_partitioner_doctest():
    results = doctest.testmod(repro.core.partitioner, verbose=False)
    assert results.failed == 0


def test_stats_tests_doctest():
    results = doctest.testmod(repro.evaluation.stats_tests, verbose=False)
    assert results.failed == 0
    assert results.attempted >= 1
