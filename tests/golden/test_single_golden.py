"""The single-matrix API (``simulate_best_detailed``, ``simulate_spmv``
and ``repro validate``) must reproduce its committed golden byte for
byte."""

from tests.golden.single import (
    assert_single_matches_golden, single_csv, validate_stdout,
)


def test_single_matrix_api_matches_golden():
    assert_single_matches_golden(single_csv(), validate_stdout())
