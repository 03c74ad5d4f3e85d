import numpy as np

import pdikit as pk


def pytest_runtest_logreport(report):
    # One visible pass/fail line per acceptance criterion.
    if "test_acceptance" in report.nodeid and report.when == "call":
        name = report.nodeid.split("::")[-1]
        status = "PASS" if report.passed else "FAIL"
        print(f"\nACCEPTANCE {name}: {status}", flush=True)


def summarize_one(col):
    """Every quantity and flag of a single column, through an S x 1 matrix."""
    summaries = pk.summarize(pk.LogLikMatrix(col[:, None], allow_degenerate=True))
    return {key: values.item() for key, values in summaries.items()}


def assert_same_bits(got, want):
    """Two ``summarize`` results hold the same keys and bit-identical arrays.

    Floats are compared as bit patterns, so -0.0 differs from 0.0.
    """
    assert got.keys() == want.keys()
    for key, values in want.items():
        assert got[key].dtype == values.dtype, key
        if values.dtype == np.float64:
            assert np.array_equal(got[key].view(np.uint64), values.view(np.uint64)), key
        else:
            assert np.array_equal(got[key], values), key
