"""The dispersion kernel's accuracy envelope, against a 60-digit oracle.

Each column family is one 400-draw column from a fixed seed. Every field of
``summarize`` is compared with mpmath's value on the same float64 inputs,
and each bound sits several times above the error measured on both of
numpy's x86-64 dispatch targets (AVX-512 and AVX2), whose ``exp`` rounds
differently in the last bit. Two losses are known and pinned here, not
hidden: ``log_mu`` near 0 loses about eps / |log_mu| (``np.log`` of a mean
likelihood close to 1, passed on to ``wapdi`` and ``waic_term``), and
``log_sigma2`` of a column with a tiny spread loses what ``exp`` rounds
away from likelihoods close to 1.
"""

import mpmath as mp
import numpy as np
import pytest

import pdikit as pk

S = 400
EPS = np.finfo(np.float64).eps
BENIGN = 1e-15  # every field of a column with no known loss: measured <= 2.2e-16


def families():
    """(name, column, bounds) for each family; fields not named get BENIGN."""
    rng = np.random.default_rng(13)
    yield "normal(-2, 0.5)", rng.normal(-2.0, 0.5, S), {}
    yield "normal(-1000, 1)", rng.normal(-1000.0, 1.0, S), {}
    yield "t(2) tails", -2.0 + 0.5 * rng.standard_t(2, S), {}
    # Measured: log_sigma2 1.8e-14, log_mu_mcse 2.9e-13.
    sd6 = {"log_sigma2": 1e-13, "pdi_ratio_log": 1e-13, "log_mu_mcse": 2e-12}
    yield "sd 1e-6", rng.normal(-2.0, 1e-6, S), sd6
    # Measured: log_sigma2 1.1e-10, log_mu_mcse 2.4e-9.
    sd9 = {"log_sigma2": 1e-9, "pdi_ratio_log": 1e-9, "log_mu_mcse": 2e-8}
    yield "sd 1e-9", rng.normal(-2.0, 1e-9, S), sd9
    # log_mu close to 0; the last is above NEAR_SINGULAR_EPS, so unflagged.
    # Measured log_sigma2: 3.5e-15, 5.4e-13, 8.1e-12, 1.3e-11; log_mu_mcse:
    # 3.6e-14, 8.2e-12, 1.4e-10, 2.4e-10.
    for level, sigma_bound, mcse_bound in (
        (1e-4, 1e-13, 2e-13),
        (1e-6, 5e-12, 5e-11),
        (1e-7, 5e-11, 1e-9),
        (2e-8, 1e-10, 2e-9),
    ):
        col = -level * rng.uniform(0.5, 1.5, S)
        bounds = {"log_sigma2": sigma_bound, "pdi_ratio_log": sigma_bound}
        yield f"log_mu ~ -{level:g}", col, {**bounds, "log_mu_mcse": mcse_bound}


def oracle(col) -> dict:
    """Every ``summarize`` field of a column, in 60-digit arithmetic."""
    with mp.workdps(60):
        x = [mp.mpf(float(v)) for v in col]
        w = [mp.exp(v) for v in x]
        mean_w = mp.fsum(w) / len(w)
        var_w = mp.fsum((v - mean_w) ** 2 for v in w) / (len(w) - 1)
        mean_x = mp.fsum(x) / len(x)
        var_x = mp.fsum((v - mean_x) ** 2 for v in x) / (len(x) - 1)
        log_mu, log_sigma2 = mp.log(mean_w), mp.log(var_w)
        return {
            "log_mu": log_mu,
            "mu_log": mean_x,
            "log_sigma2": log_sigma2,
            "sigma2_log": var_x,
            "wapdi": var_x / log_mu,
            "pdi_ratio_log": log_sigma2 - log_mu,
            "waic_term": var_x - log_mu,
            "log_mu_mcse": mp.sqrt(var_w) / (mean_w * mp.sqrt(len(w))),
        }


@pytest.mark.parametrize(
    "col, bounds", [pytest.param(col, bounds, id=name) for name, col, bounds in families()]
)
def test_every_field_within_its_envelope(col, bounds):
    got = pk.summarize(pk.LogLikMatrix(col[:, None]))
    exact = oracle(col)
    assert not np.isnan(got["wapdi"][0])  # no family is flagged
    # log_mu's own loss: about eps / |log_mu|, measured at most 0.57 of it.
    log_mu_bound = max(BENIGN, 2 * EPS / abs(float(exact["log_mu"])))
    for field, value in exact.items():
        bound = bounds.get(field, BENIGN)
        if field in ("log_mu", "wapdi", "waic_term"):
            bound = max(bound, log_mu_bound)
        with mp.workdps(60):
            error = float(abs((mp.mpf(float(got[field][0])) - value) / value))
        assert error <= bound, (field, error, bound)
