"""The drift table that ``seed_report.py`` prints against a parent report."""

import math

from seed_report import drift_table


def _report(bll_lpd, log_alpha, band=None):
    seeds = {
        str(seed): {
            "bll": {
                "variants": {"alpha_star": {"test_lpd": lpd}, "alpha_max": {"test_lpd": lpd + 1}},
                "sigma_e": [0.05],
                "alpha_star": math.exp(log_alpha),
                "alpha_max": math.exp(log_alpha + 2),
            }
        }
        for seed, lpd in enumerate(bll_lpd)
    }
    return {"seeds": seeds, **({"band": band} if band else {})}


def test_rows_columns_and_signs():
    parent = _report([-0.5, -0.2], 1.0)
    change = _report([-0.25, -0.2 - 1e-10], 1.0, band={"bll_alpha_star.test_lpd": 0.127})
    lines = drift_table(parent, change).splitlines()
    assert lines[0] == (
        "| drift (change − parent) | 0 | 1 | max abs | band, parent | band, change |"
    )
    labels = [line.split(" | ")[0] for line in lines[2:]]
    assert labels == [
        "| bll test LPD, α*",
        "| bll test LPD, α_max",
        "| bll σ_e,0",
        "| bll ln α*",
        "| bll ln α_max",
    ]
    assert lines[2] == "| bll test LPD, α* | +0.250 | −1.0e-10 | 0.250 | — | 0.127 |"
    # an unmoved figure reads 0, not a rounded +0.000
    assert lines[4] == "| bll σ_e,0 | 0 | 0 | 0 | — | — |"
