"""One untimed call of every public route, before any timed section.

Run as a script, this file is the set-up probe behind ``setup_s``: a
fresh interpreter that imports rislink from the checkout's ``src`` and
calls each route once, which is what a user pays on every CLI run.
"""

from __future__ import annotations

import sys
from pathlib import Path


def warm_up() -> None:
    from rislink import fading, metrics, validation

    cfg = metrics.LinkConfig.from_eta(10.0, fading.FadingParams(1.0, 5.0), 8)
    gamma_th = 2.0
    for route in (metrics.avg_capacity, metrics.avg_capacity_asymptotic,
                  validation.quad_capacity, metrics.avg_ber,
                  metrics.avg_ber_asymptotic, validation.quad_ber):
        route(cfg)
    for route in (metrics.outage, metrics.outage_asymptotic, validation.quad_outage):
        route(cfg, gamma_th)
    for mode in (fading.MODEL_DRAW, fading.PHYSICAL_DRAW):
        validation.mc_metric(cfg, validation.CAPACITY,
                             validation.McConfig(10_000, seed=1, mode=mode))


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    warm_up()
