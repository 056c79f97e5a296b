"""The source paper's published efficiency tables.

Design model w0 = 1, theta = 5, sigma = 3, deductible 4, for three policy
limits; ``tests/test_acceptance.py`` carries the same numbers.
"""
from __future__ import annotations

#: Published per-payment ARE grids: censoring point -> a -> values over B_COLUMNS.
PUBLISHED_Y = {
    "2e5": {0.00: (0.987, 0.904, 0.821, 0.747, 0.616),
            0.05: (0.984, 0.904, 0.821, 0.749, 0.620),
            0.10: (0.971, 0.893, 0.813, 0.742, 0.615),
            0.15: (0.948, 0.874, 0.796, 0.726, 0.602),
            0.25: (0.885, 0.816, 0.742, 0.676, 0.556)},
    "2.4e4": {0.00: (0.960, 0.871, 0.793, 0.654),
              0.05: (0.959, 0.872, 0.795, 0.658),
              0.10: (0.948, 0.863, 0.788, 0.653),
              0.15: (0.927, 0.845, 0.771, 0.639),
              0.25: (0.867, 0.788, 0.718, 0.590)},
    "8.5e3": {0.00: (0.934, 0.850, 0.701),
              0.05: (0.935, 0.852, 0.705),
              0.10: (0.925, 0.844, 0.700),
              0.15: (0.906, 0.827, 0.685),
              0.25: (0.845, 0.769, 0.633)},
}
#: Published per-loss ARE grids, same layout.
PUBLISHED_Z = {
    "2e5": {0.10: (0.948, 0.900, 0.844, 0.793, 0.695),
            0.15: (0.891, 0.846, 0.793, 0.742, 0.647),
            0.25: (0.786, 0.745, 0.695, 0.647, 0.556),
            0.49: (0.550, 0.516, 0.471, 0.428, 0.343)},
    "2.4e4": {0.10: (0.933, 0.876, 0.822, 0.720),
              0.15: (0.877, 0.822, 0.770, 0.671),
              0.25: (0.772, 0.720, 0.671, 0.577),
              0.49: (0.535, 0.489, 0.444, 0.355)},
    "8.5e3": {0.10: (0.914, 0.858, 0.752),
              0.15: (0.858, 0.804, 0.701),
              0.25: (0.752, 0.701, 0.602),
              0.49: (0.510, 0.464, 0.371)},
}
LIMITS = {"2e5": 2e5, "2.4e4": 2.4e4, "8.5e3": 8.5e3}
B_COLUMNS = {"2e5": (0.01, 0.05, 0.10, 0.15, 0.25),
             "2.4e4": (0.05, 0.10, 0.15, 0.25),
             "8.5e3": (0.10, 0.15, 0.25)}
#: Tolerance of the published tables (three decimals plus rounding).
PUBLISHED_TOL = 0.002


def published_are(per_payment: bool, tag: str, a: float, b: float) -> float:
    table = PUBLISHED_Y if per_payment else PUBLISHED_Z
    return table[tag][a][B_COLUMNS[tag].index(b)]
