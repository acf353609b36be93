"""The abstract's checkable claims, against what the program computes.

Each test evaluates the measure table of a shipped preset (4001 points) on
both routes and asserts the computed values.  Where the abstract's wording
does not hold for the measures as trinu defines them, the assertion message
says so.
"""

import numpy as np
import pytest

from trinu import OscillationParams, measures
from trinu.cli import load_preset
from trinu.measures import CSV_COLUMNS

ROUTES = ("closed-form", "generic")


@pytest.fixture(scope="module")
def columns():
    """Column arrays of the measure table, per (preset, route)."""
    params = OscillationParams()
    out = {}
    for preset in ("electron", "muon"):
        cfg = load_preset(preset)
        for route in ROUTES:
            t = measures.table(params, cfg.initial, cfg.grid(), path=route)
            out[preset, route] = {name: t[:, i] for i, name in enumerate(CSV_COLUMNS)}
    return out


@pytest.mark.parametrize("route", ROUTES)
def test_fill_reaches_089_for_electron_not_for_muon(columns, route):
    electron = columns["electron", route]["fill"].max()
    muon = columns["muon", route]["fill"].max()
    # holds: the electron fill peaks near the equal-probability point 8/9
    assert electron == pytest.approx(0.88787, abs=1e-5), electron
    assert muon == pytest.approx(0.45198, abs=1e-5), muon


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("preset,smallest", [("electron", 0.0), ("muon", 1.9e-4)])
def test_fill_at_least_three_pi_on_every_row(columns, route, preset, smallest):
    c = columns[preset, route]
    margin = c["fill"] - c["three_pi"]
    assert margin.min() >= 0.0, (
        f"fill < three_pi at L/E {c['le_km_per_GeV'][margin.argmin()]} km/GeV")
    assert margin.min() == pytest.approx(smallest, abs=1e-5)


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("preset,worst,at_le", [
    ("electron", -0.0312, 390.0), ("muon", -0.0314, 457.0),
])
def test_fill_below_gmc_on_flat_triangles(columns, route, preset, worst, at_le):
    c = columns[preset, route]
    margin = c["fill"] - c["gmc"]
    i = int(margin.argmin())
    assert margin[i] == pytest.approx(worst, abs=5e-4) and abs(
        c["le_km_per_GeV"][i] - at_le) <= 5.0, (
        "the abstract says the fill 'contains the most quantum resource'; row by "
        f"row it does not against gmc: smallest fill - gmc is {margin[i]:.4g} at "
        f"L/E {c['le_km_per_GeV'][i]:.6g} km/GeV"
    )


@pytest.mark.parametrize("route", ROUTES)
def test_fill_below_ggm_near_product_states(columns, route):
    c = columns["electron", route]
    below = np.nonzero(c["fill"] < c["ggm"])[0]
    # the first two rows after the origin, p_e ~ 0.9999: with the two small
    # probabilities of order eps, the fill vanishes like eps^(5/4) and the
    # ggm (the smallest probability) like eps, so the ggm is larger there
    assert c["le_km_per_GeV"][below].tolist() == [10.0, 20.0], (
        "the abstract says the fill 'contains the most quantum resource'; near "
        f"product states the ggm is larger: rows {below.tolist()}")
    assert (c["fill"] - c["ggm"])[below].min() == pytest.approx(-1.46e-5, abs=1e-7)
    assert np.all(columns["muon", route]["fill"] >= columns["muon", route]["ggm"])


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("preset", ["electron", "muon"])
def test_ggm_is_a_function_of_gmc(columns, route, preset):
    # both are functions of the probability farthest from 1/2, so they share
    # every kink and every extremum location
    c = columns[preset, route]
    err = np.abs(c["ggm"] - (1.0 - np.sqrt(1.0 - c["gmc"])) / 2.0)
    assert err.max() <= 1e-15, (
        f"ggm = (1 - sqrt(1 - gmc))/2 misses by {err.max():.3g} at "
        f"L/E {c['le_km_per_GeV'][err.argmax()]:.6g} km/GeV")
