"""Energies, pressures and dominant frequencies pinned to recorded numbers.

The figures were recorded from the engine that integrated each inner
y-integral with its own adaptive call, one outer node at a time.  The
batched refinement must reproduce them: values to rel 1e-13, error
estimates to rel 1e-6 (the Kronrod-Gauss differences that make them up
amplify last-bit changes of the integrand) and dominant frequencies to
rel 1e-12.
"""

import numpy as np
import pytest

from casimir import (ConstantEpsMu, Drude, GapConfig, HighTail,
                     InfinitelyPermeable, LorentzOscillators, LowTail,
                     PerfectConductor, Plasma, Tabulated, TabulatedAbsorption,
                     dominant_frequency, energy_per_area, pressure)


def lorentz_table(f, wp, w0, g, n=2500):
    w = np.geomspace(w0 * 1e-3, w0 * 1e3, n)
    eps2 = f * wp ** 2 * g * w / ((w0 ** 2 - w ** 2) ** 2 + (g * w) ** 2)
    return TabulatedAbsorption(w, eps2, LowTail("linear"), HighTail("power", 3.0))


PAIRS = {
    "pc-pc": (PerfectConductor(), PerfectConductor()),
    "pc-permeable": (PerfectConductor(), InfinitelyPermeable()),
    "const": (ConstantEpsMu(6.0, 1.5), ConstantEpsMu(6.0, 1.5)),
    "drude": (Drude(1.37e16, 5.3e13), Drude(1.37e16, 5.3e13)),
    "plasma": (Plasma(9e15), Plasma(9e15)),
    "lorentz-table": (LorentzOscillators([(1.0, 8e15, 5e15, 5e13)]),
                      Tabulated(lorentz_table(1.0, 8e15, 5e15, 5e13))),
}

# (pair, gap, kind): (value, error_estimate, dominant_xi) at the default
# QuadratureConfig
PINNED = {
    ("pc-pc", 1e-07, "energy"):
        (-4.333752574825819e-07, 2.961855109287721e-17, 2297206437508089.0),
    ("pc-pc", 1e-07, "pressure"):
        (-13.001257724477455, 9.746775383000992e-10, 3185492207620866.5),
    ("pc-pc", 1e-06, "energy"):
        (-4.3337525748258177e-10, 2.9618551158184676e-20, 229720643750808.94),
    ("pc-pc", 1e-06, "pressure"):
        (-0.0013001257724477458, 9.746753748641446e-14, 318549220762086.7),
    ("pc-permeable", 1e-07, "energy"):
        (3.7920335029725926e-07, 3.25916102758411e-17, 2518392750291008.5),
    ("pc-permeable", 1e-07, "pressure"):
        (11.376100508917773, 1.0072710738311559e-09, 3428700207524916.5),
    ("pc-permeable", 1e-06, "energy"):
        (3.7920335029725917e-10, 3.259158273406507e-20, 251839275029100.88),
    ("pc-permeable", 1e-06, "pressure"):
        (0.0011376100508917778, 1.0072732153959255e-13, 342870020752491.75),
    ("const", 1e-07, "energy"):
        (-7.082281320647219e-08, 3.910206396157931e-18, 1841924861952000.0),
    ("const", 1e-07, "pressure"):
        (-2.12468439619415, 1.5761644225514763e-10, 2621839534834574.0),
    ("const", 1e-06, "energy"):
        (-7.082281320647219e-11, 3.910201895974452e-21, 184192486195200.03),
    ("const", 1e-06, "pressure"):
        (-0.00021246843961941504, 1.576165055888447e-14, 262183953483457.5),
    ("drude", 1e-07, "energy"):
        (-2.244420681043866e-07, 8.096813418609529e-18, 1592746103810433.2),
    ("drude", 1e-07, "pressure"):
        (-5.682574018084891, 5.542850019073174e-10, 2201767745378885.5),
    ("drude", 1e-06, "energy"):
        (-3.914029860041405e-10, 7.632125254450676e-20, 220176774537888.56),
    ("drude", 1e-06, "pressure"):
        (-0.0011414739869132925, 1.3986341157850025e-13, 318549220762086.7),
    ("plasma", 1e-07, "energy"):
        (-1.8315289874837984e-07, 9.491634637056606e-18, 1386643286395911.0),
    ("plasma", 1e-07, "pressure"):
        (-4.459355652505521, 1.6911584414528472e-10, 1841924861952000.0),
    ("plasma", 1e-06, "energy"):
        (-3.819111130647368e-10, 2.5584430235088173e-20, 220176774537888.56),
    ("plasma", 1e-06, "pressure"):
        (-0.0010999530678712476, 1.0439254224764797e-13, 296416395705023.0),
    ("lorentz-table", 1e-07, "energy"):
        (-4.1253675264691965e-08, 1.3268847948567623e-18, 1714350103762458.2),
    ("lorentz-table", 1e-07, "pressure"):
        (-1.1345188641777189, 1.295576354381384e-10, 2201767745378885.5),
    ("lorentz-table", 1e-06, "energy"):
        (-4.9296800018725277e-11, 3.1115317345829444e-21, 209110362009356.72),
    ("lorentz-table", 1e-06, "pressure"):
        (-0.0001475819878850194, 1.1749759288017256e-14, 296416395705023.0),
}

# dominant_frequency at a = 1 um
PINNED_DOMINANT = {
    "pc-pc": 230006394218222.34,
    "pc-permeable": 251356270664409.66,
    "const": 184573243471359.12,
    "drude": 220721581597626.84,
    "plasma": 215665699784930.06,
    "lorentz-table": 209761181106525.4,
}


@pytest.mark.parametrize("key", sorted(PINNED), ids=lambda k: f"{k[0]}-{k[1]:g}-{k[2]}")
def test_pinned_energy_and_pressure(key):
    pair, gap, kind = key
    value, error, dominant = PINNED[key]
    fn = energy_per_area if kind == "energy" else pressure
    res = fn(GapConfig(gap, *PAIRS[pair]))
    assert res.value == pytest.approx(value, rel=1e-13, abs=0.0)
    assert res.error_estimate == pytest.approx(error, rel=1e-6, abs=0.0)
    assert res.dominant_xi == pytest.approx(dominant, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("pair", sorted(PINNED_DOMINANT))
def test_pinned_dominant_frequency(pair):
    xi = dominant_frequency(GapConfig(1e-6, *PAIRS[pair]))
    assert xi == pytest.approx(PINNED_DOMINANT[pair], rel=1e-12, abs=0.0)
