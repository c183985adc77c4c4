import math
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import configuration

from toepspec.symbol import PiecewiseSymbol, TrigPoly, preset_regular, preset_singular


HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    # hypothesis caches constants read from the source files under its home
    # directory while it collects; keep that home out of the checkout
    config.stash[HYPOTHESIS_HOME] = tempfile.mkdtemp(prefix="toepspec-hypothesis-")
    configuration.set_hypothesis_home_dir(config.stash[HYPOTHESIS_HOME])


def pytest_unconfigure(config):
    shutil.rmtree(config.stash[HYPOTHESIS_HOME], ignore_errors=True)


@pytest.fixture(scope="session")
def regular():
    return preset_regular()


@pytest.fixture(scope="session")
def singular():
    return preset_singular(0.0, math.pi)


@pytest.fixture(scope="session")
def singular_asym():
    return preset_singular(0.7, 2.9)


@pytest.fixture(scope="session")
def fig2():
    """One rising and one falling smooth branch through the test interval,
    plus an up-jump and a down-jump spanning it: multiplicity two."""
    return PiecewiseSymbol([
        (0.0, math.pi, TrigPoly([0.0, 0.0, -1.0])),
        (math.pi, 1.5 * math.pi, TrigPoly([1.0])),
        (1.5 * math.pi, 2.0 * math.pi, TrigPoly([-1.0])),
    ])


@pytest.fixture(scope="session")
def cos2_symbol():
    """cos(2 theta): two symmetric sublevel arcs, multiplicity two."""
    return PiecewiseSymbol([(0.0, 2.0 * math.pi, TrigPoly([0.0, 0.0, 1.0]))])


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


def regular_xi_closed(z, lam):
    """sqrt(2/(1 - 2 lam z + z^2)); valid branch for |z| < 1."""
    return np.sqrt(2.0 / (1.0 - 2.0 * lam * z + z * z))


def regular_phi_closed(z, lam):
    return math.sqrt(2.0 / math.pi) * (1.0 - lam * lam) ** 0.25 / (1.0 - 2.0 * lam * z + z * z)


def singular_phi_closed(z, lam, t1=0.0, t2=math.pi):
    """Interior eigenfunction of the indicator symbol in closed form.

    The lambda^{-1/2} factor belongs to the modulus function: dropping it
    breaks both the boundary relation and the operator moments.
    """
    z1, z2 = np.exp(1j * t1), np.exp(1j * t2)
    mm = ((t2 - t1) % (2.0 * math.pi)) / (2.0 * math.pi)
    sg = math.log(1.0 / lam - 1.0) / (2.0 * math.pi)
    rho = math.sqrt(abs(z1 - z2) / (2.0 * math.pi))
    return (rho * lam ** -0.5 * np.exp(-math.pi * sg * mm)
            * (1.0 - z / z1) ** (-0.5 - 1j * sg) * (1.0 - z / z2) ** (-0.5 + 1j * sg))


def singular_phi_ext_closed(z, lam, t1=0.0, t2=math.pi):
    """Exterior partner of the indicator symbol in closed form."""
    z1, z2 = np.exp(1j * t1), np.exp(1j * t2)
    mm = ((t2 - t1) % (2.0 * math.pi)) / (2.0 * math.pi)
    sg = math.log(1.0 / lam - 1.0) / (2.0 * math.pi)
    rho = math.sqrt(abs(z1 - z2) / (2.0 * math.pi))
    return (rho * lam ** 0.5 * np.exp(math.pi * (sg + 1j) * mm) * z1 / z
            * (1.0 - z1 / z) ** (-0.5 - 1j * sg) * (1.0 - z2 / z) ** (-0.5 + 1j * sg))


def chebyshev_U(n, x):
    u0, u1 = 1.0, 2.0 * x
    if n == 0:
        return u0
    for _ in range(n - 1):
        u0, u1 = u1, 2.0 * x * u1 - u0
    return u1
