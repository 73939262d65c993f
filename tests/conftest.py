import os
import sys
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

settings.register_profile("suite", max_examples=40, deadline=None)
settings.load_profile("suite")

from segreode import beta_family, build_rho, solve_psi  # noqa: E402

# real-beta members on which Abel's identity for the formal solutions, and
# the field and coupled pairing it gives, are checked
ABEL_MEMBERS = [(2, 0), (2, 1), (2, Fraction(-1, 3)), (3, 2),
                (3, Fraction(5, 2)), (4, 1)]


@lru_cache(maxsize=None)
def family_profile(m: int, beta_str: str, nx: int, ny: int):
    """Cached profile solve for a family member (tests share these)."""
    ode = beta_family(m, Fraction(beta_str), nx + ny + 2 * m + 2)
    return solve_psi(ode, +1, (nx, ny))


@lru_cache(maxsize=None)
def family_hyper(m: int, beta_str: str, nx: int, ny: int):
    return build_rho(family_profile(m, beta_str, nx, ny))


@pytest.fixture(scope="session")
def small_rect():
    return (6, 12)
