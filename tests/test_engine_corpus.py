"""Item 10's corpus of near-marginal strictly stable operators, pinned.

Sixty operators ``T = S K S^-1`` with ``K`` upper triangular and ``1 -
r(T)`` between ``1e-7`` and ``1e-2`` (the recipe of ROADMAP item 10), and
the two near-marginal Jordan blocks of item 6.  The pins are the status
and the constant that the engine (the primal-dual loop with its barrier
hand-over) returned at the default ``kappa_max`` and at ``1e12``.  No
status may change and no constant may rise above ``(1 + tol)`` times its
pin; a constant that falls is a tighter certificate and passes.
"""

import math

import numpy as np
import pytest

from simgroup import _condition_sdp, discrete_similarity_constant
from simgroup.weightsolve import SteinTarget

TOL = 1e-4


def _corpus():
    rng = np.random.default_rng(11)
    out = []
    for _ in range(60):
        n = int(rng.integers(2, 6))
        d = 10 ** -rng.uniform(2, 7)
        D = np.diag((1 - d) * np.sign(rng.standard_normal(n)) * rng.uniform(0.3, 1, n))
        D[0, 0] = (1 - d) * np.sign(D[0, 0])
        K = D + np.triu(rng.standard_normal((n, n)), 1) * rng.uniform(0.1, 2)
        S = np.eye(n) + 0.4 * rng.standard_normal((n, n))
        out.append(S @ K @ np.linalg.inv(S))
    out.append(np.array([[1 - 1e-6, 0.5], [0.0, 1 - 1e-6]]))
    out.append(np.array([[1 - 1e-7, 0.1], [0.0, 1 - 1e-7]]))
    return out


#: (status, constant) at kappa_max = 1e6 and at 1e12, draw by draw (0-based),
#: then the two Jordan blocks
PINS = [
    ('finite', 1.3230983442557351, 'finite', 1.3230983442557351),
    ('finite', 2.1581533817198184, 'finite', 2.1581533817198184),
    ('finite', 227.6094103681902, 'finite', 227.6094103681902),
    ('finite', 2.4316342931647155, 'finite', 2.4316342931647155),
    ('finite', 45318.29794428132, 'finite', 45318.29794428132),
    ('finite', 10.749276274481455, 'finite', 10.749276274481455),
    ('finite', 22.34324797670891, 'finite', 22.34324797670891),
    ('finite', 234.8570939686966, 'finite', 234.8570939686966),
    ('finite', 17.938911421460006, 'finite', 17.938911421460006),
    ('finite', 1.5364391550218213, 'finite', 1.5364391550218213),
    ('finite', 71.87411027945755, 'finite', 71.87411027945755),
    ('finite', 1.0349157027474898, 'finite', 1.0349157027474898),
    ('finite', 4.837469427171531, 'finite', 4.837469427171531),
    ('finite', 4.3593721274577835, 'finite', 4.3593721274577835),
    ('finite', 27.612282983362086, 'finite', 27.612282983362086),
    ('finite', 2.3800487188912727, 'finite', 2.3800487188912727),
    ('finite', 2.4189555458989562, 'finite', 2.4189555458989562),
    ('infeasible', math.inf, 'finite', 1966234.2626793708),
    ('finite', 1.0090961889444225, 'finite', 1.0090961889444225),
    ('finite', 1.9455861180322294, 'finite', 1.9455861180322294),
    ('finite', 33.61974947463893, 'finite', 33.61974947463893),
    ('finite', 24.105480605093028, 'finite', 24.105480605093028),
    ('finite', 33.03141998098712, 'finite', 33.03141998098712),
    ('finite', 86.16196521983977, 'finite', 86.16196521983977),
    ('finite', 22.670557517434684, 'finite', 22.670557517434684),
    ('finite', 19.807928001918647, 'finite', 19.807928001918647),
    ('finite', 188.13691370283277, 'finite', 188.13691370283277),
    ('finite', 4.483019356668115, 'finite', 4.483019356668115),
    ('finite', 7.850653319720034, 'finite', 7.850653319720034),
    ('finite', 973.1900431600566, 'finite', 973.1900431600566),
    ('finite', 56.741701821930846, 'finite', 56.741701821930846),
    ('finite', 15.794463505671757, 'finite', 15.794463505671757),
    ('finite', 16.332939931583812, 'finite', 16.332939931583812),
    ('finite', 2.6945682020985906, 'finite', 2.6945682020985906),
    ('finite', 4.329231353048207, 'finite', 4.329231353048207),
    ('finite', 175719.32436362025, 'finite', 175719.32436362025),
    ('finite', 3.1931431640782706, 'finite', 3.1931431640782706),
    ('finite', 12.638832020438755, 'finite', 12.638832020438755),
    ('finite', 4.342477286876637, 'finite', 4.342477286876637),
    ('finite', 60.15504290199948, 'finite', 60.15504290199948),
    ('finite', 210.89489555492094, 'finite', 210.89489555492094),
    ('finite', 578427.2366548057, 'finite', 578427.2366548057),
    ('finite', 907650.665550353, 'finite', 907650.665550353),
    ('finite', 37.46527708968879, 'finite', 37.46527708968879),
    ('finite', 1.8376537185701582, 'finite', 1.8376537185701582),
    ('finite', 4.326111454783871, 'finite', 4.326111454783871),
    ('finite', 144974.78023296097, 'finite', 144974.78023296097),
    ('finite', 10.746888862119581, 'finite', 10.746888862119581),
    ('finite', 88.8856479986325, 'finite', 88.8856479986325),
    ('finite', 3.6770283142855975, 'finite', 3.6770283142855975),
    ('finite', 157.56029770543327, 'finite', 157.56029770543327),
    ('finite', 19.015843557435158, 'finite', 19.015843557435158),
    ('finite', 64.13265132948527, 'finite', 64.13265132948527),
    ('finite', 12.1731748271009, 'finite', 12.1731748271009),
    ('finite', 39.12710809219806, 'finite', 39.12710809219806),
    ('finite', 1.529308975637996, 'finite', 1.529308975637996),
    ('finite', 2.8796335288197183, 'finite', 2.8796335288197183),
    ('finite', 1.735475161676485, 'finite', 1.735475161676485),
    ('finite', 50.08050423176321, 'finite', 50.08050423176321),
    ('finite', 33.05982514984122, 'finite', 33.05982514984122),
    ('finite', 499999.7499877472, 'finite', 499999.7499877472),
    ('finite', 999999.9505273585, 'finite', 999999.9505273585),
]

CORPUS = _corpus()


@pytest.mark.parametrize("kappa_max, column", [(1e6, 0), (1e12, 2)], ids=["default", "1e12"])
def test_no_status_changes_and_no_constant_rises(kappa_max, column):
    changed, risen = [], []
    for i, (T, pin) in enumerate(zip(CORPUS, PINS)):
        status, constant = pin[column], pin[column + 1]
        v = discrete_similarity_constant(T, tol=TOL, kappa_max=kappa_max)
        if v.status != status:
            changed.append((i, status, v.status))
        elif math.isfinite(constant) and v.constant > (1.0 + TOL) * constant:
            risen.append((i, constant, v.constant))
    assert not changed
    assert not risen


#: Draws that only the barrier hand-over closes, with the engine's
#: bracket ``[lower, kappa]`` when the primal-dual loop ran first
HANDOVER_DRAWS = {23: (86.155, 86.162), 29: (973.141, 973.190), 48: (88.8827, 88.8856)}


@pytest.mark.parametrize("draw", list(HANDOVER_DRAWS))
def test_handover_draws_close_through_the_barrier(draw):
    # the primal-dual loop stalls on these thin cones; the barrier loop
    # from the seed must close them to tol
    target = SteinTarget((CORPUS[draw],))
    res = _condition_sdp.solve(target._form, target._seed, TOL)
    assert res.barrier_steps > 0
    assert res.kappa <= (1.0 + TOL) * res.lower
    # two certified brackets of one constant overlap
    lower, kappa = HANDOVER_DRAWS[draw]
    assert res.lower <= kappa and res.kappa >= lower
