"""Item 10's corpus of near-marginal strictly stable operators, pinned.

Sixty operators ``T = S K S^-1`` with ``K`` upper triangular and ``1 -
r(T)`` between ``1e-7`` and ``1e-2`` (the recipe of ROADMAP item 10), and
the two near-marginal Jordan blocks of item 6.  The pins are the status
and the lowest constant that the engine (the primal-dual loop with its
barrier hand-over) returned at the default ``kappa_max`` and at
``1e12``, from the equation seed or from the balanced start.  No status
may change and no constant may rise above ``(1 + tol)`` times its pin; a
constant that falls is a tighter certificate and passes.
"""

import math
import warnings

import numpy as np
import pytest

from simgroup import _condition_sdp, discrete_similarity_constant, weightsolve
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
    ('finite', 1.3230899087554249, 'finite', 1.3230899087554249),
    ('finite', 2.1581533817198184, 'finite', 2.1581533817198184),
    ('finite', 227.60940016682545, 'finite', 227.60940016682545),
    ('finite', 2.431631602413221, 'finite', 2.431631602413221),
    ('finite', 45318.29794428132, 'finite', 45318.29794428132),
    ('finite', 10.749202887815128, 'finite', 10.749202887815128),
    ('finite', 22.34324797670891, 'finite', 22.34324797670891),
    ('finite', 234.85709395425138, 'finite', 234.85709395425138),
    ('finite', 17.938911421460006, 'finite', 17.938911421460006),
    ('finite', 1.5364335403986042, 'finite', 1.5364335403986042),
    ('finite', 71.87410992093965, 'finite', 71.87410992093965),
    ('finite', 1.0348984305014508, 'finite', 1.0348984305014508),
    ('finite', 4.837469427171531, 'finite', 4.837469427171531),
    ('finite', 4.359367003361418, 'finite', 4.359367003361418),
    ('finite', 27.612223324233522, 'finite', 27.612223324233522),
    ('finite', 2.3800487188912727, 'finite', 2.3800487188912727),
    ('finite', 2.418946251970358, 'finite', 2.418946251970358),
    ('finite', 10282.284604572083, 'finite', 10282.284604572083),
    ('finite', 1.0090879626194682, 'finite', 1.0090879626194682),
    ('finite', 1.9455861180322294, 'finite', 1.9455861180322294),
    ('finite', 33.619685014652184, 'finite', 33.619685014652184),
    ('finite', 24.104247967162042, 'finite', 24.104247967162042),
    ('finite', 33.03102522000845, 'finite', 33.03102522000845),
    ('finite', 86.16094821615127, 'finite', 86.16094821615127),
    ('finite', 22.67055727034196, 'finite', 22.67055727034196),
    ('finite', 19.807928001918647, 'finite', 19.807928001918647),
    ('finite', 188.1369061424471, 'finite', 188.1369061424471),
    ('finite', 4.483019356668115, 'finite', 4.483019356668115),
    ('finite', 7.850653319720034, 'finite', 7.850653319720034),
    ('finite', 973.1773238171362, 'finite', 973.1773238171362),
    ('finite', 56.741701821930846, 'finite', 56.741701821930846),
    ('finite', 15.794463505671757, 'finite', 15.794463505671757),
    ('finite', 16.332939931583812, 'finite', 16.332939931583812),
    ('finite', 2.6945568424538715, 'finite', 2.6945568424538715),
    ('finite', 4.329231353048207, 'finite', 4.329231353048207),
    ('finite', 721.63956392629, 'finite', 721.63956392629),
    ('finite', 3.1931431640782706, 'finite', 3.1931431640782706),
    ('finite', 12.638832020438755, 'finite', 12.638832020438755),
    ('finite', 4.342477286876637, 'finite', 4.342477286876637),
    ('finite', 60.15484238831397, 'finite', 60.15484238831397),
    ('finite', 210.89489555492094, 'finite', 210.89489555492094),
    ('finite', 2688.6789861302964, 'finite', 2688.6789861302964),
    ('finite', 2108.6231887746494, 'finite', 2108.6231887746494),
    ('finite', 37.46496560835707, 'finite', 37.46496560835707),
    ('finite', 1.8375768125674496, 'finite', 1.8375768125674496),
    ('finite', 4.32610608594992, 'finite', 4.32610608594992),
    ('finite', 166.92430011514824, 'finite', 166.92430011514824),
    ('finite', 10.746888862119581, 'finite', 10.746888862119581),
    ('finite', 88.88564734152206, 'finite', 88.88564734152206),
    ('finite', 3.6770213133774443, 'finite', 3.6770213133774443),
    ('finite', 157.56029674160683, 'finite', 157.56029674160683),
    ('finite', 19.015843557435158, 'finite', 19.015843557435158),
    ('finite', 64.13265132948527, 'finite', 64.13265132948527),
    ('finite', 12.173164711918997, 'finite', 12.173164711918997),
    ('finite', 39.12710809219806, 'finite', 39.12710809219806),
    ('finite', 1.529308975637996, 'finite', 1.529308975637996),
    ('finite', 2.8796335288197183, 'finite', 2.8796335288197183),
    ('finite', 1.735475161676485, 'finite', 1.735475161676485),
    ('finite', 50.08050423176321, 'finite', 50.08050423176321),
    ('finite', 33.05982514984122, 'finite', 33.05982514984122),
    ('finite', 250003.0895365744, 'finite', 250003.0895365744),
    ('finite', 500000.1438484697, 'finite', 500000.1438484697),
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


def test_start_falls_back_to_the_seed_where_the_balanced_weight_is_off_the_cone(monkeypatch):
    # draw 4's balanced weight has a positive pair-form defect in float64;
    # the engine then starts from the equation seed, with no NaN kappa
    T = CORPUS[4]
    target = SteinTarget((T,))
    assert target._start is target._seed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = discrete_similarity_constant(T, tol=TOL)
    assert v.finite
    assert np.isfinite([v.constant, v.lower]).all() and np.isfinite(v.certificate.weight).all()
    monkeypatch.setattr(weightsolve._Target, "_start", property(lambda self: self._seed))
    seeded = discrete_similarity_constant(T, tol=TOL)
    assert (v.status, v.constant, v.lower, v.evidence) == (seeded.status, seeded.constant, seeded.lower, seeded.evidence)
    np.testing.assert_array_equal(v.certificate.weight, seeded.certificate.weight)
