"""Item 10's corpus of near-marginal strictly stable operators, pinned.

Sixty operators ``T = S K S^-1`` with ``K`` upper triangular and ``1 -
r(T)`` between ``1e-7`` and ``1e-2`` (the recipe of ROADMAP item 10), and
the two near-marginal Jordan blocks of item 6.  The pins are the status
and the constant that the primal barrier engine, before the primal-dual
loop replaced it as the first engine, returned at the default
``kappa_max`` and at ``1e12``.  No status may change and no constant may
rise above ``(1 + tol)`` times its pin; a constant that falls is a
tighter certificate and passes.
"""

import math

import numpy as np
import pytest

from simgroup import discrete_similarity_constant

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
    ('finite', 1.3231021542387948, 'finite', 1.3231021542387948),
    ('finite', 2.15814882313825, 'finite', 2.15814882313825),
    ('finite', 227.6123462690347, 'finite', 227.6123462690347),
    ('finite', 2.431630154943919, 'finite', 2.431630154943919),
    ('finite', 45318.29794428132, 'finite', 45318.29794428132),
    ('finite', 10.749363740228675, 'finite', 10.749363740228675),
    ('finite', 22.343543670478308, 'finite', 22.343543670478308),
    ('finite', 234.85807964725498, 'finite', 234.85807964725498),
    ('finite', 17.938898297760762, 'finite', 17.938898297760762),
    ('finite', 1.5364570484566982, 'finite', 1.5364570484566982),
    ('finite', 71.87467233065142, 'finite', 71.87467233065142),
    ('finite', 1.0349154301750636, 'finite', 1.0349154301750636),
    ('finite', 4.837496789001587, 'finite', 4.837496789001587),
    ('finite', 4.359388645021741, 'finite', 4.359388645021741),
    ('finite', 27.612432429653992, 'finite', 27.612432429653992),
    ('finite', 2.3800491212038026, 'finite', 2.3800491212038026),
    ('finite', 2.4189973309276325, 'finite', 2.4189973309276325),
    ('infeasible', math.inf, 'finite', 1966234.2626793708),
    ('finite', 1.0091061829939731, 'finite', 1.0091061829939731),
    ('finite', 1.945596108624711, 'finite', 1.945596108624711),
    ('finite', 33.61981215713284, 'finite', 33.61981215713284),
    ('finite', 24.104741924182694, 'finite', 24.104741924182694),
    ('finite', 33.03145791713741, 'finite', 33.03145791713741),
    ('finite', 86.16196521983977, 'finite', 86.16196521983977),
    ('finite', 22.670600372995235, 'finite', 22.670600372995235),
    ('finite', 19.808118131300038, 'finite', 19.808118131300038),
    ('finite', 188.13756128853925, 'finite', 188.13756128853925),
    ('finite', 4.483024666071485, 'finite', 4.483024666071485),
    ('finite', 7.850703150676204, 'finite', 7.850703150676204),
    ('finite', 973.1900431600566, 'finite', 973.1900431600566),
    ('finite', 56.74235952158595, 'finite', 56.74235952158595),
    ('finite', 15.794561443431938, 'finite', 15.794561443431938),
    ('finite', 16.333190229844345, 'finite', 16.333190229844345),
    ('finite', 2.694591917477182, 'finite', 2.694591917477182),
    ('finite', 4.329233759899437, 'finite', 4.329233759899437),
    ('finite', 175719.32436362025, 'finite', 175719.32436362025),
    ('finite', 3.1931664078762854, 'finite', 3.1931664078762854),
    ('finite', 12.638983137622482, 'finite', 12.638983137622482),
    ('finite', 4.3425041216635645, 'finite', 4.3425041216635645),
    ('finite', 60.15504290199948, 'finite', 60.15504290199948),
    ('finite', 210.8977307286635, 'finite', 210.8977307286635),
    ('finite', 588116.4615868232, 'finite', 588116.4615868232),
    ('finite', 907650.665550353, 'finite', 907650.665550353),
    ('finite', 37.46500940475741, 'finite', 37.46500940475741),
    ('finite', 1.8376041594704198, 'finite', 1.8376041594704198),
    ('finite', 4.326125407306748, 'finite', 4.326125407306748),
    ('finite', 144974.78023296097, 'finite', 144974.78023296097),
    ('finite', 10.746967664861671, 'finite', 10.746967664861671),
    ('finite', 88.88618370258857, 'finite', 88.88618370258857),
    ('finite', 3.677010448808646, 'finite', 3.677010448808646),
    ('finite', 157.56265319939592, 'finite', 157.56265319939592),
    ('finite', 19.015975805993936, 'finite', 19.015975805993936),
    ('finite', 64.13291458331662, 'finite', 64.13291458331662),
    ('finite', 12.173230143984835, 'finite', 12.173230143984835),
    ('finite', 39.12734380726887, 'finite', 39.12734380726887),
    ('finite', 1.529347531631495, 'finite', 1.529347531631495),
    ('finite', 2.879645757229976, 'finite', 2.879645757229976),
    ('finite', 1.7354953021899675, 'finite', 1.7354953021899675),
    ('finite', 50.08063266442672, 'finite', 50.08063266442672),
    ('finite', 33.060038422689146, 'finite', 33.060038422689146),
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
