"""Sample mode's binomial draws (``stateprep.binomial``): exact cases, the
two methods and both sides of p = 1/2 in one call, and goodness of fit
against ``scipy.stats.binom``.  Most tests run three ways: as shipped,
where a call of up to ``_SCALAR`` rows, and the rows a vectorized round
leaves, take the scalar forms; with every row vectorized; and with every
row scalar."""

import numpy as np
import pytest
from scipy import stats

from stateprep import binomial as B

MAX = 2**63 - 1


@pytest.fixture(params=["shipped", "vectorized", "scalar"])
def form(request, monkeypatch):
    if request.param != "shipped":
        monkeypatch.setattr(B, "_SCALAR", 0 if request.param == "vectorized" else MAX)
    return request.param


def draw(seed, n, p):
    return B.binomial(B.generator(seed), np.asarray(n, dtype=np.int64), np.asarray(p, dtype=float))


def test_exact_cases(form):
    n = [0, 0, 0, 7, 7, MAX, MAX, 1]
    p = [0.0, 0.5, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]
    assert draw(0, n, p).tolist() == [0, 0, 0, 0, 7, 0, MAX, 0]
    ones = draw(1, [1] * 2000, [0.3] * 2000)
    assert set(ones.tolist()) == {0, 1}
    assert abs(ones.mean() - 0.3) < 5 * np.sqrt(0.21 / 2000)


@pytest.mark.parametrize("n, p", [(5, np.nan), (5, 1.5), (5, -0.1), (-1, 0.5)])
def test_an_invalid_row_is_refused(n, p, form):
    with pytest.raises(ValueError, match="binomial row"):
        draw(0, [3] * 40 + [n], [0.5] * 40 + [p])
    with pytest.raises(ValueError, match="binomial row"):
        draw(0, [n], [p])


def test_the_largest_count_at_one_half(form):
    k = draw(2, [MAX] * 50, [0.5] * 50)
    assert k.dtype == np.int64
    assert ((k >= 0) & (k <= MAX)).all()
    # sd = sqrt(n/4) is about 1.5e9
    assert np.abs(k - 2**62).max() < 6 * 2**30.5
    assert len(set(k.tolist())) == 50


def test_both_methods_and_both_halves_in_one_call(form):
    # n p just below and above 10, each at p and at 1 - p, 4,000 rows of each.
    cases = [(1000, 0.0099), (1000, 0.0101), (1000, 0.9901), (1000, 0.9899)]
    n = np.repeat([c[0] for c in cases], 4000)
    p = np.repeat([c[1] for c in cases], 4000)
    k = draw(3, n, p)
    for i, (ni, pi) in enumerate(cases):
        part = k[4000 * i: 4000 * (i + 1)]
        assert ((part >= 0) & (part <= ni)).all()
        assert abs(part.mean() - ni * pi) < 5 * np.sqrt(ni * pi * (1 - pi) / 4000)
    # A row at 1 - p is n less a draw at p, so the halves mirror each other.
    assert abs(k[:4000].mean() + k[8000:12000].mean() - 1000) < 0.5


@pytest.mark.parametrize("n, p", [(20, 0.3), (10**6, 3e-6), (1000, 0.5), (10**9, 0.9),
                                  (25, 0.4), (60, 0.95), (1000, 0.0095)])
def test_frequencies_fit_the_binomial_chi2(n, p, form):
    rows = 20_000
    k = draw(4, [n] * rows, [p] * rows)
    # Cells of about equal mass between quantiles, each expecting many draws.
    edges = np.unique(np.concatenate(([-1], stats.binom.ppf(np.linspace(0, 1, 21)[1:-1], n, p),
                                      [n])))
    expected = np.diff(stats.binom.cdf(edges, n, p)) * rows
    observed = np.histogram(k, bins=edges + 0.5)[0]
    assert observed.sum() == rows
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert chi2 < stats.chi2.ppf(1 - 1e-4, df=len(expected) - 1)


def test_the_same_seed_gives_the_same_draws(form):
    n = np.array([5, 40, 10**6, 10**12, 3])
    p = np.array([0.2, 0.5, 0.3, 0.999, 0.7])
    assert draw(9, n, p).tolist() == draw(9, n, p).tolist()
    assert draw(9, n, p).tolist() != draw(10, n, p).tolist()


def test_an_uncovered_uniform_starts_again(monkeypatch, form):
    # With the restart at k = 16, about 4% of rows at mean 9 are not covered
    # by their first uniform and draw again, so every k stays below 16.
    monkeypatch.setattr(B, "_RESTART", 16)
    k = draw(5, [100] * 2000, [0.09] * 2000)
    assert k.max() < 16 and k.min() >= 0


def test_both_forms_of_inversion_agree():
    # Without a restart, each row takes one uniform, in row order, in either
    # form; only the rounding of the sums differs.  Mean 8 reaches past the
    # first two blocks, k < 2 and k < 18, so the shipped form hands on mid-row.
    n, p = np.full(2000, 800), np.full(2000, 0.01)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(B, "_SCALAR", 0)
        vectorized = draw(7, n, p)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(B, "_SCALAR", MAX)
        scalar = draw(7, n, p)
    assert 0 < (vectorized >= 18).sum() <= B._SCALAR
    assert draw(7, n, p).tolist() == vectorized.tolist() == scalar.tolist()


def test_uniforms_lie_inside_the_unit_interval():
    u = B.uniforms(B.generator(6), 3, 1000)
    assert u.shape == (3, 1000)
    assert ((u > 0) & (u < 1)).all()
    assert (u * 2.0**53 % 2 == 1).all()  # odd multiples of 2**-53, exactly
    assert B.uniforms(B.generator(6), 3, 1000).tolist() == u.tolist()
    rng = B.generator(6)
    assert [B._uniform(rng) for _ in range(3000)] == u.ravel().tolist()


def test_a_negative_seed_is_refused():
    with pytest.raises(ValueError, match="negative"):
        B.generator(-1)
    assert B.generator(np.int64(3)).random() == B.generator(3).random()
