"""Fading distributions: CDFs, sampling, sum model, and the densities
that the CDFs integrate."""

import math
import re

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betaln, hyp2f1

from rislink.errors import DomainError
from rislink.fading import (
    MODEL_DRAW,
    PHYSICAL_DRAW,
    FadingParams,
    SumFadingModel,
    cdf,
    sample,
    sample_sum,
    sum_cdf,
)
from rislink.specfun import MeijerGSpec, meijer_g
from rislink.validation import ks_statistic

KS_CRIT_1PCT = 1.63  # times 1/sqrt(n)


def quad_unit(f):
    return quad(lambda t: f(t / (1.0 - t)) / (1.0 - t) ** 2, 0.0, 1.0, limit=300)[0]


def f_density(a: float, b: float, c: float, g: float) -> float:
    """The F law's density c^a g^(a-1) / (B(a, b) (1 + c g)^(a+b)) at g > 0,
    in logs: (m, m_s, L) for a branch, (Nm, Nms, xi) for the aggregate."""
    return math.exp(a * math.log(c) + (a - 1.0) * math.log(g) - betaln(a, b)
                    - (a + b) * math.log1p(c * g))


def branch_density(p: FadingParams, g: float) -> float:
    return f_density(p.m, p.m_s, p.rate, g)


def sum_density(model: SumFadingModel, g: float) -> float:
    return f_density(model.nm, model.nms, model.xi, g)


def sum_cdf_hyp2f1(model: SumFadingModel, g: float) -> float:
    """Aggregate CDF through its hypergeometric form.

    (xi g)^(Nm) / (Nm B(Nm,Nms)) * 2F1(N(m+m_s), Nm; Nm + 1; -xi g), the
    density's integral term by term; an independent cross-check of
    :func:`sum_cdf` (scipy's generic hyp2f1, not its incomplete beta).
    """
    nm, nms, xi = model.nm, model.nms, model.xi
    front = math.exp(nm * math.log(xi * g) - math.log(nm) - betaln(nm, nms))
    return front * float(hyp2f1(nm + nms, nm, nm + 1.0, -xi * g))


def cdf_mean(f) -> float:
    """The mean of a law on g >= 0 from its CDF f: the integral of 1 - f."""
    return quad_unit(lambda g: 1.0 - f(g))


class TestParams:
    def test_shadowing_must_exceed_one(self):
        with pytest.raises(DomainError):
            FadingParams(m=2.0, m_s=1.0)
        with pytest.raises(DomainError):
            FadingParams(m=2.0, m_s=0.5)

    def test_positive_m_and_power(self):
        with pytest.raises(DomainError):
            FadingParams(m=0.0, m_s=5.0)
        with pytest.raises(DomainError):
            FadingParams(m=1.0, m_s=5.0, g_bar=-1.0)


class TestPdf:
    """The branch density, as the CDF carries it."""

    def test_closed_values(self):
        p = FadingParams(m=1.0, m_s=2.0, g_bar=1.0)
        # density 2 / (1+g)^3, CDF 1 - 1/(1+g)^2: slope 2 at the origin
        for g in (0.5, 1.0, 3.0):
            assert cdf(p, g) == pytest.approx(1.0 - (1.0 + g) ** -2, rel=1e-14)
        assert cdf(p, 1e-9) / 1e-9 == pytest.approx(2.0, rel=1e-8)

    def test_negative_g_rejected(self):
        with pytest.raises(DomainError):
            cdf(FadingParams(2.0, 5.0), -0.1)
        with pytest.raises(DomainError):
            sum_cdf(SumFadingModel(FadingParams(2.0, 5.0), 2), -0.1)

    def test_matches_meijer_route(self):
        # the density's integral to v, G^{1,1}_{1,1}[L g | 1-m_s; m] / g over
        # Gamma(m) Gamma(m_s), is G^{1,2}_{2,2}[L v | 1, 1-m_s; m, 0] over
        # the same
        p = FadingParams(m=2.0, m_s=5.0, g_bar=1.3)
        for v in (0.2, 1.0, 4.0):
            r = meijer_g(MeijerGSpec([1.0, 1.0 - p.m_s], [], [p.m], [0.0], p.rate * v))
            want = r.value / (math.gamma(p.m) * math.gamma(p.m_s))
            assert cdf(p, v) == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("m_s", [1.5, 2.0, 5.0, 20.0])
    def test_normalization(self, m, m_s):
        # the CDF of a unit mean power: 0 at the origin, and the integral of
        # its complement is the mean, 1
        p = FadingParams(m=m, m_s=m_s, g_bar=1.0)
        assert cdf(p, 0.0) == 0.0
        assert cdf_mean(lambda g: cdf(p, g)) == pytest.approx(1.0, abs=1e-8)


class TestCdf:
    def test_zero_and_limit(self):
        p = FadingParams(1.0, 2.0)
        assert cdf(p, 0.0) == 0.0
        assert cdf(p, 1e6) == pytest.approx(1.0, abs=1e-9)

    def test_closed_value(self):
        # integral of 2/(1+g)^3 over [0,1] = 1 - 1/4
        assert cdf(FadingParams(1.0, 2.0), 1.0) == pytest.approx(0.75, rel=1e-12)

    @pytest.mark.parametrize("v", [0.1, 1.0, 10.0])
    def test_matches_integrated_pdf(self, v):
        p = FadingParams(m=2.0, m_s=5.0, g_bar=1.0)
        want = quad(lambda g: branch_density(p, g), 0.0, v, limit=200)[0]
        assert cdf(p, v) == pytest.approx(want, abs=1e-8)

    def test_monotone(self):
        p = FadingParams(0.8, 3.0)
        v = np.linspace(0.0, 20.0, 50)
        f = cdf(p, v)
        assert np.all(np.diff(f) >= 0.0)
        assert np.all((f >= 0.0) & (f <= 1.0))


class TestSampling:
    def test_mean(self):
        p = FadingParams(m=2.0, m_s=5.0, g_bar=1.0)
        rng = np.random.default_rng(123)
        draws = sample(p, rng, size=10**6)
        assert draws.mean() == pytest.approx(1.0, abs=0.01)

    def test_ks_against_cdf(self):
        p = FadingParams(m=2.0, m_s=5.0, g_bar=1.0)
        rng = np.random.default_rng(2024)
        n = 10**5
        stat = ks_statistic(sample(p, rng, size=n), lambda x: cdf(p, x))
        assert stat < KS_CRIT_1PCT / math.sqrt(n)

    def test_seed_determinism(self):
        p = FadingParams(1.0, 5.0)
        a = sample(p, np.random.default_rng(77), size=1000)
        b = sample(p, np.random.default_rng(77), size=1000)
        assert np.array_equal(a, b)


class TestSumModel:
    def test_fields(self):
        model = SumFadingModel(FadingParams(2.0, 5.0), 8)
        assert model.nm == 16.0
        assert model.nms == 40.0
        assert model.xi == pytest.approx(2.0 / 40.0)
        assert math.exp(model.log_lambda_norm) == pytest.approx(
            model.xi / (math.gamma(16.0) * math.gamma(40.0)), rel=1e-12
        )

    @pytest.mark.parametrize("m,m_s,n", [(1e308, 5.0, 8), (1.0, 1e308, 8), (1e-300, 1e30, 1)])
    def test_shapes_or_scale_outside_doubles_rejected(self, m, m_s, n):
        # N m, N m_s or xi = m/(N m_s) leaves the positive finite doubles
        keys = f"n_cells = {n}, m = {m!r} and m_s = {m_s!r}"
        with pytest.raises(DomainError, match=re.escape(keys)):
            SumFadingModel(FadingParams(m, m_s), n)

    def test_lambda_norm_underflow_kept_in_logs(self):
        model = SumFadingModel(FadingParams(4.0, 5.0), 32)
        assert math.exp(model.log_lambda_norm) == 0.0
        assert np.isfinite(model.log_lambda_norm)

    def test_two_pdf_forms_agree(self):
        # the aggregate CDF against the integral of its density's 2F1 form
        for n, m, m_s in [(1, 1.0, 2.0), (2, 1.5, 3.0), (4, 0.7, 2.5)]:
            model = SumFadingModel(FadingParams(m, m_s), n)
            for g in (0.3, 1.0, 2.0):
                a = sum_cdf(model, g)
                b = sum_cdf_hyp2f1(model, g)
                assert b == pytest.approx(a, rel=1e-10)

    def test_normalizes(self):
        # the aggregate density integrates to 1, and the CDF to its partial
        # integrals
        model = SumFadingModel(FadingParams(1.0, 5.0), 8)
        assert quad_unit(lambda g: sum_density(model, g)) == pytest.approx(1.0, abs=1e-8)
        for v in (1.0, 8.0, 100.0):
            want = quad(lambda g: sum_density(model, g), 0.0, v, limit=200)[0]
            assert sum_cdf(model, v) == pytest.approx(want, abs=1e-8)
        assert sum_cdf(model, 1e8) == pytest.approx(1.0, abs=1e-12)

    def test_origin_behavior(self):
        model = SumFadingModel(FadingParams(2.0, 5.0), 2)
        assert sum_cdf(model, 0.0) == 0.0
        # near 0 the CDF is (xi g)^Nm / (Nm B(Nm, Nms))
        nm, g = model.nm, 1e-6
        origin = math.exp(nm * math.log(model.xi * g) - math.log(nm) - betaln(nm, model.nms))
        assert origin / sum_cdf(model, g) == pytest.approx(1.0, abs=1e-3)

    def test_origin_constant_case(self):
        # Nm = 1: the density at the origin, the CDF's slope there, is
        # xi / B(1, Nms) = 1.0 here
        model = SumFadingModel(FadingParams(1.0, 5.0), 1)
        assert sum_cdf(model, 1e-12) / 1e-12 == pytest.approx(1.0, rel=1e-10)

    def test_single_branch_correspondence(self):
        # the aggregate form at N=1 is the single-branch law whose mean
        # power makes the two scale parameters coincide:
        # L = m/((m_s-1) g_bar) = m/m_s  <=>  g_bar = m_s/(m_s-1)
        m, m_s = 1.5, 4.0
        model = SumFadingModel(FadingParams(m, m_s), 1)
        p = FadingParams(m, m_s, g_bar=m_s / (m_s - 1.0))
        for g in (0.1, 0.7, 2.0, 9.0):
            assert sum_cdf(model, g) == pytest.approx(cdf(p, g), rel=1e-10)
        assert model.mean() == pytest.approx(p.g_bar, rel=1e-15)

    def test_first_moment_vs_mc(self):
        model = SumFadingModel(FadingParams(1.0, 5.0), 4)
        mean_quad = cdf_mean(lambda g: sum_cdf(model, g))
        rng = np.random.default_rng(5150)
        n = 10**6
        draws = sample_sum(model, MODEL_DRAW, rng, size=n)
        se = draws.std(ddof=1) / math.sqrt(n)
        assert abs(mean_quad - draws.mean()) <= 3.0 * se
        assert mean_quad == pytest.approx(model.mean(), rel=1e-7)


class TestSampleSum:
    def test_modes_identical_at_n1(self):
        # matched mean power makes the two modes the same distribution
        m, m_s = 1.0, 5.0
        model = SumFadingModel(FadingParams(m, m_s, g_bar=m_s / (m_s - 1.0)), 1)
        rng = np.random.default_rng(99)
        n = 10**5
        a = np.sort(sample_sum(model, MODEL_DRAW, rng, size=n))
        b = np.sort(sample_sum(model, PHYSICAL_DRAW, rng, size=n))
        # two-sample sup distance
        allv = np.concatenate([a, b])
        fa = np.searchsorted(a, allv, side="right") / n
        fb = np.searchsorted(b, allv, side="right") / n
        stat = np.abs(fa - fb).max()
        assert stat < 0.009

    def test_physical_mean(self):
        model = SumFadingModel(FadingParams(1.0, 5.0, 1.0), 8)
        rng = np.random.default_rng(31337)
        draws = sample_sum(model, PHYSICAL_DRAW, rng, size=10**6)
        assert draws.mean() == pytest.approx(8.0, abs=0.1)

    def test_model_draw_ks(self):
        model = SumFadingModel(FadingParams(1.0, 5.0), 8)
        rng = np.random.default_rng(404)
        n = 10**5
        stat = ks_statistic(
            sample_sum(model, MODEL_DRAW, rng, size=n),
            lambda x: sum_cdf(model, x),
        )
        assert stat < 0.006

    def test_unknown_mode(self):
        model = SumFadingModel(FadingParams(1.0, 5.0), 2)
        with pytest.raises(DomainError):
            sample_sum(model, "bogus", np.random.default_rng(1))

    def test_determinism(self):
        model = SumFadingModel(FadingParams(2.0, 3.0), 4)
        a = sample_sum(model, PHYSICAL_DRAW, np.random.default_rng(8), size=256)
        b = sample_sum(model, PHYSICAL_DRAW, np.random.default_rng(8), size=256)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("size", [256, None])
    def test_summed_continues_the_branch_sum(self, size):
        # 2 branches, then 3 more onto them: one 5-branch call's bits and
        # generator state, where the sum is branch-major
        p = FadingParams(2.0, 3.0)
        rng, ref = np.random.default_rng(8), np.random.default_rng(8)
        total = sample_sum(SumFadingModel(p, 2), PHYSICAL_DRAW, rng, size=size)
        got = sample_sum(SumFadingModel(p, 5), PHYSICAL_DRAW, rng, size=size, out=total,
                         summed=2)
        want = sample_sum(SumFadingModel(p, 5), PHYSICAL_DRAW, ref, size=size)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state
        if size is not None:
            assert got is total

    @pytest.mark.parametrize("summed", [-1, 3])
    def test_summed_outside_the_branches(self, summed):
        model = SumFadingModel(FadingParams(2.0, 3.0), 2)
        with pytest.raises(DomainError, match="outside 0..N = 2"):
            sample_sum(model, PHYSICAL_DRAW, np.random.default_rng(1), size=4,
                       out=np.zeros(4), summed=summed)


class TestPinnedStreams:
    """The first draws at a fixed seed, as repr literals: a reordered
    gamma pair or a rescaled ratio changes them, where the statistical
    tests above would not notice."""

    def test_sample(self):
        p = FadingParams(1.5, 4.0, g_bar=2.0)
        draws = sample(p, np.random.default_rng(2024), size=4)
        assert draws.tolist() == [
            1.279654979621855, 2.3009517810214724, 0.44859795322485124, 2.516537013328231,
        ]
        assert sample(p, np.random.default_rng(2024)) == 1.6860483410232339

    @pytest.mark.parametrize("mode,want", [
        (MODEL_DRAW,
         [2.7975483289451826, 3.850108855453934, 2.0487408300098924, 4.02614867624656]),
        (PHYSICAL_DRAW,
         [1.396914815368974, 2.4839348572336615, 3.130413475975213, 2.7696259961973664]),
    ])
    def test_sample_sum(self, mode, want):
        model = SumFadingModel(FadingParams(2.0, 5.0), 3)
        assert sample_sum(model, mode, np.random.default_rng(2024), size=4).tolist() == want
