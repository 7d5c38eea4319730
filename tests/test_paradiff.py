import numpy as np
import pytest

from hypdiss.errors import GridMismatch, InvalidEpsilon, InvalidParameter, PrecheckFailed
from hypdiss.paradiff import (
    AMPLITUDES,
    DiscreteSymbol,
    GridFunction,
    Lattice,
    SeparableFamily,
    apply_op,
    check_adjoint_product_errors,
    check_garding,
    cutoff_mask,
    lp_decompose,
    make_cutoff,
    op_matrix,
    operator_sobolev_norm,
    para_op,
    separable_symbol,
    smooth_symbol,
    sobolev_weights,
    symbol_product,
)

LAT = Lattice(d=1, N=128)
CHI = make_cutoff(0.2, 0.5)
X = LAT.x_vectors()[:, 0]


def bracket(xi):
    return np.sqrt(1.0 + np.sum(xi**2, axis=1))


def bump_function(scale=1.0, width=0.6):
    return GridFunction(LAT, scale * np.exp(-((X - np.pi) ** 2) / (2 * width**2)) + 0j)


def powerlaw_state(p=2.0):
    # state with algebraically decaying spectrum, so cut-off tails are visible
    mags = LAT.xi_mags()
    coeff = (1.0 + mags) ** (-p)
    vals = LAT.ifft(coeff[:, None].astype(complex))
    vals = vals.real
    return (vals / np.abs(vals).max())[:, 0]


class TestCutoff:
    def test_plateau_and_support(self):
        assert CHI(0.0, 2.0) == 1.0
        assert CHI(0.3, 2.0) == 1.0          # |eta| <= eps1 |xi|
        assert CHI(0.0, 0.5) == 0.0          # |xi| <= eps2
        assert CHI(2.0, 2.0) == 0.0          # |eta| >= eps2 <xi>
        vals = CHI(np.linspace(0, 3, 100), np.full(100, 2.0))
        assert np.all((0.0 <= vals) & (vals <= 1.0))

    def test_evenness(self):
        rng = np.random.default_rng(0)
        eta = rng.uniform(-5, 5, size=50)
        xi = rng.uniform(-5, 5, size=50)
        assert np.allclose(CHI(eta, xi), CHI(-eta, xi))
        assert np.allclose(CHI(eta, xi), CHI(eta, -xi))

    def test_derivative_decay_along_rays(self):
        # |d chi / d eta| and |d chi / d xi| decay at least like <xi>^{-1}
        rng = np.random.default_rng(1)
        h = 1e-5
        worst = 0.0
        for _ in range(100):
            direction = rng.uniform(0.0, 0.45)
            for scale in (2.0, 8.0, 32.0, 128.0):
                eta = direction * scale
                br = np.sqrt(1 + scale**2)
                deta = (CHI(eta + h, scale) - CHI(eta - h, scale)) / (2 * h)
                dxi = (CHI(eta, scale + h) - CHI(eta, scale - h)) / (2 * h)
                worst = max(worst, abs(deta) * br, abs(dxi) * br)
        assert worst < 20.0

    def test_invalid_epsilons(self):
        with pytest.raises(InvalidEpsilon):
            make_cutoff(0.5, 0.2)
        with pytest.raises(InvalidEpsilon):
            make_cutoff(0.0, 0.5)


class TestSmoothing:
    def test_constant_in_x(self):
        a = separable_symbol(LAT, np.ones(LAT.points), lambda v: bracket(v))
        sm = smooth_symbol(a, cutoff_mask(LAT, CHI))
        ximag = np.abs(LAT.xi_vectors()[:, 0])
        expect = CHI(0.0, ximag) * bracket(LAT.xi_vectors())
        assert np.abs(sm.values[:, :, 0, 0] - expect[None, :]).max() < 1e-12
        high = ximag >= 1.0
        assert np.abs(sm.values[:, high, 0, 0] - expect[None, high]).max() < 1e-13

    def test_single_mode_annihilated(self):
        # A(x, xi) = e^{i eta x} with |eta| >= eps2 <xi> is wiped out
        k = 40  # eta = 40 >= 0.5 <xi> for every lattice xi (max <xi> ~ 64)
        gx = np.exp(1j * k * X)
        ximag = np.abs(LAT.xi_vectors()[:, 0])
        sel = 40 >= CHI.eps2 * np.sqrt(1 + ximag**2)
        a = separable_symbol(LAT, gx, lambda v: np.ones(len(v)))
        sm = smooth_symbol(a, cutoff_mask(LAT, CHI))
        assert np.abs(sm.values[:, sel]).max() < 1e-12

    def test_forbidden_region_spectrum_vanishes(self):
        gx = np.exp(np.cos(X))
        a = separable_symbol(LAT, gx, bracket)
        sm = smooth_symbol(a, cutoff_mask(LAT, CHI))
        hat = LAT.fft(sm.values[:, :, 0, 0])
        eta = LAT.xi_mags()
        br = LAT.brackets()
        forbidden = eta[:, None] >= CHI.eps2 * br[None, :]
        scale = np.abs(sm.values).max()
        assert np.abs(hat[forbidden]).max() / scale < 1e-12

    @pytest.mark.parametrize("lat", [LAT, Lattice(d=2, N=9)], ids=["d1-N128", "d2-N9"])
    def test_mask_matches_chi_evaluated_directly(self, lat):
        # the mask formed once smooths bit for bit as chi(|eta|, |xi|) does
        x = lat.x_vectors()
        a = separable_symbol(lat, np.exp(np.cos(x).sum(axis=1)), bracket)
        mags = lat.xi_mags()
        chi = CHI(mags[:, None], mags[None, :])
        want = lat.ifft(lat.fft(a.values) * chi[:, :, None, None])
        mask = cutoff_mask(lat, CHI)
        assert mask.shape == (lat.points, lat.points)
        assert np.array_equal(smooth_symbol(a, mask).values, want)

    def test_order_reduction_of_smoothing_error(self):
        # for A = f(x) <xi> with algebraically decaying f-spectrum the
        # residual R(A) - A grows one order slower than A along xi
        f = powerlaw_state(2.0)
        a = separable_symbol(LAT, f, bracket)
        sm = smooth_symbol(a, cutoff_mask(LAT, CHI))
        resid = np.abs(sm.values - a.values)[:, :, 0, 0].max(axis=0)
        amax = np.abs(a.values)[:, :, 0, 0].max(axis=0)
        ximag = np.abs(LAT.xi_vectors()[:, 0])
        slopes = []
        base = []
        for lo, hi in ((4, 8), (8, 16), (16, 32)):
            ilo = int(np.argmin(np.abs(ximag - lo)))
            ihi = int(np.argmin(np.abs(ximag - hi)))
            slopes.append(np.log2(resid[ihi] / resid[ilo]))
            base.append(np.log2(amax[ihi] / amax[ilo]))
        assert np.mean(base) > 0.8          # the symbol itself grows like <xi>
        assert np.mean(slopes) < np.mean(base) - 0.7  # residual one order lower


class TestApplyOp:
    def test_identity(self):
        rng = np.random.default_rng(5)
        f = GridFunction(LAT, rng.normal(size=(LAT.points, 1)) + 0j)
        one = separable_symbol(LAT, np.ones(LAT.points), lambda v: np.ones(len(v)))
        assert np.abs(apply_op(one, f).values - f.values).max() < 1e-12

    def test_fourier_derivative(self):
        f = GridFunction(LAT, np.exp(1j * X))
        d = separable_symbol(LAT, np.ones(LAT.points), lambda v: 1j * v[:, 0])
        got = apply_op(d, f).values[:, 0]
        assert np.abs(got - 1j * np.exp(1j * X)).max() < 1e-12

    def test_multiplication_degenerate_case(self):
        g = np.cos(X)
        f = GridFunction(LAT, np.sin(2 * X) + 0j)
        got = apply_op(separable_symbol(LAT, g, lambda v: np.ones(len(v))), f).values[:, 0]
        assert np.abs(got - g * np.sin(2 * X)).max() < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(6)
        a = separable_symbol(LAT, np.exp(np.sin(X)), bracket)
        f = GridFunction(LAT, rng.normal(size=(LAT.points, 1)) + 0j)
        g = GridFunction(LAT, rng.normal(size=(LAT.points, 1)) + 0j)
        left = apply_op(a, GridFunction(LAT, 2.0 * f.values + 3.0 * g.values)).values
        right = 2.0 * apply_op(a, f).values + 3.0 * apply_op(a, g).values
        assert np.abs(left - right).max() < 1e-12 * max(1.0, np.abs(right).max())

    def test_grid_mismatch(self):
        other = Lattice(d=1, N=64)
        f = GridFunction(other, np.zeros(64) + 0j)
        a = separable_symbol(LAT, np.ones(LAT.points), lambda v: np.ones(len(v)))
        with pytest.raises(GridMismatch):
            apply_op(a, f)

    def test_scalar_and_matrix_factors_do_not_mix(self):
        # a scalar factor is a 1 x 1 matrix; a 2 x 2 symbol needs two stacks
        eye = lambda v: np.broadcast_to(np.eye(2), (len(v), 2, 2))
        with pytest.raises(GridMismatch):
            separable_symbol(LAT, np.ones(LAT.points), eye)
        two = separable_symbol(LAT, np.ones((LAT.points, 2, 2)) * np.eye(2), eye)
        assert two.n == 2 and np.array_equal(two.values[0, 0], np.eye(2))

    def test_phase_matrix_not_retained(self):
        # once apply_op returns, no P x P phase matrix is held anywhere
        import tracemalloc

        lat = Lattice(d=2, N=16)
        P = lat.points
        a = separable_symbol(lat, np.ones(lat.points), lambda v: np.ones(len(v)))
        f = GridFunction(lat, np.ones((P, 1)) + 0j)
        tracemalloc.start()
        try:
            out = apply_op(a, f)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.abs(out.values - f.values).max() < 1e-12
        assert held < P**2 * 16


    def test_cutoff_mask_not_retained(self):
        # an EnergyForm owns its (P, Q) cut-off: once the form is dropped no
        # array of that size is held anywhere (no cache outlives its owner)
        import gc
        import tracemalloc

        from hypdiss.model import model_from_dict
        from hypdiss.simulator import EnergyForm, LinearPart, PeriodicBumpData, initial_state

        m = model_from_dict({"n": 1, "d": 1, "reference_state": [0.0],
                             "A": {"0": [[1.0]], "1": [[[[0.5, 0], [1.0, 1]]]]},
                             "B": {"0,0": [[-1.0]], "1,1": [[1.0]]}})
        lat = Lattice(d=1, N=256)
        P = lat.points
        linear = LinearPart(m, lat)
        st = initial_state(linear, PeriodicBumpData(amplitude=1e-2))
        tracemalloc.start()
        try:
            form = EnergyForm(linear)
            assert form.cutoff.shape == (P, len(linear.xi))
            value = form.value(st)
            del form
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(value)
        assert held < P * len(linear.xi) * 8 // 4


class TestParaOp:
    def test_constant_symbol_high_frequencies_exact(self):
        # for x-independent symbols para and exact quantization agree on all
        # lattice frequencies with chi(0, xi) = 1
        b = separable_symbol(LAT, np.ones(LAT.points), lambda v: bracket(v))
        rng = np.random.default_rng(7)
        f = GridFunction(LAT, rng.normal(size=(LAT.points, 1)) + 0j)
        exact = apply_op(b, f)
        para = para_op(b, CHI, f)
        dh = LAT.fft(exact.values - para.values)
        ximag = np.abs(LAT.xi_vectors()[:, 0])
        assert np.abs(dh[ximag >= 1.0]).max() < 1e-12
        # and they genuinely differ at low frequencies
        assert np.abs(dh[ximag < 0.5]).max() > 1e-8

    def test_para_product_bound(self):
        # || g f - Op[g] f ||_k controlled by ||g||_{H^k} ||f||_inf +
        # ||g||_{W^{1,inf}} ||f||_{H^{k-1}}
        k = 1.0
        rng = np.random.default_rng(8)
        for scale in (1.0, 0.3):
            g = scale * np.exp(np.cos(X))
            f = GridFunction(LAT, (np.sin(3 * X) + 0.2 * rng.normal(size=LAT.points)) + 0j)
            gf = GridFunction(LAT, g[:, None] * f.values)
            pa = para_op(separable_symbol(LAT, g, lambda v: np.ones(len(v))), CHI, f)
            lhs = GridFunction(LAT, gf.values - pa.values).sobolev_norm(k)
            gfun = GridFunction(LAT, g + 0j)
            dg = apply_op(separable_symbol(LAT, np.ones(LAT.points), lambda v: 1j * v[:, 0]), gfun)
            g_w1inf = max(np.abs(g).max(), np.abs(dg.values).max())
            rhs = gfun.sobolev_norm(k) * np.abs(f.values).max() + g_w1inf * f.sobolev_norm(k - 1.0)
            assert lhs <= 10.0 * rhs

    def test_zero_function(self):
        a = separable_symbol(LAT, np.exp(np.cos(X)), bracket)
        f = GridFunction(LAT, np.zeros(LAT.points) + 0j)
        assert np.abs(para_op(a, CHI, f).values).max() == 0.0


class TestLittlewoodPaley:
    def test_exact_reconstruction(self):
        a = separable_symbol(LAT, np.exp(np.cos(X)), bracket)
        parts = lp_decompose(a)
        rec = sum(p.values for p in parts)
        assert np.abs(rec - a.values).max() < 1e-13

    def test_annulus_membership(self):
        vals = np.zeros((LAT.points, LAT.points), dtype=complex)
        k32 = int(np.where(np.isclose(LAT.xi_vectors()[:, 0], 32.0))[0][0])
        vals[:, k32] = 1.0
        parts = lp_decompose(DiscreteSymbol(LAT, vals))
        live = [nu for nu, p in enumerate(parts, start=-1) if np.abs(p.values).max() > 0]
        assert set(live) <= {4, 5}

    def test_dyadic_derivative_bound(self):
        # sup |d_xi a_nu| <= C 2^{nu (m-1)} for a symbol of order m = 1
        f = powerlaw_state(2.0)
        a = separable_symbol(LAT, f, bracket)
        parts = lp_decompose(a)
        ximag = LAT.xi_vectors()[:, 0]
        order = np.argsort(ximag)
        dxi = np.diff(ximag[order]).mean()
        sups = {}
        for nu, p in enumerate(parts, start=-1):
            if nu < 2:
                continue
            vals = p.values[:, order, 0, 0]
            dv = np.abs(np.diff(vals, axis=1) / dxi).max()
            if dv > 0:
                sups[nu] = dv
        nus = sorted(sups)[-3:]  # asymptotic dyadic regime
        slopes = [np.log2(sups[b] / sups[a]) / (b - a) for a, b in zip(nus[:-1], nus[1:])]
        assert max(slopes) < 0.3  # m - 1 = 0 plus tolerance
        # and the symbol itself grows a full order faster
        amax = {nu: np.abs(p.values).max() for nu, p in enumerate(parts, start=-1)}
        growth = np.log2(amax[nus[-1]] / amax[nus[0]]) / (nus[-1] - nus[0])
        assert growth > 0.7


class TestOperatorNorms:
    def test_multiplication_norm_is_max_abs(self):
        # the L2 norm of multiplication by g is max |g|; the two largest
        # values differ by 1e-4 relative, a cluster an iterative estimate
        # resolves only slowly
        rng = np.random.default_rng(9)
        g = rng.uniform(0.1, 0.5, size=LAT.points)
        g[17], g[80] = 2.0, 2.0 * (1.0 - 1e-4)
        T = op_matrix(separable_symbol(LAT, g, lambda v: np.ones(len(v))))
        assert operator_sobolev_norm(T, LAT, 0.0, 0.0) == pytest.approx(2.0, rel=1e-12)

    def test_non_finite_operator_refused(self):
        g = np.exp(np.cos(X))
        g[5] = np.nan
        T = op_matrix(separable_symbol(LAT, g, lambda v: np.ones(len(v))))
        with pytest.raises(InvalidParameter, match="not finite"):
            operator_sobolev_norm(T, LAT, 0.0, 0.0)

    def test_adjoint_self_consistency(self):
        # the norm oracle agrees on M and M^H
        g = np.exp(np.cos(X))
        T = op_matrix(separable_symbol(LAT, g, lambda v: np.ones(len(v))))
        n1 = operator_sobolev_norm(T, LAT, 0.0, 0.0)
        n2 = operator_sobolev_norm(T.conj().T, LAT, 0.0, 0.0)
        assert n1 == pytest.approx(n2, abs=1e-6 * max(n1, 1.0))

    def test_op_matrix_consistency(self):
        # the matrix acts on Fourier coefficients; the bound is the old 1e-11
        # on samples (largest 161) scaled to the coefficients (largest 10.3)
        rng = np.random.default_rng(10)
        a = separable_symbol(LAT, np.exp(np.sin(X)), bracket)
        T = op_matrix(a)
        f = GridFunction(LAT, rng.normal(size=(LAT.points, 1)) + 0j)
        assert np.abs(T @ f.hat()[:, 0] - apply_op(a, f).hat()[:, 0]).max() < 6e-13


class TestScalingChecks:
    def test_zero_state_errors_vanish(self):
        F = SeparableFamily(lambda uv: uv[:, 0], bracket, 1.0)
        G = SeparableFamily(lambda uv: 1.0 + uv[:, 0], bracket, 1.0)
        u0 = GridFunction(LAT, np.zeros(LAT.points) + 0j)
        rep = check_adjoint_product_errors(F, G, CHI, u0, amplitudes=(1.0, 0.5))
        assert rep.adjoint_norms.max() < 1e-10
        assert rep.product_norms.max() < 1e-10

    def test_linear_scaling_slopes(self):
        F = SeparableFamily(lambda uv: uv[:, 0], bracket, 1.0)
        G = SeparableFamily(lambda uv: 1.0 + uv[:, 0], bracket, 1.0)
        u0 = bump_function(scale=0.5)
        rep = check_adjoint_product_errors(F, G, CHI, u0)
        assert abs(rep.adjoint_slope - 1.0) <= 0.2
        assert abs(rep.product_slope - 1.0) <= 0.2

    def test_product_error_one_order_lower(self):
        # ||Op[G]Op[F]|| / ||error|| grows about like <xi_max> under refinement
        ratios = []
        for N in (64, 128):
            lat = Lattice(d=1, N=N)
            x = lat.x_vectors()[:, 0]
            u0 = GridFunction(lat, 0.5 * np.exp(-((x - np.pi) ** 2) / (2 * 0.6**2)) + 0j)
            F = SeparableFamily(lambda uv: uv[:, 0], bracket, 1.0)
            G = SeparableFamily(lambda uv: 1.0 + uv[:, 0], bracket, 1.0)
            mask = cutoff_mask(lat, CHI)
            AF = smooth_symbol(F.symbol(lat, u0.values), mask)
            AG = smooth_symbol(G.symbol(lat, u0.values), mask)
            TF, TG = op_matrix(AF), op_matrix(AG)
            TGF = op_matrix(smooth_symbol(symbol_product(G.symbol(lat, u0.values), F.symbol(lat, u0.values)), mask))
            # both measured H^1 -> H^0: the order-2 product grows like
            # <xi_max> there while the order-1 error stays bounded
            err = operator_sobolev_norm(TG @ TF - TGF, lat, 0.0, 1.0, 1)
            big = operator_sobolev_norm(TG @ TF, lat, 0.0, 1.0, 1)
            ratios.append(big / err)
        growth = ratios[1] / ratios[0]
        assert 1.4 < growth < 3.0


class TestGarding:
    def test_positive_multiplier_nonnegative(self):
        F = SeparableFamily(lambda uv: np.ones(len(uv)), bracket, 1.0)
        u0 = bump_function()
        rep = check_garding(F, u0, CHI)
        assert not rep.any_negativity

    def test_precheck_failure(self):
        F = SeparableFamily(lambda uv: -np.ones(len(uv)), bracket, 1.0)
        with pytest.raises(PrecheckFailed):
            check_garding(F, bump_function(), CHI)

    def test_each_symbol_is_built_once(self):
        # the u = 0 symbol for the smoothing tail, then one per amplitude,
        # shared by the precheck and the form
        calls = []

        def state_factor(uv):
            calls.append(1)
            return 1.0 + uv[:, 0] ** 2

        check_garding(SeparableFamily(state_factor, bracket, 1.0), bump_function(), CHI)
        assert len(calls) == 1 + len(AMPLITUDES)

    @pytest.mark.parametrize("name,family,exact", [
        ("skew", SeparableFamily(lambda uv: 1j * uv[:, 0], bracket, 1.0), True),
        ("positive", SeparableFamily(lambda uv: 1.0 + uv[:, 0] ** 2, bracket, 1.0), True),
        ("negative-at-0", SeparableFamily(lambda uv: np.where(uv[:, 0] == 0.0, -1.0, 1.0),
                                          bracket, 1.0), False),
    ])
    def test_smoothing_constant_matches_the_dense_form(self, name, family, exact):
        # the u = 0 multiplier's n x n blocks give the dense P x P form's top
        # eigenvalue: bit for bit where it clips to 0, to rounding otherwise
        # (the third family is -<xi> at u = 0 only, where c0 is large)
        u0 = bump_function()
        T = op_matrix(smooth_symbol(family.symbol(LAT, 0.0 * u0.values), cutoff_mask(LAT, CHI)))
        G = sobolev_weights(LAT, 2.0)[:, None] * -(T + T.conj().T) * sobolev_weights(LAT, 2.0)
        want = max(float(np.linalg.eigvalsh(0.5 * (G + G.conj().T))[-1]), 0.0) * 1.05 + 1e-14
        got = check_garding(family, u0, CHI).smoothing_constant
        if exact:
            assert got == want == 1e-14
        else:
            assert got == pytest.approx(want, rel=1e-12) and got > 1.0

    def test_positive_family_bound_shrinks(self):
        # F = (1 + y^2) <xi>: the measured bound goes to zero with the state
        F = SeparableFamily(lambda uv: 1.0 + uv[:, 0] ** 2, bracket, 1.0)
        rep = check_garding(F, bump_function(), CHI)
        assert rep.negativity[0] >= rep.negativity[-1]

    def test_skew_family_linear_scaling(self):
        F = SeparableFamily(lambda uv: 1j * uv[:, 0], bracket, 1.0)
        rep = check_garding(F, bump_function(), CHI)
        assert rep.any_negativity
        assert rep.negativity_slope == pytest.approx(1.0, abs=0.1)
        assert -0.1 <= rep.constant_slope <= 0.7

    @pytest.mark.parametrize("order", [1.0, 2.0])
    def test_negativity_is_the_worst_rayleigh_quotient(self, order):
        # no test function, full-band or band-limited, beats the reported
        # constant, and the top eigenvector of the weighted form attains it
        F = SeparableFamily(lambda uv: 1j * uv[:, 0], lambda v: bracket(v) ** order, order)
        u0 = bump_function()
        rep = check_garding(F, u0, CHI)
        c0 = rep.smoothing_constant
        rng = np.random.default_rng(2)
        band = LAT.xi_mags() <= LAT.xi_mags().max() / 3.0
        halfw = 0.5 * (F.order - 1.0)
        whalf = sobolev_weights(LAT, -halfw)
        wq = sobolev_weights(LAT, -2.0)

        def quotient(S, c):
            # S acts on the Fourier coefficients c of v
            v = GridFunction(LAT, LAT.ifft(c[:, None]))
            q = float(np.real(np.vdot(c, S @ c))) * LAT.L_box
            return (-q - c0 * v.sobolev_norm(-2.0) ** 2) / v.sobolev_norm(halfw) ** 2

        for k, a in enumerate(rep.amplitudes):
            T = op_matrix(smooth_symbol(F.symbol(LAT, a * u0.values), cutoff_mask(LAT, CHI)))
            S = T + T.conj().T
            for mask in (np.ones(LAT.points, dtype=bool), band):
                for _ in range(8):
                    c = np.zeros(LAT.points, dtype=complex)
                    c[mask] = rng.normal(size=mask.sum()) + 1j * rng.normal(size=mask.sum())
                    assert quotient(S, c) <= rep.negativity[k] * (1 + 1e-9)
            G = whalf[:, None] * (-S - np.diag(c0 * wq**2)) * whalf
            top = np.linalg.eigh(0.5 * (G + G.conj().T))[1][:, -1]
            assert quotient(S, whalf * top) == pytest.approx(rep.negativity[k], rel=1e-9)

    def test_high_frequency_mode_refinement(self):
        # a single high-frequency test mode sees vanishing negativity under
        # grid refinement for a nonnegative multiplier family
        vals = []
        for N in (64, 128):
            lat = Lattice(d=1, N=N)
            x = lat.x_vectors()[:, 0]
            u0 = GridFunction(lat, 0.5 * np.exp(-((x - np.pi) ** 2) / 0.72) + 0j)
            F = SeparableFamily(lambda uv: 1.0 + uv[:, 0] ** 2, bracket, 1.0)
            sym = smooth_symbol(F.symbol(lat, u0.values), cutoff_mask(lat, CHI))
            T = op_matrix(sym)
            S = T + T.conj().T
            kmax = int(np.argmax(lat.xi_vectors()[:, 0]))
            v = np.zeros(lat.points, dtype=complex)
            v[kmax] = 1.0
            q = float(np.real(np.vdot(v, S @ v)) * lat.L_box)
            nh = GridFunction(lat, lat.ifft(v[:, None])).sobolev_norm(0.0) ** 2
            vals.append(max(0.0, -q) / nh)
        assert vals[1] <= vals[0] + 1e-12


def test_grid_function_roundtrip_fft():
    rng = np.random.default_rng(12)
    vals = rng.normal(size=(LAT.points, 3)) + 1j * rng.normal(size=(LAT.points, 3))
    back = LAT.ifft(LAT.fft(vals))
    assert np.abs(back - vals).max() < 1e-12


@pytest.mark.parametrize("d, N", [(1, 16), (1, 15), (2, 8), (3, 5), (3, 6)])
def test_half_spectrum_is_the_full_transform_with_nonnegative_last_index(d, N):
    # components leading; the last lattice axis keeps indices 0 .. N // 2,
    # which xi_vectors(half=True) labels as nonnegative (an even N's Nyquist too)
    lat = Lattice(d=d, N=N)
    v = np.random.default_rng(N).normal(size=(2, lat.points))
    half = lat.fft(v, half=True)
    full = lat.fft(v.T).T.reshape((2,) + (N,) * d)[..., : N // 2 + 1].reshape(2, -1)
    assert np.abs(half - full).max() < 1e-15
    xi = lat.xi_vectors().T.reshape((d,) + (N,) * d)[..., : N // 2 + 1].reshape(d, -1).T
    assert np.array_equal(np.abs(lat.xi_vectors(half=True)), np.abs(xi))
    assert np.all(lat.xi_vectors(half=True)[:, -1] >= 0.0)
    back = lat.ifft(half, half=True)
    assert back.dtype == float and np.abs(back - v).max() < 1e-14


@pytest.mark.parametrize("name", ["fft", "ifft"])
def test_complex_transform_scales_in_place(name):
    # d = 1: the output is the only field-sized array the transform holds,
    # and it equals numpy's transform scaled by 1 / P (fft) or P (ifft)
    import tracemalloc

    lat = Lattice(d=1, N=256)
    rng = np.random.default_rng(4)
    v = rng.normal(size=(lat.points, 50, 4, 4)) + 1j * rng.normal(size=(lat.points, 50, 4, 4))
    tracemalloc.start()
    try:
        out = getattr(lat, name)(v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * v.nbytes
    raw = np.fft.fft(v, axis=0) / lat.points if name == "fft" else np.fft.ifft(v, axis=0) * lat.points
    assert np.array_equal(out, raw)
