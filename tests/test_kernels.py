"""Closed-form kernel identities, conservation, and slice round-trips."""

import decimal
import math

import numpy as np
import pytest

from halfheat import kernels
from halfheat.errors import DomainError, ParameterError, WrongOperatorError
from halfheat.kernels import (
    WEIGHTED_CONVENTION,
    KernelSlice,
    bessel_heat_kernel,
    exact_slice,
    product_kernel,
    tensor_kernel,
    write_csv,
)
from halfheat.operators import ModelOperatorSpec
from halfheat.quadrature import halfspace_nodes, y_weighted_nodes


def model(c, a=0.0, n=1):
    return ModelOperatorSpec(n=n, a=np.full(n, a), c=c)


def count_fallback(monkeypatch):
    """Record every value that kernels._g17 hands to Python's `%`."""
    seen = []
    fallback = kernels._g17_fallback

    def counting(values):
        seen.extend(np.asarray(values).tolist())
        return fallback(values)
    monkeypatch.setattr(kernels, "_g17_fallback", counting)
    return seen


class TestBesselKernel:
    def test_c0_is_reflected_gaussian(self):
        t = 0.8
        y1 = np.linspace(0.05, 4.0, 40)
        y2 = 1.3
        got = bessel_heat_kernel(0.0, t, y1, y2)
        ref = (4 * np.pi * t) ** -0.5 * (
            np.exp(-((y1 - y2) ** 2) / (4 * t)) + np.exp(-((y1 + y2) ** 2) / (4 * t))
        )
        assert got == pytest.approx(ref, rel=1e-12)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            c = float(rng.uniform(-0.9, 3.0))
            t = float(rng.uniform(0.05, 5.0))
            y1, y2 = rng.uniform(0.01, 8.0, 2)
            assert bessel_heat_kernel(c, t, y1, y2) == bessel_heat_kernel(c, t, y2, y1)

    @pytest.mark.parametrize("c", [-0.5, 0.0, 1.0, 2.0])
    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("y1", [0.05, 1.0, 5.0])
    def test_conservation_quadrature(self, c, t, y1):
        y2, w = y_weighted_nodes(c, y1 + 14.0 * np.sqrt(t))
        mass = np.dot(w, bessel_heat_kernel(c, t, y1, y2))
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_positive_and_finite(self):
        y = np.geomspace(1e-3, 50.0, 200)
        for c in (-0.99, -0.5, 0.0, 2.0, 5.0):
            v = bessel_heat_kernel(c, 1.0, y, 0.7)
            assert np.all(np.isfinite(v))
            assert np.all(v >= 0.0)

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            bessel_heat_kernel(-1.0, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            bessel_heat_kernel(0.0, -1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            bessel_heat_kernel(0.0, 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("side", ["y1", "y2"])
    def test_non_finite_y_rejected(self, bad, side):
        ys = {"y1": np.array([0.5, 1.0]), "y2": 1.0}
        ys[side] = np.array([0.5, bad]) if side == "y1" else bad
        with pytest.raises(DomainError, match="finite"):
            bessel_heat_kernel(0.5, 1.0, ys["y1"], ys["y2"])


class TestProductKernel:
    def test_n1_c0_product_of_gaussians(self):
        m = model(0.0)
        z1, z2 = np.array([0.7, 1.1]), np.array([-0.4, 0.3])
        t = 0.6
        gx = (4 * np.pi * t) ** -0.5 * np.exp(-((z1[0] - z2[0]) ** 2) / (4 * t))
        assert product_kernel(m, t, z1, z2) == pytest.approx(
            gx * bessel_heat_kernel(0.0, t, z1[1], z2[1]), rel=1e-13
        )

    def test_scaling_identity(self):
        rng = np.random.default_rng(1)
        for c in (-0.5, 0.0, 1.7):
            m = model(c)
            for _ in range(10):
                z1 = np.array([rng.uniform(-3, 3), rng.uniform(0.05, 5)])
                z2 = np.array([rng.uniform(-3, 3), rng.uniform(0.05, 5)])
                t, s = rng.uniform(0.1, 2.0), rng.uniform(0.3, 3.0)
                lhs = product_kernel(m, s * s * t, s * z1, s * z2)
                rhs = s ** -(2.0 + c) * product_kernel(m, t, z1, z2)
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_translation_exact(self):
        m = model(1.0)
        z1, z2 = np.array([0.2, 0.9]), np.array([1.0, 2.0])
        shift = np.array([13.7, 0.0])
        # invariance is exact analytically; floats shift by an ulp in x1-x2
        assert product_kernel(m, 1.0, z1 + shift, z2 + shift) == pytest.approx(
            product_kernel(m, 1.0, z1, z2), rel=1e-12
        )

    def test_wrong_operator(self):
        with pytest.raises(WrongOperatorError):
            product_kernel(model(0.0, a=0.5), 1.0, np.array([0, 1.0]), np.array([0, 1.0]))

    @pytest.mark.parametrize("t", [np.inf, np.nan, -np.inf])
    def test_non_finite_time_rejected(self, t):
        z1, z2 = np.array([[0.0, 1.0], [0.5, 2.0]]), np.array([0.0, 1.0])
        with pytest.raises(DomainError, match="finite"):
            product_kernel(model(0.5), t, z1, z2)
        with pytest.raises(DomainError, match="finite"):
            exact_slice(model(0.5), t, z2, z1)

    def test_points_need_n_plus_one_coordinates(self):
        with pytest.raises(DomainError, match="points must have 2 coordinates"):
            product_kernel(model(0.5), 1.0, np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0]))

    def test_n2_supported(self):
        m = model(1.0, n=2)
        z1 = np.array([0.1, -0.2, 0.5])
        z2 = np.array([0.0, 0.3, 1.0])
        v = product_kernel(m, 0.5, z1, z2)
        assert np.isfinite(v) and v > 0.0

    @pytest.mark.parametrize("ts", [(0.5, 0.5), (0.25, 1.0)])
    def test_chapman_kolmogorov(self, ts):
        t, s = ts
        rng = np.random.default_rng(6)
        m = model(1.0)
        st = np.sqrt(max(t, s))
        for _ in range(10):
            z1 = np.array([rng.uniform(-1, 1), rng.uniform(0.1, 2.0)])
            z2 = np.array([rng.uniform(-1, 1), rng.uniform(0.1, 2.0)])
            (xs, wx), (ys, wy) = halfspace_nodes(
                m.c, x_extent=10 * st, y_extent=max(z1[1], z2[1]) + 10 * st,
                n_x=160, n_panel=28, x_center=0.5 * (z1[0] + z2[0]),
            )
            x, y = np.meshgrid(xs, ys, indexing="ij")
            mid = np.column_stack([x.ravel(), y.ravel()])
            comp = np.dot(np.outer(wx, wy).ravel(), product_kernel(m, t, z1[None, :], mid)
                          * product_kernel(m, s, mid, z2[None, :]))
            direct = product_kernel(m, t + s, z1, z2)
            assert comp == pytest.approx(direct, rel=1e-6)


class TestTensorKernel:
    @pytest.mark.parametrize("c", [-0.5, 0.0, 1.7])
    @pytest.mark.parametrize("t,z2", [
        (0.5, (0.2, 0.7)),
        (2.0, (-0.3, 1e-3)),  # xi = y y2 / (2t) < 1e-4 near y = 0: the series branch
    ])
    def test_equals_product_kernel(self, c, t, z2):
        m = model(c)
        z2 = np.array(z2)
        (xs, _), (ys, _) = halfspace_nodes(c, x_extent=6.0, y_extent=8.0, n_x=40,
                                           n_panel=16, x_center=z2[0])
        xi = ys * z2[1] / (2.0 * t)
        assert z2[1] > 0.01 or (np.any(xi < 1e-4) and not np.all(xi < 1e-4))
        x, y = np.meshgrid(xs, ys, indexing="ij")
        pts = np.column_stack([x.ravel(), y.ravel()])
        got = tensor_kernel(m, t, z2, xs, ys)
        # bit for bit, with the grid node as either argument
        assert np.array_equal(got, product_kernel(m, t, pts, z2[None, :]))
        assert np.array_equal(got, product_kernel(m, t, z2[None, :], pts))

    def test_guards(self):
        xs, ys = np.array([0.0, 0.5]), np.array([0.5, 1.0])
        with pytest.raises(WrongOperatorError):
            tensor_kernel(model(0.0, a=0.5), 1.0, np.array([0.0, 1.0]), xs, ys)
        with pytest.raises(DomainError, match="finite"):
            tensor_kernel(model(0.0), np.nan, np.array([0.0, 1.0]), xs, ys)
        with pytest.raises(DomainError, match="finite"):
            tensor_kernel(model(0.0), 1.0, np.array([0.0, np.nan]), xs, ys)
        with pytest.raises(DomainError, match="N = 1"):
            tensor_kernel(model(0.0, n=2), 1.0, np.array([0.0, 0.0, 1.0]), xs, ys)


class TestKernelSlice:
    @pytest.mark.parametrize("t,source", [
        (np.nan, [0.0, 1.0]), (np.inf, [0.0, 1.0]), (0.0, [0.0, 1.0]),
        (1.0, [np.nan, 1.0]), (1.0, [0.0, np.nan]), (1.0, [np.inf, 1.0]), (1.0, [0.0, 0.0]),
    ], ids=["t-nan", "t-inf", "t-zero", "x-nan", "y-nan", "x-inf", "y-zero"])
    def test_rejects_bad_time_or_source(self, t, source):
        with pytest.raises(DomainError):
            KernelSlice(t=t, source=np.array(source), points=np.array([[0.0, 1.0]]),
                        values=np.array([1.0]), c=0.0)

    def _slice(self):
        m = model(1.0)
        pts = np.column_stack([np.linspace(-1, 1, 7), np.linspace(0.1, 2.0, 7)])
        return exact_slice(m, 0.5, np.array([0.0, 1.0]), pts)

    @staticmethod
    def _written(slc, path):
        write_csv([slc], [path])
        return path.read_bytes().decode()

    def test_csv_round_trip(self, tmp_path):
        slc = self._slice()
        lines = self._written(slc, tmp_path / "slice.csv").splitlines()
        assert lines[0] == "t,x1,y1,x2,y2,p,convention"
        assert all(line.endswith(",y^c dz") for line in lines[1:])
        table = np.loadtxt(lines[1:], delimiter=",", usecols=range(6), ndmin=2)
        assert np.all(table[:, 0] == slc.t)
        assert table[:, 1:3].tolist() == slc.points.tolist()
        assert table[:, 5].tolist() == slc.values.tolist()  # bit-exact

    def test_csv_path_round_trip(self, tmp_path):
        slc = self._slice()
        path = tmp_path / "slice.csv"
        assert self._written(slc, path) == self._per_row(slc)
        table = np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(6), ndmin=2)
        assert table[:, 3:5].tolist() == [slc.source.tolist()] * len(slc.values)
        assert table[:, 5].tolist() == slc.values.tolist()

    @staticmethod
    def _per_row(slc):
        """The CSV text built one `%.17g` row at a time."""
        rows = ["t,x1,y1,x2,y2,p,convention\n"]
        for (x1, y1), p in zip(slc.points.tolist(), slc.values.tolist()):
            rows.append("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s\n"
                        % (slc.t, x1, y1, *slc.source.tolist(), p, WEIGHTED_CONVENTION))
        return "".join(rows)

    def test_write_csv_matches_per_row_reference(self, tmp_path, monkeypatch):
        # extreme doubles in every column kind; 2-row chunks cross chunk edges
        monkeypatch.setattr(kernels, "CSV_CHUNK_ROWS", 2)
        pts = np.array([[-0.0, 5e-324], [1e-300, 1.7976931348623157e308],
                        [-2.5, 0.1], [1.0 / 3.0, 1e-300], [0.0, 7.0]])
        vals = np.array([-0.0, 5e-324, 1e-300, 1.7976931348623157e308, -3.0e-17])
        first = KernelSlice(t=0.5, source=np.array([-0.0, 5e-324]), points=pts,
                            values=vals, c=1.0)
        second = KernelSlice(t=1.7976931348623157e308, source=np.array([-1e-300, 2.0]),
                             points=pts, values=vals[::-1].copy(), c=1.0)
        paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
        write_csv([first, second], paths)
        for k, (slc, path) in enumerate(zip((first, second), paths)):
            want = self._per_row(slc)
            assert path.read_bytes() == want.encode()
            assert self._written(slc, tmp_path / f"one{k}.csv") == want  # the one-slice call

    def test_write_csv_rejects_n2_and_length_mismatch(self, tmp_path):
        slc = self._slice()
        n2 = KernelSlice(t=0.5, source=np.array([0.0, 0.0, 1.0]), points=np.ones((2, 3)),
                         values=np.ones(2), c=1.0)
        with pytest.raises(DomainError):
            write_csv([n2], [tmp_path / "n2.csv"])
        with pytest.raises(ValueError):
            write_csv([slc, slc], [tmp_path / "one.csv"])

    def test_exact_tie_goes_through_percent(self, tmp_path, monkeypatch):
        # 2^-25 = 2.98023223876953125e-08 exactly: its 18th digit is a tie, which
        # round-half-even settles downwards; the fast path must not decide it
        seen = count_fallback(monkeypatch)
        slc = KernelSlice(t=0.5, source=np.array([0.0, 1.0]), points=np.array([[0.5, 1.0]]),
                          values=np.array([2.0 ** -25]), c=1.0)
        text = self._written(slc, tmp_path / "tie.csv")
        assert seen == [2.0 ** -25]
        assert text.splitlines()[1] == "0.5,0.5,1,0,1,2.9802322387695312e-08," + WEIGHTED_CONVENTION
        assert text == self._per_row(slc)

    def test_non_finite_values_written_as_percent(self, tmp_path, monkeypatch):
        seen = count_fallback(monkeypatch)
        vals = np.array([np.nan, np.inf, -np.inf, 1.0])
        slc = KernelSlice(t=0.5, source=np.array([0.0, 1.0]), values=vals, c=1.0,
                          points=np.column_stack([np.linspace(-1, 1, 4), np.full(4, 0.5)]))
        text = self._written(slc, tmp_path / "nonfinite.csv")
        assert text == self._per_row(slc)
        assert [line.split(",")[5] for line in text.splitlines()[1:]] == ["nan", "inf", "-inf", "1"]
        assert len(seen) == 3 and seen[1:] == [np.inf, -np.inf]

    def test_zero_row_slice_writes_the_header(self, tmp_path):
        empty = KernelSlice(t=0.5, source=np.array([0.0, 1.0]), points=np.zeros((0, 2)),
                            values=np.zeros(0), c=1.0)
        assert self._written(empty, tmp_path / "empty.csv") == "t,x1,y1,x2,y2,p,convention\n"


    def test_invariants(self):
        with pytest.raises(DomainError):
            KernelSlice(t=-1.0, source=np.array([0.0, 1.0]),
                        points=np.zeros((1, 2)), values=np.zeros(1), c=0.0)
        with pytest.raises(DomainError):
            KernelSlice(t=1.0, source=np.array([0.0, -1.0]),
                        points=np.zeros((1, 2)), values=np.zeros(1), c=0.0)
        with pytest.raises(DomainError, match="length mismatch"):
            KernelSlice(t=1.0, source=np.array([0.0, 1.0]),
                        points=np.zeros((2, 2)), values=np.zeros(1), c=0.0)

    def test_mass_requires_weights(self):
        slc = self._slice()
        with pytest.raises(DomainError):
            slc.mass()

    def test_clamping(self):
        slc = self._slice()
        slc.values[0] = -1e-12
        assert slc.clamped_values().min() >= 0.0


class TestG17:
    """kernels._g17 against Python's `%.17g`, byte for byte."""

    @staticmethod
    def _doubles():
        rng = np.random.default_rng(20240901)
        parts = []
        # every biased exponent, 0 (zero and subnormals) to 2047 (inf and NaN), 200 each
        exponent = np.repeat(np.arange(2048, dtype=np.uint64), 200)
        mantissa = rng.integers(0, 1 << 52, size=exponent.size, dtype=np.uint64)
        sign = rng.integers(0, 2, size=exponent.size, dtype=np.uint64)
        parts.append(((sign << np.uint64(63)) | (exponent << np.uint64(52)) | mantissa)
                     .view(np.float64))
        # 10^q and 2^q over the double range, with both neighbours, both signs
        tens = np.array([float(f"1e{q}") for q in range(-323, 309)])
        twos = np.ldexp(1.0, np.arange(-1074, 1024))
        for x in (tens, twos):
            for y in (x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)):
                parts += [y, -y]
        parts.append(np.array([0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan,
                               2.2250738585072014e-308, 1.7976931348623157e308]))
        # large integers and n + 1/2
        parts.append(rng.integers(-(1 << 62), 1 << 62, size=40000).astype(float))
        parts.append(np.arange(-20000, 20000) + 0.5)
        # the magnitudes of kernel values and coordinates
        parts.append(rng.standard_normal(50000) * 10.0 ** rng.integers(-20, 20, size=50000))
        return np.concatenate(parts)

    def test_matches_percent_on_500k_doubles(self, monkeypatch):
        seen = count_fallback(monkeypatch)
        values = self._doubles()
        assert values.size >= 500_000
        got = kernels._g17(values).tolist()
        want = [b"%.17g" % v for v in values.tolist()]
        mismatches = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
        assert mismatches == []
        # the fast path formats every normal finite value except those whose 17-digit
        # scaling |v| 10^(16-k), computed exactly here, ends within 2^-40 of a half
        # or rounds up to 10^17
        finite_normal = np.isfinite(values) & (np.abs(values) >= 2.2250738585072014e-308)
        slow = [v for v in seen if math.isfinite(v) and abs(v) >= 2.2250738585072014e-308]
        assert len(seen) - len(slow) == np.count_nonzero(~finite_normal)
        assert len(slow) < 0.01 * values.size
        with decimal.localcontext(decimal.Context(prec=1200)):
            for v in slow:
                exact = abs(decimal.Decimal(v))
                scaled = exact.scaleb(16 - exact.adjusted())
                near_half = abs(scaled % 1 - decimal.Decimal("0.5")) <= decimal.Decimal(2) ** -40
                assert near_half or scaled >= 10 ** 17 - decimal.Decimal("0.5"), v

    def test_shapes_and_width(self):
        assert kernels._g17(np.zeros((0, 2))).shape == (0,)
        out = kernels._g17(np.array([[-1.2345678901234567e-308, 1.0], [0.5, -7.0]]))
        assert out.dtype == np.dtype("S24")
        assert out.tolist() == [b"-1.2345678901234567e-308", b"1", b"0.5", b"-7"]
