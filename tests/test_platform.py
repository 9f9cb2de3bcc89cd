"""Unit tests for the platform model."""

import math

import numpy as np
import pytest

from repro import Platform, ValidationError


class TestConstruction:
    def test_basic_times(self):
        plat = Platform(speeds=[1.0, 2.0], bandwidths=[[0, 5.0], [5.0, 0]])
        assert plat.n_processors == 2
        assert plat.comp_time(10.0, 1) == 5.0
        assert plat.comm_time(10.0, 0, 1) == 2.0

    def test_zero_speed_rejected(self):
        with pytest.raises(ValidationError):
            Platform(speeds=[1.0, 0.0], bandwidths=np.ones((2, 2)))

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ValidationError):
            Platform(speeds=[1.0, 1.0], bandwidths=[[0, -1.0], [1.0, 0]])

    @pytest.mark.parametrize("speed", [-1.0, math.nan, math.inf, -math.inf])
    def test_non_finite_or_negative_speed_rejected(self, speed):
        with pytest.raises(ValidationError):
            Platform(speeds=[1.0, speed], bandwidths=np.ones((2, 2)))

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, -math.inf])
    def test_off_diagonal_must_be_positive(self, bad):
        # ``-inf`` used to slip through an ``isinf`` exemption and then
        # serialize as "inf", flipping its sign on a round trip.
        with pytest.raises(ValidationError):
            Platform(speeds=[1.0, 1.0], bandwidths=[[0, bad], [1.0, 0]])

    def test_diagonal_values_unchecked(self):
        plat = Platform(speeds=[1, 1],
                        bandwidths=[[-1.0, 2.0], [3.0, math.nan]])
        assert plat.bandwidth(0, 1) == 2.0

    def test_acceptance_matches_elementwise_rule(self):
        # reference: every speed finite and > 0, every off-diagonal
        # bandwidth > 0 (+inf allowed), the diagonal unchecked
        rng = np.random.default_rng(5)
        values = np.array([2.0, 0.0, -1.0, math.nan, math.inf, -math.inf])
        for _ in range(300):
            n = int(rng.integers(1, 4))
            speeds = rng.choice(values, n, p=[0.8] + [0.04] * 5)
            bw = rng.choice(values, (n, n), p=[0.7] + [0.06] * 5)
            expected = all(0 < s < math.inf for s in speeds) and all(
                bw[u, v] > 0 for u in range(n) for v in range(n) if u != v)
            try:
                Platform(speeds, bw)
                accepted = True
            except ValidationError:
                accepted = False
            assert accepted == expected, (speeds, bw)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValidationError):
            Platform(speeds=[1.0, 1.0], bandwidths=np.ones((3, 3)))

    def test_infinite_bandwidth_means_free_link(self):
        plat = Platform(speeds=[1, 1], bandwidths=[[0, math.inf], [1, 0]])
        assert plat.comm_time(100.0, 0, 1) == 0.0

    def test_diagonal_ignored(self):
        # zero diagonal is fine — there is no P_u -> P_u link
        plat = Platform(speeds=[1, 1], bandwidths=[[0, 1], [1, 0]])
        with pytest.raises(ValidationError):
            plat.bandwidth(0, 0)

    def test_immutable_arrays(self):
        plat = Platform.homogeneous(3)
        with pytest.raises(ValueError):
            plat.speeds[0] = 2.0
        with pytest.raises(ValueError):
            plat.bandwidths[0, 1] = 2.0

    def test_index_out_of_range(self):
        plat = Platform.homogeneous(2)
        with pytest.raises(IndexError):
            plat.speed(2)


class TestConstructors:
    def test_homogeneous(self):
        plat = Platform.homogeneous(4, speed=2.0, bandwidth=0.5)
        assert plat.n_processors == 4
        assert plat.comp_time(4.0, 3) == 2.0
        assert plat.comm_time(1.0, 0, 3) == 2.0

    def test_star_bottleneck(self):
        plat = Platform.star(speeds=[1, 1, 1], up_bandwidths=[10, 1, 5],
                             down_bandwidths=[2, 8, 4])
        # link 0 -> 1 limited by min(up[0]=10, down[1]=8) = 8
        assert plat.bandwidth(0, 1) == 8.0
        # link 1 -> 0 limited by min(up[1]=1, down[0]=2) = 1
        assert plat.bandwidth(1, 0) == 1.0

    def test_star_symmetric_default(self):
        plat = Platform.star(speeds=[1, 1], up_bandwidths=[3, 7])
        assert plat.bandwidth(0, 1) == 3.0
        assert plat.bandwidth(1, 0) == 3.0

    def test_from_comm_times(self):
        plat = Platform.from_comm_times([2.0, 4.0], [[0, 10.0], [5.0, 0]])
        # unit work on P1 takes 4 time units
        assert plat.comp_time(1.0, 1) == pytest.approx(4.0)
        assert plat.comm_time(1.0, 0, 1) == pytest.approx(10.0)
        assert plat.comm_time(1.0, 1, 0) == pytest.approx(5.0)

    def test_from_comm_times_zero_time_is_inf_bandwidth(self):
        plat = Platform.from_comm_times([1.0, 1.0], [[0, 0.0], [1.0, 0]])
        assert plat.comm_time(123.0, 0, 1) == 0.0

    def test_from_comm_times_rejects_bad_comp(self):
        with pytest.raises(ValidationError):
            Platform.from_comm_times([0.0, 1.0], np.zeros((2, 2)))


class TestSerialization:
    def test_roundtrip(self):
        plat = Platform(speeds=[1, 2], bandwidths=[[0, math.inf], [3, 0]])
        clone = Platform.from_dict(plat.to_dict())
        assert clone == plat

    def test_inf_encoded_as_string(self):
        plat = Platform(speeds=[1, 2], bandwidths=[[0, math.inf], [3, 0]])
        assert plat.to_dict()["bandwidths"][0][1] == "inf"

    def test_plus_inf_round_trip_keeps_sign(self):
        plat = Platform(speeds=[1, 2], bandwidths=[[0, math.inf], [3, 0]])
        clone = Platform.from_dict(plat.to_dict())
        assert clone.bandwidth(0, 1) == math.inf
        assert clone.to_dict() == plat.to_dict()

    @pytest.mark.parametrize("with_inf", [False, True])
    def test_to_dict_matches_elementwise_encoding(self, with_inf):
        # reference: the per-entry encoder to_dict used before it went
        # through ``tolist``; values and Python types must both match
        rng = np.random.default_rng(11)
        bw = rng.uniform(0.5, 9.0, (5, 5))
        np.fill_diagonal(bw, 0.0)
        if with_inf:
            bw[1, 3] = bw[4, 0] = math.inf
        plat = Platform(rng.uniform(1.0, 5.0, 5), bw,
                        failure_rates=rng.uniform(0.0, 0.1, 5))
        data = plat.to_dict()
        ref_bw = [["inf" if math.isinf(b) else float(b) for b in row]
                  for row in plat.bandwidths]
        assert data["bandwidths"] == ref_bw
        assert data["speeds"] == [float(s) for s in plat.speeds]
        assert data["failure_rates"] == [float(f)
                                         for f in plat.failure_rates]
        flat = data["speeds"] + data["failure_rates"] + [
            b for row in data["bandwidths"] for b in row]
        assert all(type(x) in (float, str) for x in flat)

    def test_equality_and_hash(self):
        a = Platform.homogeneous(2)
        b = Platform.homogeneous(2)
        assert a == b and hash(a) == hash(b)
        assert a != Platform.homogeneous(3)
