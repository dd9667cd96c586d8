"""Exact-moment and geometry checks for the family and parameter box."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdanneal.model import (
    MAX_FVBM_SITES,
    MAX_STATES,
    FiniteExpFamily,
    ParamBox,
    ParamBoxError,
    _data_counts,
    boundary_layer_contains,
    build_fvbm,
    family_from_json,
    fisher_info,
    identifiability_report,
    lattice_neighbor_pairs,
    log_partition,
    mean_parameter,
    state_probs,
)

RNG = np.random.default_rng(20260810)

theta3 = st.tuples(
    st.floats(-3, 3, allow_nan=False),
    st.floats(-3, 3, allow_nan=False),
    st.floats(-3, 3, allow_nan=False),
)


class TestLogPartition:
    def test_uniform_is_log_state_count(self, fvbm2):
        assert log_partition(fvbm2, [0.0, 0.0, 0.0]) == pytest.approx(math.log(4), abs=1e-12)

    def test_matches_direct_enumeration(self, fvbm2, theta_star):
        # independent sum over the four states of {0,1}^2
        total = sum(
            math.exp(
                theta_star[0] * x1 + theta_star[1] * x1 * x2 + theta_star[2] * x2
            )
            for x1, x2 in itertools.product((0, 1), repeat=2)
        )
        assert log_partition(fvbm2, theta_star) == pytest.approx(math.log(total), abs=1e-12)
        assert log_partition(fvbm2, theta_star) == pytest.approx(2.4584342, abs=1e-6)

    def test_invariant_under_state_relabeling(self, fvbm2):
        perm = np.array([2, 0, 3, 1])
        relabeled = FiniteExpFamily(
            states=fvbm2.states[perm],
            suff_stats=fvbm2.suff_stats[perm],
            log_carrier=fvbm2.log_carrier[perm],
        )
        for theta in RNG.uniform(-3, 3, size=(20, 3)):
            assert log_partition(fvbm2, theta) == pytest.approx(
                log_partition(relabeled, theta), abs=1e-12
            )

    def test_dimension_mismatch_rejected(self, fvbm2):
        with pytest.raises(ValueError):
            log_partition(fvbm2, [0.0, 0.0])

    def test_overflow_safe_at_extreme_scores(self, fvbm2):
        value = log_partition(fvbm2, [200.0, 200.0, 200.0])
        assert np.isfinite(value)
        assert value == pytest.approx(600.0, abs=1e-6)

    def test_normalization_100_random_thetas(self, fvbm2):
        for theta in RNG.uniform(-3, 3, size=(100, 3)):
            assert abs(state_probs(fvbm2, theta).sum() - 1.0) < 1e-12


class TestMeanParameter:
    def test_uniform_moments(self, fvbm2):
        np.testing.assert_allclose(
            mean_parameter(fvbm2, [0.0, 0.0, 0.0]), [0.5, 0.25, 0.5], atol=1e-14
        )

    def test_matches_finite_differences(self, fvbm2):
        step = 1e-5
        for theta in [np.zeros(3), np.array([0.5, 1.0, 0.5]), np.array([-1.2, 0.3, 2.0])]:
            grad = np.empty(3)
            for j in range(3):
                up, down = theta.copy(), theta.copy()
                up[j] += step
                down[j] -= step
                grad[j] = (log_partition(fvbm2, up) - log_partition(fvbm2, down)) / (2 * step)
            assert np.max(np.abs(grad - mean_parameter(fvbm2, theta))) < 1e-6

    def test_mass_concentrates_on_zero_state(self, fvbm2):
        previous = None
        for scale in (2.0, 4.0, 6.0, 8.0):
            mean = mean_parameter(fvbm2, -scale * np.ones(3))
            assert np.all(mean >= 0)
            if previous is not None:
                assert np.all(mean <= previous + 1e-15)
            previous = mean
        assert np.max(previous) < 1e-3

    @settings(max_examples=50, deadline=None)
    @given(theta=theta3)
    def test_moments_bounded_by_stat_bound(self, fvbm2, theta):
        mean = mean_parameter(fvbm2, np.array(theta))
        assert np.all(mean >= -fvbm2.stat_bound - 1e-12)
        assert np.all(mean <= fvbm2.stat_bound + 1e-12)


class TestFisherInfo:
    def test_uniform_variances(self, fvbm2):
        cov, min_eig = fisher_info(fvbm2, [0.0, 0.0, 0.0])
        np.testing.assert_allclose(np.diag(cov), [0.25, 3.0 / 16.0, 0.25], atol=1e-14)
        assert min_eig > 0

    def test_symmetry(self, fvbm2):
        for theta in RNG.uniform(-3, 3, size=(20, 3)):
            cov, _ = fisher_info(fvbm2, theta)
            assert np.max(np.abs(cov - cov.T)) < 1e-14

    def test_matches_finite_difference_hessian(self, fvbm2, theta_star):
        step = 1e-5
        hess = np.empty((3, 3))
        for j in range(3):
            up, down = theta_star.copy(), theta_star.copy()
            up[j] += step
            down[j] -= step
            hess[:, j] = (mean_parameter(fvbm2, up) - mean_parameter(fvbm2, down)) / (2 * step)
        cov, _ = fisher_info(fvbm2, theta_star)
        assert np.max(np.abs(hess - cov)) < 1e-4

    def test_duplicated_column_is_flagged(self, box3):
        base = build_fvbm(2)
        degenerate = FiniteExpFamily(
            states=base.states,
            suff_stats=np.column_stack([base.suff_stats, base.suff_stats[:, 0]]),
            log_carrier=base.log_carrier,
        )
        _, min_eig = fisher_info(degenerate, np.zeros(4))
        assert min_eig < 1e-12
        report = identifiability_report(degenerate, ParamBox(3.0, 4))
        assert not report.ok

    def test_healthy_family_passes_identifiability(self, fvbm2, box3):
        assert identifiability_report(fvbm2, box3).ok


class TestBuildFvbm:
    def test_p2_shapes_and_values(self, fvbm2):
        assert fvbm2.dim == 3
        assert fvbm2.n_states == 4
        np.testing.assert_array_equal(fvbm2.suff_stats[-1], [1.0, 1.0, 1.0])
        assert fvbm2.stat_bound == 1.0

    def test_p1(self, fvbm1):
        assert fvbm1.dim == 1
        assert fvbm1.n_states == 2
        np.testing.assert_array_equal(fvbm1.suff_stats.reshape(-1), [0.0, 1.0])

    def test_p3(self):
        fam = build_fvbm(3)
        assert fam.dim == 6
        assert fam.n_states == 8
        assert fam.stat_bound == 1.0

    def test_states_lexicographic(self, fvbm2):
        np.testing.assert_array_equal(fvbm2.states, [[0, 0], [0, 1], [1, 0], [1, 1]])

    @pytest.mark.parametrize("p", [0, -1, 13, 2.5])
    def test_bad_site_counts_rejected(self, p):
        with pytest.raises(ValueError):
            build_fvbm(p)

    @pytest.mark.parametrize("p", range(1, 7))
    def test_stat_bound_always_one(self, p):
        fam = build_fvbm(p)
        assert fam.stat_bound == 1.0
        assert fam.dim == p * (p + 1) // 2

    def test_matches_symmetric_coupling_matrix(self):
        # theta packs W row-major: theta_(j,j) = W_jj, theta_(j,k) = 2 W_jk
        w = np.array([[0.5, 0.5], [0.5, 0.5]])
        fam = build_fvbm(2)
        theta = np.array([w[0, 0], 2 * w[0, 1], w[1, 1]])
        for idx, x in enumerate(fam.states):
            energy = float(x @ w @ x)
            assert theta @ fam.suff_stats[idx] == pytest.approx(energy, abs=1e-12)


class TestStateCap:
    def test_family_at_the_cap_constructs(self):
        fam = build_fvbm(MAX_FVBM_SITES)
        assert fam.n_states == MAX_STATES == 4096

    def test_family_over_the_cap_refused(self):
        states = np.arange(MAX_STATES + 1)[:, None]
        with pytest.raises(ValueError, match="enumeration cap"):
            FiniteExpFamily(
                states=states, suff_stats=states.astype(float), log_carrier=np.zeros(len(states))
            )


class TestDataCounts:
    @pytest.mark.parametrize(
        "data, message",
        [
            (np.array([0.0, 1.0]), "state indices"),
            ([2.0], "state indices"),
            (np.array([-1, 2]), "negative state index"),
            (np.array([], dtype=np.int64), "non-empty 1-d"),
            (np.array([[0, 1]]), "non-empty 1-d"),
            ([0, 4], "outside the state space"),
        ],
    )
    def test_bad_index_arrays_refused(self, fvbm2, data, message):
        with pytest.raises(ValueError, match=message):
            _data_counts(fvbm2, data)

    def test_counts_every_state_of_an_index_array(self, fvbm2):
        counts = _data_counts(fvbm2, [3, 0, 3, 3])
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, [1, 0, 0, 3])


class TestParamBox:
    def test_boundary_distance(self, box3):
        assert box3.boundary_distance(np.zeros(3)) == 3.0
        assert box3.boundary_distance(np.array([3.0, 0.0, 0.0])) == 0.0
        with pytest.raises(ValueError):
            box3.boundary_distance(np.array([3.1, 0.0, 0.0]))

    def test_diameter(self, box3):
        assert box3.diameter == pytest.approx(6.0 * math.sqrt(3))

    def test_grid_and_neighbors(self, box3):
        grid = box3.grid(5)
        assert grid.shape == (125, 3)
        assert grid.min() == -3.0 and grid.max() == 3.0
        pairs = lattice_neighbor_pairs(5, 3)
        assert len(pairs) == 3 * 25 * 4
        spacing = 6.0 / 4
        seps = np.linalg.norm(grid[pairs[:, 0]] - grid[pairs[:, 1]], axis=1)
        np.testing.assert_allclose(seps, spacing, atol=1e-12)


class TestBoundaryLayer:
    def test_interior_point_outside_layer(self, box3):
        assert not boundary_layer_contains(box3, np.zeros(3), 0.1, 1.0, 3)

    def test_point_on_boundary_always_inside(self, box3):
        theta = np.array([3.0, 0.0, 0.0])
        for eta in (1e-6, 0.1, 1.0):
            assert boundary_layer_contains(box3, theta, eta, 1.0, 3)

    def test_zero_rate_layer_is_boundary_only(self, box3):
        assert not boundary_layer_contains(box3, np.array([2.999, 0, 0]), 0.0, 1.0, 3)
        assert boundary_layer_contains(box3, np.array([3.0, 0, 0]), 0.0, 1.0, 3)

    def test_outside_box_rejected(self, box3):
        with pytest.raises(ValueError):
            boundary_layer_contains(box3, np.array([4.0, 0, 0]), 0.1, 1.0, 3)

    @settings(max_examples=50, deadline=None)
    @given(theta=theta3, eta=st.floats(0, 2, allow_nan=False))
    def test_matches_direct_arithmetic(self, box3, theta, eta):
        theta = np.array(theta)
        expected = 3.0 - np.max(np.abs(theta)) <= 2 * eta * math.sqrt(3)
        assert boundary_layer_contains(box3, theta, eta, 1.0, 3) == expected


class TestGuardReduction:
    """The one-reduction guard, of a point and of a stack, against the distance-based reference."""

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        dim=st.integers(1, 6),
        rows=st.integers(1, 8),
        half_width=st.floats(0.05, 50.0),
        stat_bound=st.floats(0.1, 4.0),
    )
    def test_matches_boundary_distance(self, data, dim, rows, half_width, stat_bound):
        box = ParamBox(half_width, dim)
        thetas, etas = np.empty((rows, dim)), np.empty(rows)
        for t in range(rows):
            eta = etas[t] = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
            layer = 2 * eta * np.sqrt(dim) * stat_bound
            where = data.draw(st.sampled_from(["inside", "layer_edge", "box_face"]))
            if where == "inside":
                reach = half_width * data.draw(st.floats(0.0, 1.0))
            elif where == "layer_edge":
                reach = max(half_width - layer, 0.0)
            else:
                reach = half_width
            # every entry within reach; one entry exactly +-reach, so ties bind
            fractions = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim))
            thetas[t] = np.array(fractions) * reach
            sign = data.draw(st.sampled_from([-1.0, 1.0]))
            thetas[t, data.draw(st.integers(0, dim - 1))] = sign * reach
        expected = [
            box.boundary_distance(theta) <= 2 * eta * np.sqrt(dim) * stat_bound
            for theta, eta in zip(thetas, etas)
        ]
        alone = [boundary_layer_contains(box, th, eta, stat_bound, dim) for th, eta in zip(thetas, etas)]
        stacked = boundary_layer_contains(box, thetas, etas, stat_bound, dim)
        assert stacked.dtype == bool and stacked.shape == (rows,)
        assert alone == expected
        assert stacked.tolist() == expected

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_stack_keeps_the_scalar_bits_at_one_ulp_from_the_layer_edge(self, dim):
        # each row's distance to the boundary is the scalar's layer depth, or
        # one ulp either side of it, so a layer rounded differently shows
        rng = np.random.default_rng([29, dim])
        boxes = [(1.25, 1.0), (3.0, 1.0), (rng.uniform(0.05, 50), rng.uniform(0.1, 4))]
        for half_width, stat_bound in boxes:
            box = ParamBox(half_width, dim)
            etas = half_width / (2 * math.sqrt(dim) * stat_bound) * rng.uniform(0.0, 1.0, 600)
            reach = half_width - 2.0 * etas * math.sqrt(dim) * stat_bound
            reach = np.nextafter(reach, reach + rng.choice([-1.0, 0.0, 1.0], len(reach)))
            thetas = rng.uniform(-1.0, 1.0, (len(etas), dim)) * reach[:, None]
            faces = rng.integers(0, dim, len(etas))
            thetas[np.arange(len(etas)), faces] = reach * rng.choice([-1, 1], len(etas))
            alone = [boundary_layer_contains(box, th, eta, stat_bound, dim) for th, eta in zip(thetas, etas)]
            assert 0 < sum(alone) < len(alone)
            assert boundary_layer_contains(box, thetas, etas, stat_bound, dim).tolist() == alone

    @settings(max_examples=100, deadline=None)
    @given(dim=st.integers(1, 6), half_width=st.floats(0.05, 50.0), excess=st.floats(1e-9, 10.0))
    def test_outside_the_box_raises_like_the_reference(self, dim, half_width, excess):
        box = ParamBox(half_width, dim)
        theta = np.zeros(dim)
        theta[-1] = -(half_width + excess)
        with pytest.raises(ParamBoxError):
            box.boundary_distance(theta)
        with pytest.raises(ParamBoxError):
            boundary_layer_contains(box, theta, 0.1, 1.0, dim)
        with pytest.raises(ParamBoxError):
            boundary_layer_contains(box, np.stack([np.zeros(dim), theta]), [0.1, 0.1], 1.0, dim)

    # each stack holds two refused rows; the first raises what it raises alone
    @pytest.mark.parametrize(
        "first, second, error",
        [
            (([3.5, 0.0, 0.0], 0.1), ([0.0, 0.0, 0.0], -0.1), ParamBoxError),
            (([0.0, np.nan, 0.0], 0.1), ([0.0, 0.0, 0.0], -0.1), ParamBoxError),
            (([0.0, 0.0, -np.inf], 0.1), ([0.0, 0.0, 0.0], -0.1), ParamBoxError),
            (([0.0, 0.0, 0.0], -0.1), ([3.5, 0.0, 0.0], 0.1), ValueError),
            (([3.5, 0.0, 0.0], -0.1), ([0.0, np.nan, 0.0], 0.1), ValueError),
        ],
        ids=["outside_box", "nan", "infinite", "negative_rate", "negative_rate_outside_the_box"],
    )
    def test_stack_raises_what_its_first_refused_row_raises(self, box3, first, second, error):
        (theta, eta), (later_theta, later_eta) = first, second
        with pytest.raises(error) as alone:
            boundary_layer_contains(box3, np.array(theta), eta, 1.0, 3)
        assert type(alone.value) is error
        thetas = np.array([[0.1, 0.2, 0.3], theta, [2.9, 0.0, 0.0], later_theta])
        etas = np.array([0.05, eta, 0.05, later_eta])
        with pytest.raises(error) as stacked:
            boundary_layer_contains(box3, thetas, etas, 1.0, 3)
        assert type(stacked.value) is error and str(stacked.value) == str(alone.value)

    def test_contains_rejects_nan_and_accepts_the_boundary(self, box3):
        assert box3.contains(np.array([3.0, -3.0, 0.0]))
        assert box3.contains(np.array([-3.0, -3.0, -3.0]))
        assert not box3.contains(np.array([np.nan, 0.0, 0.0]))
        assert not box3.contains(np.array([0.0, np.nan, 3.0]))
        assert not box3.contains(np.array([0.0, -np.inf, 0.0]))
        assert not box3.contains(np.array([0.0, 0.0, np.nextafter(3.0, 4.0)]))
        with pytest.raises(ParamBoxError):
            boundary_layer_contains(box3, np.array([0.0, np.nan, 0.0]), 0.1, 1.0, 3)


class TestFamilyFromJson:
    def test_fvbm_document(self):
        fam = family_from_json({"type": "fvbm", "p": 2})
        assert fam.dim == 3 and fam.n_states == 4

    def test_generic_document(self):
        doc = {
            "states": [[0], [1]],
            "phi": [[0.0], [1.0]],
            "log_carrier": [0.0, math.log(2.0)],
        }
        fam = family_from_json(doc)
        probs = state_probs(fam, [0.0])
        np.testing.assert_allclose(probs, [1 / 3, 2 / 3], atol=1e-12)

    def test_generic_defaults_uniform_carrier(self):
        fam = family_from_json({"states": [[0], [1]], "phi": [[0.0], [1.0]]})
        np.testing.assert_array_equal(fam.log_carrier, [0.0, 0.0])

    @pytest.mark.parametrize(
        "doc",
        [
            {"type": "fvbm"},
            {"states": [[0], [1]]},
            {"states": [[0], [1]], "phi": [[0.0]]},
            "not a dict",
        ],
    )
    def test_bad_documents_rejected(self, doc):
        with pytest.raises((ValueError, KeyError)):
            family_from_json(doc)
