import pytest

from growthkit import oracle
from growthkit.catalog import AlgorithmSpec, get_algorithm
from growthkit.duality import (
    DualityError, InversionColorMap, check_inversion_duality, check_inversion_nodes,
    check_transpose_duality, diagrams_equal, identity, swap_uc,
    transpose_dual,
)
from growthkit.insdiag import TableRule
from growthkit.lattice import Geometry
from growthkit.render import parse_gp
from growthkit.wdgg import Instantiation, constant_weight


def alg(name):
    return get_algorithm(name)


class TestInvertGp:
    def test_paper_example(self):
        gp = parse_gp("2 3 4 1", 1)
        assert gp.inverse() == parse_gp("4 1 2 3", 1)

    def test_involution_and_identity(self):
        gp = parse_gp("6o 4o 7 5 2 3 1o", 2)
        assert gp.inverse().inverse() == gp
        ident = parse_gp("1 2 3", 1)
        assert ident.inverse() == ident

    def test_colors_ride_along(self):
        gp = parse_gp("6o 4o 7 5 2 3 1o", 2)
        assert gp.inverse() == parse_gp("7o 5 6 2o 4 1o 3", 2)


class TestTransposeDual:
    def test_rs_row_gives_rs_col(self):
        assert diagrams_equal(transpose_dual(alg("rs-row")), alg("rs-col"), 8)
        assert diagrams_equal(transpose_dual(alg("rs-col")), alg("rs-row"), 8)

    def test_left_right_self_dual_under_swap(self):
        assert diagrams_equal(
            transpose_dual(alg("left-right"), swap_uc, swap_uc), alg("left-right"), 8)

    def test_mixed_self_dual_under_swap(self):
        assert diagrams_equal(
            transpose_dual(alg("mixed"), swap_uc, swap_uc), alg("mixed"), 8)

    def test_rejects_octant(self):
        with pytest.raises(DualityError):
            transpose_dual(alg("sagan1"))

    def test_derived_algorithm_runs(self):
        dual = transpose_dual(alg("rs-row"))
        from growthkit.growth import extract_P, run_growth
        gp = parse_gp("2 3 4 1", 1)
        got = extract_P(run_growth(dual, gp))
        want = extract_P(run_growth(alg("rs-col"), gp))
        assert got == want


class TestTransposedTables:
    """Transpose duality as an equality of tables, which holds on every
    shape at once."""

    @pytest.mark.parametrize("a,b,f,g", [
        ("rs-row", "rs-col", identity, identity),
        ("rs-col", "rs-row", identity, identity),
        ("left-right", "left-right", swap_uc, swap_uc),
        ("mixed", "mixed", swap_uc, swap_uc),
    ])
    def test_transposed_table_is_the_partners_table(self, a, b, f, g):
        dual = transpose_dual(alg(a), f, g)
        assert isinstance(dual.rule, TableRule)
        assert dual.rule.table == alg(b).rule.table and dual.rule.diagonal == {}
        assert dual.rule == alg(b).rule

    def test_transposing_twice_gives_the_table_back(self):
        for name in ("rs-row", "mclarnan-fairy", "jitter", "double-circle"):
            assert transpose_dual(transpose_dual(alg(name))).rule == alg(name).rule

    @pytest.mark.parametrize("name,f,g", [
        ("left-right", lambda c: 1, identity),      # not one-to-one
        ("double-circle", swap_uc, identity),       # not defined on 3 and 4
        ("left-right", identity, lambda c: 1),
        ("double-circle", identity, lambda c: c + 1),
    ], ids=["f-collapses", "f-undefined", "g-collapses", "g-out-of-range"])
    def test_rejects_maps_that_do_not_permute_the_colors(self, name, f, g):
        with pytest.raises(DualityError):
            transpose_dual(alg(name), f, g)

    def test_edge_map_is_not_read_on_a_weight_1_channel(self):
        # rs-row's channels both have weight 1, where g is never applied
        assert transpose_dual(alg("rs-row"), identity, swap_uc).rule == alg("rs-col").rule

    def test_rejects_weights_not_known_to_be_constant(self):
        rs = alg("rs-row")
        inst = Instantiation("quadrant-diagonal", Geometry.QUADRANT,
                             constant_weight(1), lambda p: 1, 1)
        spec = AlgorithmSpec("rs-row-on-it", inst, rs.rule, "")
        with pytest.raises(DualityError, match="not constant"):
            transpose_dual(spec)


class TestTransposeDualityChecks:
    def test_rs_row_vs_rs_col(self):
        assert check_transpose_duality(alg("rs-row"), alg("rs-col"), n=4).ok

    def test_left_right_self(self):
        assert check_transpose_duality(
            alg("left-right"), alg("left-right"), swap_uc, swap_uc, 3).ok

    def test_no_algorithm_is_self_dual_plain(self):
        report = check_transpose_duality(alg("rs-row"), alg("rs-row"), n=3)
        assert not report.ok and report.counterexamples

    def test_degree_mismatch_rejected(self):
        with pytest.raises(DualityError):
            check_transpose_duality(alg("rs-row"), alg("left-right"), n=2)

    def test_rejects_an_edge_map_out_of_range(self):
        # double-circle's channels have weight 2, and g sends 2 outside 1..2
        with pytest.raises(DualityError, match=r"the edge map sends color 2 to 3, outside 1\.\.2"):
            check_transpose_duality(alg("double-circle"), alg("double-circle"),
                                    g=lambda c: c + 1, n=2)

    @pytest.mark.parametrize("f,g,what", [
        (swap_uc, lambda c: 1, "edge map"),
        (lambda c: 1, swap_uc, "alpha map"),
    ], ids=["g-collapses", "f-collapses"])
    def test_rejects_a_map_that_is_not_one_to_one(self, f, g, what):
        with pytest.raises(DualityError, match=f"the {what} sends colors 1 and 2 both to 1"):
            check_transpose_duality(alg("left-right"), alg("left-right"), f, g, n=3)

    def test_edge_map_is_not_read_on_a_weight_1_channel(self):
        # rs-col's channels both have weight 1, where g is never applied
        assert check_transpose_duality(alg("rs-row"), alg("rs-col"), g=lambda c: c + 5, n=3).ok


class TestInversionDualityChecks:
    def test_rs_row_swaps_p_and_q(self):
        assert check_inversion_duality(alg("rs-row"), alg("rs-row"), 4).ok

    def test_rs_row_node_level(self):
        assert check_inversion_nodes(alg("rs-row"), 4).ok

    def test_left_right_mixed_pair(self):
        assert check_inversion_duality(alg("left-right"), alg("mixed"), 3).ok
        assert check_inversion_duality(alg("mixed"), alg("left-right"), 3).ok

    def test_worley_shifted_mixed_pair(self):
        assert check_inversion_duality(alg("worley-sagan"), alg("shifted-mixed"), 4).ok

    def test_shifted_column_near_duality(self):
        assert check_inversion_duality(alg("shifted-column"), alg("shifted-column"), 4).ok
        assert check_inversion_duality(
            alg("dual-shifted-column"), alg("dual-shifted-column"), 4).ok

    def test_double_circle_self_duality(self):
        assert check_inversion_duality(alg("double-circle"), alg("double-circle"), 2).ok

    def test_rejects_an_alpha_map_that_is_not_one_to_one(self):
        with pytest.raises(DualityError, match="the alpha map sends colors 1 and 2 both to 1"):
            check_inversion_duality(alg("left-right"), alg("mixed"), 3,
                                    color_map=InversionColorMap(alpha_map=lambda c: 1))

    def test_undeclared_pair_rejected(self):
        with pytest.raises(DualityError):
            check_inversion_duality(alg("rs-row"), alg("rs-col"), 2)

    def test_wrong_pairing_fails_with_counterexamples(self):
        # sagan1 is not inversion self-dual, and its pairing with
        # shifted-mixed breaks once diagonal bumps reach row one (n = 5)
        assert not check_inversion_duality(
            alg("sagan1"), alg("sagan1"), 3, color_map=InversionColorMap()).ok
        assert not check_inversion_duality(
            alg("sagan1"), alg("shifted-mixed"), 5, color_map=InversionColorMap()).ok


class TestSizeGuard:
    """A size whose n! * r^n inputs a 4-byte rank cannot number below 2^32 - 1
    (the threshold of oracle.bijection_inputs) is refused before any sweep."""

    @pytest.fixture(autouse=True)
    def no_sweep(self, monkeypatch):
        monkeypatch.setattr(oracle, "_sweep_branches", None)

    @pytest.mark.parametrize("check", [
        lambda n: check_inversion_duality(alg("rs-row"), alg("rs-row"), n),
        lambda n: check_inversion_duality(alg("left-right"), alg("mixed"), n - 2),
        lambda n: check_transpose_duality(alg("rs-row"), alg("rs-col"), n=n, workers=2),
        lambda n: check_inversion_nodes(alg("rs-row"), n),
    ], ids=["inversion", "inversion-r2", "transpose", "nodes"])
    def test_too_many_inputs_are_refused_before_any_sweep(self, check):
        with pytest.raises(ValueError, match=r"^n=1[13] is too large for (rs-row|rs-col|mixed): "
                                             r"its \d+ inputs would take \d+ bytes of slots"):
            check(13)

    def test_the_largest_size_that_fits_goes_on_to_sweep(self):
        with pytest.raises(TypeError):      # the sweep, patched away
            check_inversion_duality(alg("rs-row"), alg("rs-row"), 12)
