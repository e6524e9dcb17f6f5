"""CLI surface: flags, output formats, determinism, exit codes."""
import json
import math

import pytest

from airylab import cli, fredholm, sao, variational, wkb
from airylab.cli import main
from airylab.hill import NoisePath


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestRateFn:
    def test_csv_shape_and_endpoint(self, capsys):
        code, out = run_cli(["rate-fn", "--z-min", "-2", "--z-max", "0",
                             "--steps", "5"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "z,phi,phi_scaled"
        assert len(lines) == 6
        last = lines[-1].split(",")
        assert float(last[0]) == 0.0
        assert float(last[1]) == 0.0

    def test_beta_column_scales(self, capsys):
        code, out = run_cli(["rate-fn", "--z-min", "-1", "--z-max", "-1",
                             "--steps", "1", "--beta", "4"], capsys)
        row = out.strip().split("\n")[1].split(",")
        from airylab.rate import phi_minus, phi_minus_scaled
        assert float(row[1]) == pytest.approx(phi_minus(-1.0), rel=1e-15)
        assert float(row[2]) == pytest.approx(phi_minus_scaled(4.0, -1.0), rel=1e-15)


class TestVariational:
    def test_json_master_identity(self, capsys):
        code, out = run_cli(["variational", "--z", "-1", "--beta", "2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["rel_err"] <= 1e-6
        assert payload["schema_version"] == 1
        assert "seed" in payload

    def test_riemann_block_present_with_t(self, capsys):
        code, out = run_cli(["variational", "--z", "-1", "--beta", "2",
                             "--t", "1000"], capsys)
        payload = json.loads(out)
        assert "riemann_sum" in payload
        assert payload["riemann_sum"] == pytest.approx(payload["variational_value"],
                                                       rel=0.05)


class TestHillSao:
    def test_hill_spectrum_csv(self, capsys):
        code, out = run_cli(["hill", "--j", "0", "--xi", "1", "--beta", "2",
                             "--grid-n", "64", "--lambda-cap", "500",
                             "--seed", "3"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "index,eigenvalue"
        assert len(lines) > 2

    def test_hill_count_json(self, capsys):
        code, out = run_cli(["hill", "--j", "0", "--grid-n", "256",
                             "--lambda", "50", "--seed", "3"], capsys)
        payload = json.loads(out)
        assert payload["riccati_count"] >= 0

    def test_sao_count_json(self, capsys):
        code, out = run_cli(["sao", "count", "--grid-n", "1024", "--domain-l", "12",
                             "--lambda-cap", "5", "--lambda", "3.0", "--seed", "4"],
                            capsys)
        payload = json.loads(out)
        assert 0 <= payload["riccati_count"] <= 10

    def test_sandwich_json(self, capsys):
        code, out = run_cli(["sao", "sandwich", "--z", "-1", "--t", "1",
                             "--n-levels", "2", "--samples", "200", "--seed", "5"],
                            capsys)
        payload = json.loads(out)
        assert payload["n_levels"] == 2
        assert payload["lower"]["mean"] <= payload["upper"]["mean"] + 1e-9

    def test_sandwich_takes_zero_levels_as_given(self, capsys):
        # --n-levels 0 once fell back to the levels of --z, as an unset flag does
        code, out = run_cli(["sao", "sandwich", "--n-levels", "0", "--samples", "2"], capsys)
        assert code == 0
        assert json.loads(out)["n_levels"] == 0

    def test_ldp_warns_of_few_effective_samples_on_stderr_only(self, capsys):
        # 200 plain samples at t = 16: ESS 5.1 and -0.0564 +- 0.0017 against -0.0503
        assert main(["sao", "ldp", "--z", "-1", "--t", "16", "--samples", "200",
                     "--seed", "7"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["mean"] == pytest.approx(-0.0564, abs=1e-4)
        assert captured.err == ("warning: effective sample size 5.14 of 200 samples, "
                                "largest weight share 0.36\n")
        assert main(["sao", "ldp", "--z", "-1", "--t", "16", "--samples", "200",
                     "--seed", "7", "--importance"]) == 0
        assert capsys.readouterr().err == ""


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path, capsys):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        for out in [out_a, out_b]:
            code = main(["sao", "count", "--grid-n", "512", "--domain-l", "12",
                         "--lambda-cap", "5", "--lambda", "3.0", "--seed", "42",
                         "--out", str(out)])
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seed_recorded(self, capsys):
        _, out = run_cli(["sao", "count", "--grid-n", "512", "--domain-l", "12",
                          "--lambda-cap", "5", "--lambda", "3.0", "--seed", "42"],
                         capsys)
        assert json.loads(out)["seed"] == 42


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rate-fn", "--z-min", "-1", "--z-max", "0", "--steps", "2",
                  "--no-such-flag", "1"])
        assert exc.value.code == 64

    def test_unknown_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 64

    def test_domain_error_exit_one(self, capsys):
        code = main(["variational", "--z", "0.5", "--beta", "2"])
        assert code == 1

    @pytest.mark.parametrize("beta", ["1e-300", "1e300"])
    def test_extreme_beta_is_a_domain_error(self, capsys, beta):
        assert main(["variational", "--z", "-1", "--beta", beta]) == 1
        assert capsys.readouterr().err.startswith("domain error:")

    def test_bad_beta_exit_one(self, capsys):
        code = main(["rate-fn", "--z-min", "-1", "--z-max", "0", "--steps", "2",
                     "--beta", "-1"])
        assert code == 1

    def test_configuration_error_exit_one(self, capsys):
        assert main(["hill", "--grid-n", "8"]) == 1
        assert "invalid input" in capsys.readouterr().err

    @pytest.mark.parametrize("nodes", ["0", "-5"])
    def test_no_quadrature_nodes_is_a_domain_error(self, capsys, nodes):
        assert main(["fredholm", "--s", "1", "--t", "1", "--grid-n", nodes]) == 1
        assert capsys.readouterr().err.startswith("domain error:")

    @pytest.mark.parametrize("factor_tol", ["0", "-1", "2"])
    def test_factor_tolerance_outside_the_unit_interval_is_a_domain_error(self, capsys,
                                                                          factor_tol):
        assert main(["fredholm", "compare", "--s", "1", "--t", "1",
                     "--factor-tol", factor_tol]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("domain error:")
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["rate-fn", "--z-min", "-2", "--z-max", "0", "--steps", "-1"],
        ["sao", "ldp", "--samples", "-3"],
        ["sao", "ldp", "--samples", "0"],
        ["sao", "sandwich", "--samples", "-3"],
        ["wkb", "--trials", "0"],
    ])
    def test_bad_count_is_a_domain_error_before_any_work(self, capsys, monkeypatch, argv):
        def costly(*args, **kwargs):
            raise AssertionError("worked before the count was checked")

        monkeypatch.setattr(sao, "dirichlet_spectra", costly)
        monkeypatch.setattr(wkb, "random_profile", costly)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("domain error:")
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["hill", "--lambda", "nan", "--grid-n", "64"],
        ["sao", "count", "--lambda", "nan", "--grid-n", "64"],
        ["hill", "--lambda", "inf", "--grid-n", "64"],
    ])
    def test_count_at_a_level_that_is_not_finite_is_a_domain_error(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("domain error:")
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["hill", "--xi", "1e-300", "--grid-n", "16"],
        ["sao", "spectrum", "--grid-n", "16", "--domain-l", "1e-300", "--lambda-cap", "-1"],
        ["hill", "--xi", "1e300", "--grid-n", "16"],
        ["sao", "count", "--grid-n", "16", "--domain-l", "1e300"],
    ])
    def test_cell_width_without_finite_inverse_square_is_a_domain_error_before_any_work(
            self, capsys, monkeypatch, argv):
        def costly(*args, **kwargs):
            raise AssertionError("drew a path before the cell width was checked")

        monkeypatch.setattr(NoisePath, "sample", costly)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("domain error:")
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        # every node where Ai underflows: both passes saw a zero kernel and det read 1.0
        ["fredholm", "--s", "1", "--t", "1", "--xmax", "1e10"],
        ["fredholm", "--s", "1", "--t", "1", "--xmax", "1e300"],
        # an r-window of -40/t^{1/3} = -4e101 once ended in numpy's "Maximum allowed size"
        ["fredholm", "--s", "1", "--t", "1e-300"],
    ])
    def test_determinant_grid_out_of_bounds_is_a_domain_error_before_any_table(
            self, capsys, monkeypatch, argv):
        def costly(*args, **kwargs):
            raise AssertionError("built an Airy table before the grid was checked")

        monkeypatch.setattr(fredholm, "ai_values", costly)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("domain error:")
        assert captured.out == ""

    def test_riemann_sum_of_too_many_levels_is_a_domain_error_before_any_level(
            self, capsys, monkeypatch):
        # ceil(t^{2/3}) = 1e200 levels once ended in numpy's "Maximum allowed size"
        def costly(*args, **kwargs):
            raise AssertionError("summed levels before their number was checked")

        monkeypatch.setattr(variational.DiscretizationParams, "level_spacing", property(costly))
        assert main(["variational", "--z", "-1", "--beta", "2", "--t", "1e300"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("domain error:")
        assert captured.out == ""

    def test_too_many_determinant_nodes_is_a_domain_error_before_any_rule(
            self, capsys, monkeypatch):
        # 100000 nodes once ended in numpy's _ArrayMemoryError (74.5 GiB) inside leggauss
        def costly(*args, **kwargs):
            raise AssertionError("built a node rule before the node count was checked")

        monkeypatch.setattr(fredholm.np.polynomial.legendre, "leggauss", costly)
        assert main(["fredholm", "--s", "1", "--t", "1", "--grid-n", "100000"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("domain error:")
        assert "at most 1024" in captured.err
        assert captured.out == ""

    def test_ldp_grid_too_coarse_for_the_cap_is_a_resolution_error_before_any_path(
            self, capsys, monkeypatch):
        # cells about 4.9 long under a cap of 1e4 once gave -0.0233 against -0.0503, exit 0
        def costly(*args, **kwargs):
            raise AssertionError("drew a path before the grid was checked")

        monkeypatch.setattr(NoisePath, "sample", costly)
        assert main(["sao", "ldp", "--z", "-1", "--t", "1e6", "--samples", "2",
                     "--importance"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("resolution error:")
        assert "grid_n = 3164808 would pass" in captured.err
        assert captured.out == ""

    def test_sandwich_grid_too_coarse_for_the_cap_is_a_resolution_error_before_any_path(
            self, capsys, monkeypatch):
        # SAO cap h^2 about 9.6e5 and Hill cap h^2 about 0.15 once ran 33 s to
        # print means of 0.0 +- 0.0 with exit 0
        def costly(*args, **kwargs):
            raise AssertionError("drew a path before the grids were checked")

        monkeypatch.setattr(NoisePath, "sample", costly)
        assert main(["sao", "sandwich", "--z", "-1", "--t", "1e6", "--samples", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("resolution error:")
        assert "grid_n = 317 would pass" in captured.err
        assert captured.out == ""

    def test_sandwich_whose_samples_all_underflow_is_a_resolution_error(self, capsys):
        # cap h^2 is 0.084 here, but every plain sample once rounded to zero:
        # three means of 0.0 +- 0.0 with exit 0
        assert main(["sao", "sandwich", "--z", "-6", "--t", "16", "--samples", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("resolution error: every plain Monte-Carlo sample")
        assert captured.out == ""

    @pytest.mark.parametrize("xi", ["1e-140", "1e-150"])
    def test_bisection_that_fails_is_a_resolution_error(self, capsys, xi):
        # 1/h^2 is finite, but dstebz cannot bisect a matrix of that scale down to the cap
        assert main(["hill", "--xi", xi, "--grid-n", "16"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("resolution error:")
        assert "dstebz INFO = 1" in captured.err
        assert captured.out == ""

    def test_plain_value_error_is_not_invalid_input(self, capsys, monkeypatch):
        def broken(args):
            raise ValueError("a bug, not a user error")

        monkeypatch.setattr(cli, "_cmd_wkb", broken)
        with pytest.raises(ValueError, match="a bug"):
            main(["wkb", "--trials", "1"])
        assert "invalid input" not in capsys.readouterr().err


class TestFredholmCommand:
    def test_det_json(self, capsys):
        code, out = run_cli(["fredholm", "--s", "1", "--t", "1",
                             "--grid-n", "48"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert 0.0 < payload["det"] < 1.0
        assert payload["log_det"] == pytest.approx(math.log(payload["det"]))


class TestWkbCommand:
    def test_report_fields(self, capsys):
        code, out = run_cli(["wkb", "--trials", "10", "--grid-n", "64",
                             "--seed", "9"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["trials"] == 10
        assert payload["violations"] == 0
        assert payload["max_gap"] <= 1e-9


class TestReportCommand:
    def test_skip_mc_runs_deterministic_only(self, capsys):
        code, out = run_cli(["report", "--skip", "mc", "--fast"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"]
        assert [c["id"] for c in payload["criteria"]] == [1, 2, 5, 8, 9]

    def test_report_and_commands_share_the_schema_version(self, capsys):
        _, report = run_cli(["report", "--skip", "mc", "--skip", "deterministic"], capsys)
        _, payload = run_cli(["variational", "--z", "-1", "--beta", "2"], capsys)
        assert json.loads(report)["schema_version"] == json.loads(payload)["schema_version"]

    def test_schema_stable_across_runs(self, capsys):
        _, out_a = run_cli(["report", "--skip", "mc", "--fast"], capsys)
        _, out_b = run_cli(["report", "--skip", "mc", "--fast"], capsys)
        a, b = json.loads(out_a), json.loads(out_b)
        assert set(a) == set(b)
        for ca, cb in zip(a["criteria"], b["criteria"]):
            assert set(ca) == set(cb)
            assert ca["measured"].keys() == cb["measured"].keys()
