"""Command-line interface: flags, formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import voikit
from voikit import (
    LinearGaussianSpec,
    MethodRuleError,
    NonlinearToySpec,
    PsaSample,
    build_nb,
    cumsum_curve,
    estimate,
    evpi,
    generate_psa,
    read_psa_csv,
    so_choose_bins,
    write_psa_csv,
)
from voikit.cli import main


@pytest.fixture(scope="module")
def lin_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "lin.csv"
    write_psa_csv(path, generate_psa(LinearGaussianSpec(), 2_000, seed=1))
    return str(path)


@pytest.fixture(scope="module")
def toy_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "toy.csv"
    rc = main([
        "simulate", "--model", "toy", "--sims", "2000", "--seed", "3",
        "--k", "20000", "--out", str(path),
    ])
    assert rc == 0
    return str(path)


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


_SAD_NEEDS_CHANGES = (
    "method sad needs --changes: the number of decision changes is a "
    "judgment call read off the visual tool and is never defaulted"
)


def _assert_one_error_line(rc, out, err, path):
    assert rc == 1
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("voikit: error: ")
    assert repr(str(path)) in err
    assert "Traceback" not in err


class TestEvppiCommand:
    def test_so_with_explicit_bins(self, capsys, lin_csv):
        rc, out, _ = _run(capsys, [
            "evppi", "--file", lin_csv, "--method", "so",
            "--params", "phi", "--bins", "40",
        ])
        assert rc == 0
        payload = json.loads(out)
        assert payload["method"] == "SO"
        assert payload["diagnostics"]["bins"] == 40
        assert 0.25 < payload["value"] < 0.55

    def test_so_defaults_to_bias_selection(self, capsys, lin_csv):
        rc, out, _ = _run(capsys, [
            "evppi", "--file", lin_csv, "--method", "so", "--params", "phi",
        ])
        assert rc == 0
        payload = json.loads(out)
        assert payload["diagnostics"]["bin_selection"] == "bias-threshold"
        assert payload["diagnostics"]["bins"] >= 1
        assert "chosen_bias" in payload["diagnostics"]

    def test_so_relative_bias_threshold(self, capsys, lin_csv):
        rc, out, _ = _run(capsys, [
            "evppi", "--file", lin_csv, "--method", "so", "--params", "phi",
            "--bias-threshold-relative", "0.01", "--seed", "5",
        ])
        assert rc == 0
        diag = json.loads(out)["diagnostics"]
        sample = read_psa_csv(lin_csv)
        p = sample.param_index("phi")
        expected = so_choose_bins(sample, p, threshold=0.01 * evpi(sample.nb), seed=5)
        assert (diag["bins"], diag["chosen_bias"]) == expected
        # the relative cap, not the absolute default, made the choice
        assert expected[0] != so_choose_bins(sample, p, seed=5)[0]

    def test_sad_requires_changes(self, capsys, lin_csv):
        rc, _, err = _run(capsys, [
            "evppi", "--file", lin_csv, "--method", "sad", "--params", "phi",
        ])
        assert rc == 1
        assert "--changes" in err

    def test_sad_zero_changes_warns_non_influential(self, capsys, lin_csv):
        rc, out, _ = _run(capsys, [
            "evppi", "--file", lin_csv, "--method", "sad",
            "--params", "phi", "--changes", "0",
        ])
        assert rc == 0
        payload = json.loads(out)
        assert payload["value"] == 0.0
        assert any("non-influential" in w for w in payload["warnings"])

    def test_sad_zero_changes_note_comes_before_the_k_note(self, capsys, lin_csv):
        rc, out, _ = _run(capsys, [
            "evppi", "--file", lin_csv, "--method", "sad",
            "--params", "phi", "--changes", "0", "--k", "5",
        ])
        assert rc == 0
        assert json.loads(out)["warnings"] == [
            "parameter declared non-influential: estimate is 0",
            f"--k 5 does not apply: {lin_csv} holds net benefit only, "
            "built at an unknown k",
        ]

    def test_single_param_methods_reject_subsets(self, capsys, lin_csv):
        rc, _, err = _run(capsys, [
            "evppi", "--file", lin_csv, "--method", "so", "--params", "phi,psi",
        ])
        assert rc == 1
        assert "single parameter" in err

    def test_unknown_parameter_listed(self, capsys, lin_csv):
        rc, _, err = _run(capsys, [
            "evppi", "--file", lin_csv, "--method", "gam", "--params", "zeta",
        ])
        assert rc == 1
        assert "zeta" in err and "phi" in err

    def test_malformed_csv_names_column(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("param:x,nb:0,nb:1\n1,2,3\n1,oops,3\n", encoding="utf-8")
        rc, _, err = _run(capsys, [
            "evppi", "--file", str(bad), "--method", "gam", "--params", "x",
        ])
        assert rc == 1
        assert "nb:0" in err

    def test_gam_with_bootstrap(self, capsys, lin_csv):
        rc, out, _ = _run(capsys, [
            "evppi", "--file", lin_csv, "--method", "gam", "--params", "phi",
            "--bootstrap", "20", "--seed", "5",
        ])
        assert rc == 0
        payload = json.loads(out)
        assert payload["std_error"] > 0

    def test_sad_with_bootstrap_reports_replicates(self, capsys, lin_csv):
        rc, out, _ = _run(capsys, [
            "evppi", "--file", lin_csv, "--method", "sad", "--params", "phi",
            "--changes", "1", "--bootstrap", "5", "--seed", "5",
        ])
        assert rc == 0
        payload = json.loads(out)
        replicates = payload["diagnostics"]["bootstrap_replicates"]
        assert len(replicates) == 5
        assert payload["diagnostics"]["bootstrap_failures"] == 0
        assert payload["diagnostics"]["bootstrap_failure_types"] == {}
        assert payload["std_error"] == pytest.approx(np.std(replicates, ddof=1))
        assert payload["std_error"] > 0

    def test_missing_file(self, capsys):
        rc, _, err = _run(capsys, [
            "evppi", "--file", "no-such.csv", "--method", "gam", "--params", "x",
        ])
        assert rc == 1


class TestCompareCommand:
    def test_table_columns_in_report_order(self, capsys, lin_csv):
        rc, out, _ = _run(capsys, [
            "compare", "--file", lin_csv, "--params", "phi;psi",
            "--bootstrap", "0", "--changes", "1",
        ])
        assert rc == 0
        header = out.splitlines()[0].split()
        assert header == ["parameter", "SO", "SAD", "GP", "GAM"]

    def test_mc_column_needs_model(self, capsys, lin_csv):
        rc, out, _ = _run(capsys, [
            "compare", "--file", lin_csv, "--params", "phi",
            "--bootstrap", "0", "--changes", "1", "--format", "json",
            "--model", "linear-gaussian", "--mc-outer", "200", "--mc-inner", "50",
            "--k", "0",
        ])
        assert rc == 0
        payload = json.loads(out)
        assert payload["methods"] == ["SO", "SAD", "GP", "GAM", "MC"]
        cells = payload["rows"][0]["cells"]
        assert "value" in cells["MC"]

    def test_sad_cell_reports_missing_changes(self, capsys, lin_csv):
        rc, out, _ = _run(capsys, [
            "compare", "--file", lin_csv, "--params", "phi",
            "--bootstrap", "0", "--format", "json",
        ])
        assert rc == 0
        payload = json.loads(out)
        assert payload["rows"][0]["cells"]["SAD"] == {"error": "changes not provided"}

    def test_multi_param_subset_marks_single_param_methods(self, capsys, lin_csv):
        rc, out, _ = _run(capsys, [
            "compare", "--file", lin_csv, "--params", "phi,psi",
            "--bootstrap", "0", "--format", "json",
        ])
        assert rc == 0
        payload = json.loads(out)
        cells = payload["rows"][0]["cells"]
        assert cells["SO"] == {"error": "single-parameter method"}
        assert "value" in cells["GAM"]

    def test_json_and_table_agree_after_rounding(self, capsys, lin_csv):
        args = [
            "compare", "--file", lin_csv, "--params", "phi",
            "--bootstrap", "0", "--changes", "1",
        ]
        rc, table_out, _ = _run(capsys, args)
        assert rc == 0
        rc, json_out, _ = _run(capsys, args + ["--format", "json"])
        assert rc == 0
        payload = json.loads(json_out)
        gam_value = payload["rows"][0]["cells"]["GAM"]["value"]
        row = table_out.splitlines()[1].split()
        assert row[4] == f"{round(gam_value, 2):.2f}"

    def test_fast_methods_cluster_on_oracle(self, capsys, tmp_path):
        # generated linear-Gaussian file: every fast method lands on the
        # closed form 1/sqrt(2 pi) within joint bootstrap noise (paired
        # with the segmentation estimate of the same target)
        path = tmp_path / "oracle.csv"
        write_psa_csv(path, generate_psa(LinearGaussianSpec(), 4_000, seed=31))
        rc, out, _ = _run(capsys, [
            "compare", "--file", str(path), "--params", "phi",
            "--changes", "1", "--bootstrap", "60", "--seed", "2",
            "--format", "json",
        ])
        assert rc == 0
        cells = json.loads(out)["rows"][0]["cells"]
        target = 1.0 / np.sqrt(2.0 * np.pi)
        ref_se = cells["SAD"]["std_error"]
        for method in ("SO", "SAD", "GP", "GAM"):
            cell = cells[method]
            assert abs(cell["value"] - target) <= 2.0 * (cell["std_error"] + ref_se), method

    def test_table_names_why_an_estimator_cell_is_blank(self, capsys, toy_csv):
        # SO raises on too many bins and says so on stderr; SAD does not
        # apply without --changes and stays silent
        args = [
            "compare", "--file", toy_csv, "--params", "risk_reduction",
            "--bootstrap", "0", "--bins", "5000",
        ]
        rc, out, err = _run(capsys, args)
        assert rc == 0
        row = out.splitlines()[1].split()
        assert row[1:3] == ["-", "-"]
        assert err == (
            "voikit: warning: SO on risk_reduction: bin count must be in "
            "[1, 2000], got 5000\n"
        )
        rc, json_out, json_err = _run(capsys, args + ["--format", "json"])
        assert rc == 0 and json_err == ""
        cells = json.loads(json_out)["rows"][0]["cells"]
        assert cells["SO"] == {"error": "bin count must be in [1, 2000], got 5000"}

    def test_identical_columns_give_all_zero_row(self, capsys, tmp_path):
        col = np.random.default_rng(0).normal(size=300)
        lines = ["param:x,nb:0,nb:1"]
        lines += [
            f"{float(x)!r},{float(v)!r},{float(v)!r}" for x, v in zip(col, col[::-1])
        ]
        path = tmp_path / "same.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc, out, _ = _run(capsys, [
            "compare", "--file", str(path), "--params", "x",
            "--bootstrap", "0", "--changes", "1", "--format", "json",
        ])
        assert rc == 0
        cells = json.loads(out)["rows"][0]["cells"]
        for method in ("SO", "SAD", "GP", "GAM"):
            assert cells[method]["value"] == pytest.approx(0.0, abs=1e-9)


class TestReportedWillingnessToPay:
    """``k`` in the output is the threshold the net benefit was built at."""

    @pytest.fixture(scope="class")
    def lg_with_sidecar(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("wtp") / "lg.csv"
        assert main([
            "simulate", "--model", "linear-gaussian", "--sims", "400",
            "--seed", "2", "--k", "30000", "--out", str(path),
        ]) == 0
        return str(path)

    @pytest.fixture(scope="class")
    def toy_nb_only(self, tmp_path_factory):
        # toy net benefit at k=20000 written without its effects and costs
        sample = generate_psa(NonlinearToySpec(), 400, seed=4)
        path = tmp_path_factory.mktemp("wtp") / "toy_nb.csv"
        write_psa_csv(path, PsaSample(
            param_names=sample.param_names, params=sample.params, nb=sample.nb,
        ))
        return str(path)

    def _evppi(self, capsys, path, *extra):
        rc, out, _ = _run(capsys, [
            "evppi", "--file", path, "--method", "so", "--params", "phi",
            "--bins", "10", *extra,
        ])
        assert rc == 0
        return json.loads(out)

    def test_nb_only_file_reports_sidecar_k(self, capsys, lg_with_sidecar):
        payload = self._evppi(capsys, lg_with_sidecar)
        assert payload["k"] == 30000.0
        assert "warnings" not in payload
        # the same k given explicitly applies and is not flagged
        payload = self._evppi(capsys, lg_with_sidecar, "--k", "30000")
        assert "warnings" not in payload

    def test_explicit_k_differing_from_sidecar_warns(self, capsys, lg_with_sidecar):
        default = self._evppi(capsys, lg_with_sidecar)
        payload = self._evppi(capsys, lg_with_sidecar, "--k", "5000")
        assert payload["k"] == 30000.0
        assert payload["value"] == default["value"]
        assert any("--k 5000 does not apply" in w and "k=30000" in w
                   for w in payload["warnings"])

    def test_nb_only_file_without_sidecar_reports_null(self, capsys, lin_csv):
        payload = self._evppi(capsys, lin_csv)
        assert payload["k"] is None
        assert "warnings" not in payload
        payload = self._evppi(capsys, lin_csv, "--k", "0")
        assert payload["k"] is None
        assert any("--k 0 does not apply" in w and "unknown k" in w
                   for w in payload["warnings"])

    @pytest.mark.parametrize("text, cause", [
        ("not json", "JSONDecodeError('Expecting value: line 1 column 1 (char 0)')"),
        ('{"seed": 2}', "KeyError('k')"),
    ])
    def test_unreadable_sidecar_warns_and_reports_null(
        self, capsys, tmp_path, text, cause
    ):
        path = tmp_path / "lg.csv"
        write_psa_csv(path, generate_psa(LinearGaussianSpec(), 400, seed=2))
        sidecar = tmp_path / "lg.csv.provenance.json"
        sidecar.write_text(text, encoding="utf-8")
        rc, out, err = _run(capsys, [
            "evppi", "--file", str(path), "--method", "so", "--params", "phi",
            "--bins", "10",
        ])
        assert rc == 0
        assert err == ""
        payload = json.loads(out)
        assert payload["k"] is None
        assert payload["warnings"] == [f"cannot read k from {sidecar}: {cause}"]

    def test_effect_cost_file_reports_given_k(self, capsys, toy_csv):
        rc, out, _ = _run(capsys, [
            "evppi", "--file", toy_csv, "--method", "so",
            "--params", "risk_reduction", "--bins", "10", "--k", "5000",
        ])
        assert rc == 0
        payload = json.loads(out)
        assert payload["k"] == 5000.0
        assert "warnings" not in payload

    def test_compare_reports_file_k_and_warns(self, capsys, lin_csv):
        rc, out, _ = _run(capsys, [
            "compare", "--file", lin_csv, "--params", "phi", "--bootstrap", "0",
            "--changes", "1", "--format", "json", "--k", "0",
        ])
        assert rc == 0
        payload = json.loads(out)
        assert payload["k"] is None
        assert any("--k 0 does not apply" in w for w in payload["warnings"])

    def test_compare_table_warns_on_stderr(self, capsys, lin_csv):
        rc, out, err = _run(capsys, [
            "compare", "--file", lin_csv, "--params", "phi", "--bootstrap", "0",
            "--changes", "1", "--k", "0",
        ])
        assert rc == 0
        assert "does not apply" not in out
        assert "voikit: warning: --k 0 does not apply" in err

    def test_compare_model_uses_k_for_nested_mc(self, capsys, toy_nb_only):
        cells = {}
        for k in ("5000", "20000"):
            rc, out, _ = _run(capsys, [
                "compare", "--file", toy_nb_only, "--params", "risk_reduction",
                "--bootstrap", "0", "--changes", "1", "--format", "json",
                "--model", "toy", "--mc-outer", "60", "--mc-inner", "30",
                "--k", k,
            ])
            assert rc == 0
            payload = json.loads(out)
            assert payload["k"] is None
            assert any("nested-MC column uses --k" in w for w in payload["warnings"])
            cells[k] = payload["rows"][0]["cells"]
        # the file's net benefit is fixed; the model is re-priced at --k
        assert cells["5000"]["GAM"] == cells["20000"]["GAM"]
        assert cells["5000"]["MC"]["value"] != cells["20000"]["MC"]["value"]


class TestSweepCommand:
    def test_nb_only_file_is_rejected(self, capsys, lin_csv):
        rc, _, err = _run(capsys, [
            "sweep", "--file", lin_csv, "--params", "phi",
        ])
        assert rc == 1
        assert "effect/cost" in err

    def test_model_without_effects_and_costs_is_named(self, capsys):
        rc, out, err = _run(capsys, [
            "sweep", "--model", "linear-gaussian", "--params", "phi", "--sims", "100",
        ])
        assert rc == 1
        assert out == ""
        assert err == (
            "voikit: error: model linear-gaussian defines net benefit directly in "
            "currency, so there is no willingness to pay to sweep\n"
        )

    def test_model_sweep_reports_flip_point(self, capsys):
        rc, out, _ = _run(capsys, [
            "sweep", "--model", "toy", "--params", "risk_reduction",
            "--k-grid", "10000:30000:5000", "--sims", "2000", "--seed", "4",
        ])
        assert rc == 0
        payload = json.loads(out)
        assert payload["k_grid"] == [10000, 15000, 20000, 25000, 30000]
        assert len(payload["evpi"]) == 5
        assert len(payload["evppi"]["risk_reduction"]) == 5
        assert payload["k_star"] == pytest.approx(20_000, rel=0.25)

    def test_single_point_grid(self, capsys, toy_csv):
        rc, out, _ = _run(capsys, [
            "sweep", "--file", toy_csv, "--params", "risk_reduction",
            "--k-list", "20000", "--k", "20000",
        ])
        assert rc == 0
        payload = json.loads(out)
        assert len(payload["evpi"]) == 1
        assert "k_star" not in payload

    def test_evpi_dominates_evppi_pointwise(self, capsys, toy_csv):
        rc, out, _ = _run(capsys, [
            "sweep", "--file", toy_csv, "--params", "risk_reduction",
            "--k-grid", "10000:30000:10000", "--k", "20000",
        ])
        assert rc == 0
        payload = json.loads(out)
        for e, p in zip(payload["evpi"], payload["evppi"]["risk_reduction"]):
            assert p <= e + 1e-9

    def test_empty_k_list_is_a_usage_error(self, capsys, toy_csv):
        # not the default grid
        rc, out, err = _run(capsys, [
            "sweep", "--file", toy_csv, "--params", "risk_reduction", "--k-list", "",
        ])
        assert rc == 1
        assert out == ""
        assert err == "voikit: error: --k-list expects comma-separated numbers, got ''\n"

    def test_bad_grid(self, capsys, toy_csv):
        rc, _, err = _run(capsys, [
            "sweep", "--file", toy_csv, "--params", "risk_reduction",
            "--k-grid", "5:1:2",
        ])
        assert rc == 1

    def test_relative_cap_reads_zero_where_the_evpi_is_zero(self, capsys, tmp_path):
        # arm 1 costs more in every row: at k = 0 arm 0 is best in every row
        # and the EVPI is 0; at k = 20000 arm 1 is best above phi of about 0.5
        rng = np.random.default_rng(7)
        phi = rng.uniform(0.0, 2.0, size=500)
        effects = np.column_stack([np.ones(500), 0.5 + phi])
        costs = np.column_stack([np.full(500, 100.0), 200.0 + phi])
        path = tmp_path / "dominated_at_zero.csv"
        write_psa_csv(path, PsaSample(
            ("phi",), phi[:, None], nb=build_nb(effects, costs, 20000.0),
            effects=effects, costs=costs, k=20000.0,
        ))
        argv = ["--file", str(path), "--method", "so", "--params", "phi"]
        relative = ["--bias-threshold-relative", "0.1"]
        rc, out, err = _run(capsys, ["sweep", *argv, *relative, "--k-list", "0,20000"])
        assert rc == 0
        assert err == ""
        payload = json.loads(out)
        assert payload["evpi"][0] == 0.0
        assert payload["evppi"]["phi"][0] == 0.0
        # the other grid point is the evppi command's estimate at its k
        rc, out, _ = _run(capsys, ["evppi", *argv, *relative, "--k", "20000"])
        assert rc == 0
        assert payload["evppi"]["phi"][1] == json.loads(out)["value"] > 0
        # under the absolute cap, the estimate at k = 0 is computed: 0 as well
        rc, out, _ = _run(capsys, ["sweep", *argv, "--k-list", "0,20000"])
        assert rc == 0
        assert json.loads(out)["evppi"]["phi"][0] == 0.0


class TestLibraryEstimate:
    """``voikit.estimate`` gives what ``voikit evppi`` prints, and breaks a
    method rule with the CLI's words."""

    @pytest.mark.parametrize("csv, params, method, flags, kwargs", [
        pytest.param("lin_csv", "phi", "so", [], {}, id="so-auto"),
        pytest.param("lin_csv", "phi", "so", ["--bins", "40"], {"bins": 40}, id="so-bins"),
        pytest.param(
            "lin_csv", "phi", "so", ["--bias-threshold-relative", "0.01"],
            {"bias_threshold_relative": 0.01}, id="so-relative",
        ),
        pytest.param("lin_csv", "phi", "sad", ["--changes", "1"], {"changes": 1}, id="sad"),
        pytest.param(
            "toy_csv", "risk_reduction,p_infection", "gam", ["--interactions", "none"],
            {"interactions": "none"}, id="gam",
        ),
        pytest.param("lin_csv", "phi", "gp", [], {}, id="gp"),
    ])
    def test_matches_the_evppi_command(
        self, capsys, request, csv, params, method, flags, kwargs
    ):
        path = request.getfixturevalue(csv)
        rc, out, _ = _run(capsys, [
            "evppi", "--file", path, "--method", method, "--params", params,
            "--bootstrap", "5", "--seed", "2", *flags,
        ])
        assert rc == 0
        payload = json.loads(out)
        del payload["subset"], payload["k"]
        result = estimate(
            read_psa_csv(path, k=20000.0), params.split(","), method,
            bootstrap=5, seed=2, **kwargs,
        )
        assert json.loads(json.dumps(result.to_dict())) == payload

    @pytest.mark.parametrize("flags, names, method, kwargs", [
        pytest.param(["--method", "sad", "--params", "phi"], ["phi"], "sad", {},
                     id="sad-needs-changes"),
        pytest.param(["--method", "so", "--params", "phi,psi"], ["phi", "psi"], "so", {},
                     id="so-one-name"),
        pytest.param(["--method", "sad", "--params", "phi,psi", "--changes", "1"],
                     ["phi", "psi"], "sad", {"changes": 1}, id="sad-one-name"),
        pytest.param(["--method", "sad", "--params", "phi", "--changes", "psi=1"],
                     ["phi"], "sad", {"changes": {"psi": 1}}, id="sad-cover"),
        # a worker count or seed out of range, refused by every method
        *(
            pytest.param(
                ["--method", method, "--params", "phi", "--bootstrap", "4", flag, value],
                ["phi"], method, {"bootstrap": 4, flag[2:]: int(value)},
                id=f"{method}{flag}={value}",
            )
            for method in ("so", "gam", "gp")
            for flag, value in (("--threads", "0"), ("--threads", "-3"), ("--seed", "-1"))
        ),
    ])
    def test_rule_message_matches_the_cli(
        self, capsys, lin_csv, flags, names, method, kwargs
    ):
        rc, out, err = _run(capsys, ["evppi", "--file", lin_csv, *flags])
        assert rc == 1
        # a range error is a ValueError, a method rule the MethodRuleError
        # subclass of it
        rule = ValueError if {"--threads", "--seed"} & set(flags) else MethodRuleError
        with pytest.raises(rule) as info:
            estimate(read_psa_csv(lin_csv), names, method, **kwargs)
        assert err == f"voikit: error: {info.value}\n"

    def test_relative_cap_message_matches_the_cli(self, capsys, tmp_path):
        rng = np.random.default_rng(6)
        nb0 = rng.normal(size=500)
        sample = PsaSample(
            ("phi",), rng.normal(size=(500, 1)), nb=np.column_stack([nb0, nb0 + 1.0])
        )
        path = tmp_path / "dominated.csv"
        write_psa_csv(path, sample)
        rc, out, err = _run(capsys, [
            "evppi", "--file", str(path), "--method", "so", "--params", "phi",
            "--bias-threshold-relative", "0.01",
        ])
        assert rc == 1
        with pytest.raises(MethodRuleError) as info:
            estimate(sample, ["phi"], "so", bias_threshold_relative=0.01)
        assert err == f"voikit: error: {info.value}\n"
        assert info.value.cell is None

    @pytest.mark.parametrize("names, method, kwargs, cell", [
        pytest.param(["phi", "psi"], "so", {}, "single-parameter method", id="so-two"),
        pytest.param(["phi", "psi"], "SAD", {"changes": 1}, "single-parameter method",
                     id="sad-two"),
        pytest.param(["phi"], "sad", {}, "changes not provided", id="sad-no-count"),
        pytest.param(["phi"], "sad", {"changes": {}}, "changes not provided",
                     id="sad-count-missing"),
    ])
    def test_rule_error_carries_the_table_reason(self, lin_csv, names, method, kwargs, cell):
        with pytest.raises(MethodRuleError) as info:
            estimate(read_psa_csv(lin_csv), names, method, **kwargs)
        assert isinstance(info.value, ValueError)
        assert info.value.cell == cell

    @pytest.mark.parametrize("kwargs", [
        {"bins": 10, "bias_threshold": 0.5},
        {"bins": 10, "bias_threshold_relative": 0.1},
        {"bias_threshold": 0.5, "bias_threshold_relative": 0.1},
    ], ids=["bins-absolute", "bins-relative", "absolute-relative"])
    def test_bin_choices_exclude_each_other(self, lin_csv, kwargs):
        with pytest.raises(ValueError, match="at most one of bins"):
            estimate(read_psa_csv(lin_csv), ["phi"], "so", **kwargs)

    @pytest.mark.parametrize("method, kwargs", [
        ("so", {}), ("sad", {"changes": 1}), ("gam", {}), ("gp", {}),
        ("so", {"bootstrap": 3}), ("sad", {"changes": {"phi": 1}, "bootstrap": 3}),
    ])
    def test_names_are_looked_up_once(self, monkeypatch, lin_csv, method, kwargs):
        from voikit.psa import ParamSubset

        sample = read_psa_csv(lin_csv)
        calls = []
        lookup = ParamSubset.from_names.__func__

        def counting(cls, names, param_names):
            calls.append(list(names))
            return lookup(cls, names, param_names)

        monkeypatch.setattr(ParamSubset, "from_names", classmethod(counting))
        estimate(sample, ["phi"], method, **kwargs)
        assert calls == [["phi"]]

    @pytest.mark.parametrize("method, kwargs", [
        ("so", {}), ("sad", {"changes": 1}), ("gam", {}), ("gp", {}),
    ])
    def test_unknown_name_reads_the_same_from_every_method(self, lin_csv, method, kwargs):
        with pytest.raises(ValueError) as info:
            estimate(read_psa_csv(lin_csv), ["bogus"], method, **kwargs)
        assert str(info.value) == "unknown parameter name(s) ['bogus']; available: ['phi', 'psi']"

    def test_one_count_equals_a_count_for_the_name(self, lin_csv):
        sample = read_psa_csv(lin_csv)
        assert estimate(sample, ["phi"], "sad", changes=1) == estimate(
            sample, ["phi"], "sad", changes={"phi": 1}
        )


class TestVistoolCommand:
    def test_curve_csv_to_stdout(self, capsys, lin_csv):
        rc, out, _ = _run(capsys, [
            "vistool", "--file", lin_csv, "--param", "phi",
        ])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "phi,cumsum"
        assert len(lines) == 2_001
        assert float(lines[1].split(",")[1]) == 0.0

    def test_curve_is_each_value_repr(self, capsys, tmp_path):
        # three treatments; the parameter column holds signed zero, a
        # subnormal and repr's exponent forms
        edges = [-0.0, 5e-324, 1e16, 1e-5, 0.1]
        sample = PsaSample(
            param_names=("x",),
            params=np.array(edges)[:, None],
            nb=np.column_stack([edges, edges[::-1], np.zeros(5)]),
        )
        path = tmp_path / "edges.csv"
        write_psa_csv(path, sample)
        curve = cumsum_curve(sample, 0, 2, 0)
        expected = "phi,cumsum\n" + "".join(
            f"{repr(float(x))},{repr(float(c))}\n" for x, c in zip(curve.phi, curve.values)
        )
        rc, out, _ = _run(capsys, [
            "vistool", "--file", str(path), "--param", "x", "--treatments", "2", "0",
        ])
        assert rc == 0
        assert out == expected
        assert out.splitlines()[1] == "-0.0,0.0"

    def test_k_on_nb_only_file_warns_on_stderr(self, capsys, lin_csv):
        rc, plain, err = _run(capsys, ["vistool", "--file", lin_csv, "--param", "phi"])
        assert rc == 0 and err == ""
        rc, out, err = _run(capsys, [
            "vistool", "--file", lin_csv, "--param", "phi", "--k", "5",
        ])
        assert rc == 0
        assert out == plain  # the curve does not depend on --k here
        assert err.startswith("voikit: warning: --k 5 does not apply")
        assert "unknown k" in err

    def test_missing_param_lists_available(self, capsys, lin_csv):
        rc, _, err = _run(capsys, [
            "vistool", "--file", lin_csv, "--param", "missing",
        ])
        assert rc == 1
        assert "phi" in err and "psi" in err

    def test_out_file(self, capsys, lin_csv, tmp_path):
        dest = tmp_path / "curve.csv"
        rc, out, _ = _run(capsys, [
            "vistool", "--file", lin_csv, "--param", "phi", "--out", str(dest),
        ])
        assert rc == 0
        assert dest.read_text(encoding="utf-8").startswith("phi,cumsum")


class TestSimulateCommand:
    def test_round_trip_and_sidecar(self, capsys, tmp_path):
        out_path = tmp_path / "sim.csv"
        rc, _, _ = _run(capsys, [
            "simulate", "--model", "linear-gaussian", "--sims", "300",
            "--seed", "7", "--out", str(out_path),
        ])
        assert rc == 0
        sample = read_psa_csv(out_path)
        direct = generate_psa(LinearGaussianSpec(), 300, seed=7)
        assert np.array_equal(sample.params, direct.params)
        assert np.array_equal(sample.nb, direct.nb)
        sidecar = json.loads(
            (tmp_path / "sim.csv.provenance.json").read_text(encoding="utf-8")
        )
        assert sidecar["seed"] == 7
        assert sidecar["spec"]["model"] == "linear_gaussian"

    def test_same_seed_same_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            rc, _, _ = _run(capsys, [
                "simulate", "--model", "toy", "--sims", "100",
                "--seed", "9", "--out", str(path),
            ])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for seed, path in ((1, a), (2, b)):
            rc, _, _ = _run(capsys, [
                "simulate", "--model", "toy", "--sims", "100",
                "--seed", str(seed), "--out", str(path),
            ])
            assert rc == 0
        assert a.read_bytes() != b.read_bytes()

    def test_negative_seed_rejected_before_writing(self, capsys, tmp_path):
        out_path = tmp_path / "sim.csv"
        rc, out, err = _run(capsys, [
            "simulate", "--model", "toy", "--sims", "50", "--seed", "-1",
            "--out", str(out_path),
        ])
        assert rc == 1
        assert out == ""
        assert err == "voikit: error: --seed must be at least 0, got -1\n"
        assert not out_path.exists()

    def test_unwritable_path(self, capsys, tmp_path):
        dest = tmp_path / "missing" / "x.csv"
        rc, out, err = _run(capsys, [
            "simulate", "--model", "toy", "--sims", "100", "--out", str(dest),
        ])
        _assert_one_error_line(rc, out, err, dest)

    def test_spec_json_model(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps({"model": "linear_gaussian", "a": 1.0, "b": 2.0}),
            encoding="utf-8",
        )
        out_path = tmp_path / "sim.csv"
        rc, _, _ = _run(capsys, [
            "simulate", "--model", str(spec_path), "--sims", "50",
            "--seed", "0", "--out", str(out_path),
        ])
        assert rc == 0
        sample = read_psa_csv(out_path)
        direct = generate_psa(LinearGaussianSpec(a=1.0, b=2.0), 50, seed=0)
        assert np.array_equal(sample.nb, direct.nb)


class TestUsageErrors:
    def test_unknown_method_flag(self, capsys, lin_csv):
        with pytest.raises(SystemExit) as e:
            main(["evppi", "--file", lin_csv, "--method", "ols", "--params", "phi"])
        assert e.value.code == 1

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate"])
        assert e.value.code == 1

    @pytest.mark.parametrize("flags", [
        ["--bins", "10", "--bias-threshold", "5"],
        ["--bins", "10", "--bias-threshold-relative", "0.01"],
        ["--bias-threshold", "5", "--bias-threshold-relative", "0.01"],
    ], ids=["bins-absolute", "bins-relative", "absolute-relative"])
    def test_bin_count_flags_are_exclusive(self, capsys, lin_csv, flags):
        # all three set the one SO bin count
        with pytest.raises(SystemExit) as e:
            main(["evppi", "--file", lin_csv, "--method", "so", "--params", "phi", *flags])
        assert e.value.code == 1
        assert "not allowed with argument" in capsys.readouterr().err

    def test_k_grid_and_k_list_are_exclusive(self, capsys, toy_csv):
        # the k-list used to win silently
        with pytest.raises(SystemExit) as e:
            main([
                "sweep", "--file", toy_csv, "--params", "risk_reduction",
                "--k-grid", "0:40000:20000", "--k-list", "5,6",
            ])
        assert e.value.code == 1
        assert (
            "argument --k-list: not allowed with argument --k-grid"
            in capsys.readouterr().err
        )

    def test_sims_with_file_is_a_usage_error(self, capsys, toy_csv):
        # the file fixes the sample, so --sims used to be ignored
        rc, out, err = _run(capsys, [
            "sweep", "--file", toy_csv, "--params", "risk_reduction", "--sims", "500",
        ])
        assert rc == 1
        assert out == ""
        assert err == (
            "voikit: error: --sims applies only with --model; --file fixes the sample\n"
        )

    @pytest.mark.parametrize("argv", [
        ["evppi", "--method", "gam"],
        ["compare", "--bootstrap", "0"],
    ], ids=["evppi", "compare"])
    def test_repeated_parameter_is_named(self, capsys, toy_csv, argv):
        rc, out, err = _run(capsys, [
            *argv, "--file", toy_csv, "--params", "risk_reduction,risk_reduction",
        ])
        assert rc == 1
        assert out == ""
        assert err == (
            "voikit: error: parameter 'risk_reduction' is given twice in the subset\n"
        )

    @pytest.mark.parametrize("flag", ["--bootstrap", "--threads"])
    def test_sweep_has_no_bootstrap_flags(self, capsys, toy_csv, flag):
        # a sweep reports values only, so replicates would be thrown away
        with pytest.raises(SystemExit) as e:
            main([
                "sweep", "--file", toy_csv, "--params", "risk_reduction",
                "--method", "sad", "--changes", "1", "--k-list", "10000,20000",
                flag, "2",
            ])
        assert e.value.code == 1
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        pytest.param(
            ["compare", "--params", "phi", "--bootstrap", "1"],
            "--bootstrap must be 0 (no standard error) or at least 2, got 1",
            id="bootstrap",
        ),
        pytest.param(
            ["evppi", "--method", "so", "--params", "phi", "--threads", "-4"],
            "--threads must be at least 1, got -4",
            id="threads",
        ),
        pytest.param(
            ["compare", "--params", "phi", "--model", "linear-gaussian",
             "--mc-outer", "0"],
            "--mc-outer must be at least 2, got 0",
            id="mc-outer",
        ),
        pytest.param(
            ["compare", "--params", "phi", "--model", "linear-gaussian",
             "--mc-inner", "0"],
            "--mc-inner must be at least 1, got 0",
            id="mc-inner",
        ),
        *(
            pytest.param(
                command + ["--params", "phi", "--seed", "-1"],
                "--seed must be at least 0, got -1",
                id=f"seed-{name}",
            )
            for name, command in (
                ("compare-table", ["compare", "--changes", "1", "--bootstrap", "2"]),
                ("compare-json", ["compare", "--format", "json"]),
                ("evppi", ["evppi", "--method", "gam"]),
                ("sweep", ["sweep"]),
            )
        ),
    ])
    def test_bad_count_rejected_before_any_work(self, capsys, tmp_path, argv, message):
        # the file does not exist: the count is checked before it is opened
        missing = str(tmp_path / "missing.csv")
        rc, out, err = _run(capsys, argv[:1] + ["--file", missing] + argv[1:])
        assert rc == 1
        assert out == ""
        assert err == f"voikit: error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        pytest.param(
            ["sweep", "--params", "phi", "--k-grid", "5:1:2"],
            "--k-grid expects min <= max and step > 0",
            id="sweep-k-grid",
        ),
        pytest.param(
            ["sweep", "--params", "phi", "--k-list", ""],
            "--k-list expects comma-separated numbers, got ''",
            id="sweep-k-list",
        ),
        pytest.param(
            ["sweep", "--params", ";"], "no parameter names given", id="sweep-params"
        ),
        pytest.param(
            ["compare", "--params", ";"], "no parameter names given", id="compare-params"
        ),
        pytest.param(
            ["evppi", "--method", "gam", "--params", ","], "no parameter names given",
            id="evppi-params",
        ),
        pytest.param(
            ["compare", "--params", "phi", "--model", "no-such-model"],
            "unknown model 'no-such-model': expected 'linear-gaussian', 'toy' "
            "or a JSON file",
            id="compare-model",
        ),
    ])
    def test_bad_flag_rejected_before_the_sample_is_read(
        self, capsys, tmp_path, argv, message
    ):
        # the file does not exist: the flag is checked before it is opened
        missing = str(tmp_path / "missing.csv")
        rc, out, err = _run(capsys, argv[:1] + ["--file", missing] + argv[1:])
        assert rc == 1
        assert out == ""
        assert err == f"voikit: error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        pytest.param(
            ["sweep", "--file", "psa.csv", "--method", "sad", "--params", "phi"],
            _SAD_NEEDS_CHANGES, id="sweep-sad-file",
        ),
        pytest.param(
            ["sweep", "--model", "toy", "--method", "sad", "--params", "risk_reduction"],
            _SAD_NEEDS_CHANGES, id="sweep-sad-model",
        ),
        pytest.param(
            ["sweep", "--model", "toy", "--method", "so",
             "--params", "risk_reduction;risk_reduction,p_infection"],
            "method so handles a single parameter only, got 2", id="sweep-so-subset",
        ),
        pytest.param(
            ["evppi", "--file", "psa.csv", "--method", "sad", "--params", "phi"],
            _SAD_NEEDS_CHANGES, id="evppi-sad",
        ),
        pytest.param(
            ["evppi", "--file", "psa.csv", "--method", "sad", "--params", "phi,psi",
             "--changes", "1"],
            "method sad handles a single parameter only, got 2", id="evppi-sad-subset",
        ),
        pytest.param(
            ["simulate", "--model", "toy", "--sims", "1", "--out", "psa.csv"],
            "--sims must be at least 2, got 1", id="simulate-sims",
        ),
        pytest.param(
            ["sweep", "--model", "toy", "--params", "risk_reduction", "--sims", "1"],
            "--sims must be at least 2, got 1", id="sweep-sims",
        ),
        pytest.param(
            ["evppi", "--file", "psa.csv", "--method", "sad", "--params", "phi",
             "--changes", "abc"],
            "--changes expects an integer or name=int pairs, got 'abc'", id="changes-abc",
        ),
        pytest.param(
            ["evppi", "--file", "psa.csv", "--method", "sad", "--params", "phi",
             "--changes", "phi=x"],
            "bad --changes entry 'phi=x'", id="changes-pair-x",
        ),
        pytest.param(
            ["evppi", "--file", "psa.csv", "--method", "sad", "--params", "phi",
             "--changes", "-1"],
            "--changes counts must be at least 0, got -1", id="changes-negative",
        ),
        pytest.param(
            ["evppi", "--file", "psa.csv", "--method", "sad", "--params", "phi",
             "--changes", "phi=1,phi=2"],
            "--changes gives 'phi' twice", id="changes-twice",
        ),
        pytest.param(
            ["evppi", "--file", "psa.csv", "--method", "so", "--params", "phi",
             "--changes", "-1"],
            "--changes counts must be at least 0, got -1", id="changes-negative-so",
        ),
        pytest.param(
            ["compare", "--file", "psa.csv", "--params", "phi", "--changes", "psi=2,phi=-1"],
            "--changes counts must be at least 0, got -1", id="compare-changes-negative",
        ),
        pytest.param(
            ["sweep", "--model", "toy", "--method", "sad", "--params", "risk_reduction",
             "--changes", "risk_reduction=-2"],
            "--changes counts must be at least 0, got -2", id="sweep-changes-negative",
        ),
        pytest.param(
            ["evppi", "--file", "psa.csv", "--method", "sad", "--params", "phi",
             "--changes", "bogus=y"],
            "bad --changes entry 'bogus=y'", id="changes-syntax-before-name",
        ),
    ])
    def test_flag_rule_rejected_before_any_sample(self, capsys, monkeypatch, argv, message):
        import voikit.cli as cli

        def no_sample(*args, **kwargs):
            raise AssertionError("a sample was read or generated")

        monkeypatch.setattr(cli, "read_psa_csv", no_sample)
        monkeypatch.setattr(cli, "generate_psa", no_sample)
        rc, out, err = _run(capsys, argv)
        assert rc == 1
        assert out == ""
        assert err == f"voikit: error: {message}\n"

    @pytest.mark.parametrize("source", ["file", "model"])
    def test_changes_cover_every_sweep_subset_before_any_estimate(
        self, capsys, monkeypatch, toy_csv, source
    ):
        def no_pricing(*args, **kwargs):
            raise AssertionError("the sample was priced at a grid point")

        monkeypatch.setattr(PsaSample, "at_wtp", no_pricing)
        where = ["--file", toy_csv] if source == "file" else ["--model", "toy", "--sims", "50"]
        rc, out, err = _run(capsys, [
            "sweep", *where, "--method", "sad", "--params", "risk_reduction;p_infection",
            "--changes", "risk_reduction=1", "--k-list", "10000,20000",
        ])
        assert rc == 1
        assert out == ""
        assert err == "voikit: error: --changes does not cover parameter 'p_infection'\n"

    @pytest.mark.parametrize("argv, value", [
        pytest.param(["evppi", "--method", "so", "--params", "phi"], "-1", id="evppi"),
        pytest.param(["evppi", "--method", "gp", "--params", "phi"], "nan", id="evppi-nan"),
        pytest.param(["evppi", "--method", "gam", "--params", "phi"], "inf", id="evppi-inf"),
        pytest.param(["compare", "--params", "phi", "--model", "toy"], "-1", id="compare"),
        pytest.param(["sweep", "--params", "phi"], "-1", id="sweep"),
        pytest.param(["vistool", "--param", "phi"], "-1", id="vistool"),
    ])
    def test_bad_k_rejected_before_any_work(self, capsys, tmp_path, argv, value):
        # the file does not exist: --k is checked before it is opened
        missing = str(tmp_path / "missing.csv")
        rc, out, err = _run(capsys, [argv[0], "--file", missing, *argv[1:], "--k", value])
        assert rc == 1
        assert out == ""
        assert err == f"voikit: error: --k must be finite and >= 0, got {float(value)}\n"

    def test_bad_k_rejected_before_simulating(self, capsys, tmp_path):
        # neither the sample nor a sidecar recording k = -1.0 is written
        out_path = tmp_path / "sim.csv"
        rc, out, err = _run(capsys, [
            "simulate", "--model", "linear-gaussian", "--sims", "50", "--k", "-1",
            "--out", str(out_path),
        ])
        assert rc == 1
        assert out == ""
        assert err == "voikit: error: --k must be finite and >= 0, got -1.0\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fraction", ["0", "-0.01", "nan", "inf"])
    def test_bad_relative_fraction_rejected_before_any_work(self, capsys, tmp_path, fraction):
        missing = str(tmp_path / "missing.csv")
        rc, out, err = _run(capsys, [
            "evppi", "--file", missing, "--method", "so", "--params", "phi",
            "--bias-threshold-relative", fraction,
        ])
        assert rc == 1
        assert out == ""
        assert err == (
            "voikit: error: --bias-threshold-relative must be positive and finite, "
            f"got {float(fraction)}\n"
        )

    @pytest.mark.parametrize("command", [
        ["evppi", "--method", "so"],
        ["compare", "--changes", "1", "--bootstrap", "0"],
        ["compare", "--changes", "1", "--bootstrap", "0", "--format", "json"],
        ["sweep", "--method", "so"],
    ], ids=["evppi", "compare-table", "compare-json", "sweep"])
    @pytest.mark.parametrize("flag, value, message", [
        pytest.param("--bins", "0", "--bins must be at least 1, got 0", id="bins"),
        *(
            pytest.param(
                "--bias-threshold", value,
                f"--bias-threshold must be positive and finite, got {float(value)}",
                id=f"threshold={value}",
            )
            for value in ("0", "-1", "nan", "inf")
        ),
    ])
    def test_bad_so_flag_rejected_before_any_work(
        self, capsys, tmp_path, command, flag, value, message
    ):
        # SO would report these as a "-" cell in compare, not as an error
        missing = str(tmp_path / "missing.csv")
        rc, out, err = _run(capsys, [
            command[0], "--file", missing, "--params", "risk_reduction",
            *command[1:], flag, value,
        ])
        assert rc == 1
        assert out == ""
        assert err == f"voikit: error: {message}\n"

    def test_changes_naming_a_parameter_twice_is_rejected(self, capsys, toy_csv):
        rc, out, err = _run(capsys, [
            "evppi", "--file", toy_csv, "--method", "sad", "--params", "risk_reduction",
            "--changes", "risk_reduction=1,risk_reduction=2",
        ])
        assert rc == 1
        assert out == ""
        assert err == "voikit: error: --changes gives 'risk_reduction' twice\n"

    def test_changes_naming_an_unknown_parameter_is_rejected(self, capsys, toy_csv):
        rc, out, err = _run(capsys, [
            "compare", "--file", toy_csv, "--params", "risk_reduction;p_infection",
            "--changes", "risk_reduction=1,p_infectoin=1", "--bootstrap", "0",
        ])
        assert rc == 1
        assert out == ""
        assert err.startswith(
            "voikit: error: --changes names 'p_infectoin', which is not one of "
            "the sample's parameters; available: ["
        )

    def test_relative_cap_needs_positive_evpi(self, capsys, tmp_path):
        # arm 1 is best in every row, so the EVPI and any fraction of it are 0
        rng = np.random.default_rng(6)
        nb0 = rng.normal(size=500)
        path = tmp_path / "dominated.csv"
        write_psa_csv(path, PsaSample(
            ("phi",), rng.normal(size=(500, 1)), nb=np.column_stack([nb0, nb0 + 1.0]),
        ))
        rc, out, err = _run(capsys, [
            "evppi", "--file", str(path), "--method", "so", "--params", "phi",
            "--bias-threshold-relative", "0.01",
        ])
        assert rc == 1
        assert out == ""
        assert "--bias-threshold-relative" in err
        assert "EVPI, which is 0" in err

    @pytest.mark.parametrize("argv, message", [
        pytest.param(
            ["evppi", "--method", "sad", "--params", "phi", "--changes", "x"],
            "--changes expects an integer or name=int pairs, got 'x'",
            id="changes-not-a-count",
        ),
        pytest.param(
            ["evppi", "--method", "sad", "--params", "phi", "--changes", "phi=x"],
            "bad --changes entry 'phi=x'",
            id="changes-bad-pair",
        ),
        pytest.param(
            ["evppi", "--method", "sad", "--params", "phi", "--changes", "psi=1"],
            "--changes does not cover parameter 'phi'",
            id="changes-miss-the-parameter",
        ),
        pytest.param(
            ["sweep", "--params", "phi", "--k-list", "5,3"],
            "willingness-to-pay grid must be finite and strictly increasing",
            id="k-list-decreasing",
        ),
        pytest.param(
            ["sweep", "--params", "phi", "--k-list=-1,2"],
            "willingness-to-pay values must be >= 0",
            id="k-list-negative",
        ),
        pytest.param(
            ["sweep", "--params", "phi", "--k-grid", "5:1"],
            "--k-grid expects min:max:step",
            id="k-grid-two-fields",
        ),
        pytest.param(
            ["sweep", "--params", "phi", "--k-grid", "1e16:1e16:1"],
            "willingness-to-pay grid must be finite and strictly increasing",
            id="k-grid-rounds-to-no-point",
        ),
    ])
    def test_bad_flag_value_is_a_usage_error(self, capsys, lin_csv, argv, message):
        rc, out, err = _run(capsys, argv[:1] + ["--file", lin_csv] + argv[1:])
        assert rc == 1
        assert out == ""
        assert err == f"voikit: error: {message}\n"

    def test_unparsable_model_spec_is_a_usage_error(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text("not json", encoding="utf-8")
        rc, out, err = _run(capsys, [
            "simulate", "--model", str(spec), "--sims", "100",
            "--out", str(tmp_path / "out.csv"),
        ])
        assert rc == 1
        assert out == ""
        assert err == (
            f"voikit: error: cannot parse model spec {spec}: "
            "Expecting value: line 1 column 1 (char 0)\n"
        )
        assert not (tmp_path / "out.csv").exists()


class TestErrorBoundary:
    """main maps a path it cannot read or write, or a file that is not UTF-8,
    to exit 1 with one line naming the path."""

    def test_evppi_file_is_a_directory(self, capsys, tmp_path):
        rc, out, err = _run(capsys, [
            "evppi", "--file", str(tmp_path), "--method", "so", "--params", "phi",
        ])
        _assert_one_error_line(rc, out, err, tmp_path)

    def test_vistool_out_is_a_directory(self, capsys, tmp_path, lin_csv):
        rc, out, err = _run(capsys, [
            "vistool", "--file", lin_csv, "--param", "phi", "--out", str(tmp_path),
        ])
        _assert_one_error_line(rc, out, err, tmp_path)

    def test_file_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("param:caf\u00e9,nb:0,nb:1\n1,2,3\n".encode("latin-1"))
        rc, out, err = _run(capsys, [
            "evppi", "--file", str(path), "--method", "so", "--params", "phi",
        ])
        assert rc == 1
        assert out == ""
        assert err.startswith(f"voikit: error: {path}: not UTF-8 text: ")
        assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    pytest.param(["sweep", "--method", "sad", "--params", "risk_reduction",
                  "--k-list", "0,10000,20000,30000,40000"], id="sweep-5-points"),
    pytest.param(["compare", "--params", "risk_reduction;p_infection",
                  "--bootstrap", "0"], id="compare-2-subsets"),
    pytest.param(["evppi", "--method", "sad", "--params", "risk_reduction"], id="evppi"),
])
def test_changes_parsed_once_per_command(capsys, monkeypatch, toy_csv, argv):
    import voikit.cli as cli

    calls = []
    parse = cli._parse_changes

    def counting(*args):
        calls.append(args)
        return parse(*args)

    monkeypatch.setattr(cli, "_parse_changes", counting)
    rc, _, _ = _run(capsys, [*argv, "--file", toy_csv, "--changes", "1"])
    assert rc == 0
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    pytest.param(["evppi", "--method", "sad", "--params", "risk_reduction"], id="evppi"),
    pytest.param(["compare", "--params", "risk_reduction;p_infection", "--bootstrap", "0"],
                 id="compare"),
    pytest.param(["sweep", "--method", "sad", "--params", "risk_reduction",
                  "--k-list", "10000,20000"], id="sweep"),
])
@pytest.mark.parametrize("flag, changes", [
    ([], None), (["--changes", "1"], 1), (["--changes", "risk_reduction=2"],
                                          {"risk_reduction": 2}),
], ids=["none", "count", "pair"])
def test_changes_reach_estimate_as_given(capsys, monkeypatch, toy_csv, argv, flag, changes):
    import voikit.cli as cli

    seen = []
    real = cli.estimate

    def recording(*args, **kwargs):
        seen.append(kwargs["changes"])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "estimate", recording)
    rc, _, _ = _run(capsys, [*argv, "--file", toy_csv, *flag])
    if argv[0] != "compare" and changes is None:  # sad needs a count
        assert (rc, seen) == (1, [])
        return
    assert rc == 0
    assert seen and all(type(c) is type(changes) and c == changes for c in seen)


@pytest.mark.parametrize("argv", [
    *(
        pytest.param(["evppi", "--method", m, "--params", "bogus", "--changes", "1"],
                     id=f"evppi-{m}")
        for m in ("so", "sad", "gam", "gp")
    ),
    pytest.param(["vistool", "--param", "bogus"], id="vistool"),
    pytest.param(["compare", "--params", "phi;bogus", "--bootstrap", "0"], id="compare"),
    pytest.param(["sweep", "--method", "so", "--params", "bogus", "--k-list", "0,1"],
                 id="sweep"),
])
def test_unknown_name_reads_the_same_everywhere(capsys, tmp_path, lin_csv, argv):
    path = lin_csv
    if argv[0] == "sweep":  # a sweep needs effects and costs
        rng = np.random.default_rng(0)
        effects, costs = rng.uniform(size=(50, 2)), rng.uniform(0, 100, size=(50, 2))
        path = str(tmp_path / "priced.csv")
        write_psa_csv(path, PsaSample(
            ("phi", "psi"), rng.normal(size=(50, 2)), nb=build_nb(effects, costs, 20000.0),
            effects=effects, costs=costs, k=20000.0,
        ))
    rc, out, err = _run(capsys, [argv[0], "--file", path, *argv[1:]])
    assert rc == 1
    assert out == ""
    assert err == (
        "voikit: error: unknown parameter name(s) ['bogus']; available: ['phi', 'psi']\n"
    )


def test_help_gives_the_summary_without_the_developer_notes(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: voikit")
    assert "Command-line front end" in out
    assert "OPENBLAS_NUM_THREADS" not in out


def test_estimation_failure_exits_2(capsys, monkeypatch, lin_csv):
    import voikit.regression as regression

    def failing(*args, **kwargs):
        raise voikit.EstimationError("synthetic failure")

    monkeypatch.setattr(regression, "sad_evppi", failing)
    rc, out, err = _run(capsys, [
        "evppi", "--file", lin_csv, "--method", "sad", "--params", "phi",
        "--changes", "1",
    ])
    assert rc == 2
    assert out == ""
    assert err == "voikit: estimation failed: synthetic failure\n"


_COLD_START_SCRIPT = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

loaded = {}
import voikit
loaded["import voikit"] = scipy_modules()
numpy_with_package = "numpy" in sys.modules
import voikit.cli
loaded["import voikit.cli"] = scipy_modules()

csv_path, curve_path, toy_path = sys.argv[1], sys.argv[2], sys.argv[3]
toy_file = ["--file", toy_path, "--params", "risk_reduction"]
commands = {
    "simulate": ["simulate", "--model", "linear-gaussian", "--sims", "400",
                 "--seed", "2", "--out", csv_path],
    "vistool": ["vistool", "--file", csv_path, "--param", "phi", "--out", curve_path],
    "evppi so": ["evppi", "--file", csv_path, "--method", "so", "--params", "phi"],
    "evppi sad": ["evppi", "--file", csv_path, "--method", "sad", "--params", "phi",
                  "--changes", "1", "--bootstrap", "4"],
    "simulate toy": ["simulate", "--model", "toy", "--sims", "400", "--seed", "3",
                     "--out", toy_path],
    "evppi gam": ["evppi", *toy_file, "--method", "gam", "--bootstrap", "4"],
    "sweep gam": ["sweep", *toy_file, "--method", "gam", "--k-grid", "10000:30000:10000"],
}
for name, argv in commands.items():
    with contextlib.redirect_stdout(io.StringIO()):
        assert voikit.cli.main(argv) == 0, name
    loaded[name] = scipy_modules()

fitted, _ = voikit.gam_fit_detail(voikit.read_psa_csv(csv_path), voikit.ParamSubset.of(0, 1))
loaded["gam fit"] = scipy_modules()
print(json.dumps({"loaded": loaded, "numpy with package": numpy_with_package,
                  "fit_rows": len(fitted)}))
"""


def test_commands_without_a_smoother_never_import_scipy(tmp_path):
    # only a GP fit loads scipy: GAM fits, and the commands that run them,
    # call numpy alone
    env = dict(os.environ)
    src = str(Path(voikit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _COLD_START_SCRIPT,
         str(tmp_path / "psa.csv"), str(tmp_path / "curve.csv"), str(tmp_path / "toy.csv")],
        capture_output=True, text=True, env=env, check=True,
    )
    report = json.loads(result.stdout)
    # the package loads its modules, and numpy, at the first name looked up
    assert report.pop("numpy with package") is False
    loaded = report.pop("loaded")
    assert loaded == {
        step: [] for step in (
            "import voikit", "import voikit.cli",
            "simulate", "vistool", "evppi so", "evppi sad",
            "simulate toy", "evppi gam", "sweep gam", "gam fit",
        )
    }
    assert report == {"fit_rows": 400}


def test_stdout_does_not_depend_on_blas_threads(tmp_path, toy_csv):
    # every fit runs OpenBLAS at one thread, so GP's sums no longer follow
    # the caller's OPENBLAS_NUM_THREADS
    src = str(Path(voikit.__file__).resolve().parents[1])
    commands = [
        ["evppi", "--file", toy_csv, "--method", "gp", "--params", "risk_reduction",
         "--bootstrap", "2"],
        ["compare", "--file", toy_csv, "--params", "p_infection,risk_reduction",
         "--bootstrap", "2", "--threads", "2", "--format", "json"],
    ]
    outputs = {}
    for blas_threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        outputs[blas_threads] = [
            subprocess.run([sys.executable, "-m", "voikit.cli", *argv], env=env,
                           cwd=tmp_path, capture_output=True, check=True).stdout
            for argv in commands
        ]
    assert outputs["1"] == outputs["2"]
    cells = json.loads(outputs["1"][1])["rows"][0]["cells"]
    assert "value" in cells["GP"] and "value" in cells["GAM"]
