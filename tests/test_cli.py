"""End-to-end CLI tests exercising the documented exit-code table."""

import csv
import json
import struct

import numpy as np
import pytest

from lipbound.bounds import METHODS
from lipbound.cli import _build_parser, main
from lipbound.network import (
    ACTIVATIONS,
    Network,
    generate_random,
    load_network,
    save_network,
)


@pytest.fixture
def oracle_path(tmp_path):
    net = Network((np.array([[2.0]]), np.array([[3.0]])), activation="tanh")
    path = tmp_path / "oracle.json"
    save_network(net, path)
    return path


def _subparser(name):
    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    return sub.choices[name]


@pytest.fixture(scope="module")
def small_reports(tmp_path_factory):
    """A depth-3 network with its `fast` and `gc --c 1` reports, as JSON."""
    root = tmp_path_factory.mktemp("small")
    net_path = root / "net.json"
    assert main(["gen", "--layers", "3", "--width", "8", "--in", "6", "--out", "4",
                 "--seed", "1", "--o", str(net_path)]) == 0
    reports = {}
    for method in ("fast", "gc"):
        path = root / f"{method}.json"
        c = ["--c", "1"] if method == "gc" else []
        assert main(["compute", "--net", str(net_path), "--method", method,
                     *c, "--o", str(path)]) == 0
        reports[method] = json.loads(path.read_text())
    return net_path, reports


def _without(key):
    return lambda p: {k: v for k, v in p.items() if k != key}


def _config(**changes):
    return lambda p: {**p, "config": {**p["config"], **changes}}


def _multipliers(**changes):
    return lambda p: {**p, "multipliers": {**p["multipliers"], **changes}}


# (method, edit of the report, exit code, message on stderr).  verify reads
# only the certificate (bound, multipliers.lambdas, multipliers.gamma) and the
# top-level gamma that repeats it, so a report verifies whatever the rest says.
REPORT_EDITS = {
    "no-method": ("fast", _without("method"), 0, ""),
    "config-null": ("fast", lambda p: {**p, "config": None}, 0, ""),
    "unknown-method": ("fast", lambda p: {**p, "method": "newrule"}, 0, ""),
    "gc-c-outside-range": ("gc", _config(c=2.5), 0, ""),
    "negative-d_tilde": ("fast", _config(d_tilde=-3), 0, ""),
    "final_residual": ("fast", lambda p: {**p, "final_residual": 1e-12}, 0, ""),
    "epsilon_q-null": ("gc", _config(epsilon_q=None), 0, ""),
    "epsilon_q": ("gc", _config(epsilon_q=1e-12), 0, ""),
    "odd-sweep-and-per_layer": (
        "gc", lambda p: {**p, "sweep": "x", "per_layer": 7}, 0, ""),
    "json-list": ("fast", lambda p: [p], 2, "field bound is missing"),
    "no-bound": ("fast", _without("bound"), 2, "field bound is missing"),
    "bound-beyond-float-range": (
        "fast", lambda p: {**p, "bound": 10**400}, 2, "outside the float range"),
    "no-multipliers": (
        "fast", _without("multipliers"), 2, "field multipliers.gamma is missing"),
    "gamma-string": (
        "fast", _multipliers(gamma="4.0"), 2, "field multipliers.gamma is missing"),
    "lambda-entry-string": (
        "fast", _multipliers(lambdas=[["x"]]), 2,
        "field multipliers.lambdas is missing or not lists of numbers"),
    "top-level-gamma-halved": (
        "fast", lambda p: {**p, "gamma": 0.5 * p["gamma"]}, 6,
        "disagrees with multipliers.gamma"),
}


class TestGen:
    def test_writes_network(self, tmp_path, capsys):
        out = tmp_path / "net.json"
        code = main(["gen", "--layers", "3", "--width", "5", "--in", "4",
                     "--out", "2", "--seed", "1", "--o", str(out)])
        assert code == 0
        net = load_network(out)
        assert net.dims == (4, 5, 5, 5, 2)
        assert "4 -> 5 -> 5 -> 5 -> 2" in capsys.readouterr().out

    def test_table_shape(self, tmp_path):
        out = tmp_path / "net.json"
        code = main(["gen", "--layers", "50", "--width", "100", "--in", "100",
                     "--out", "10", "--seed", "1", "--o", str(out)])
        assert code == 0
        assert len(load_network(out).weights) == 51

    def test_minimal(self, tmp_path):
        out = tmp_path / "n.json"
        assert main(["gen", "--layers", "1", "--width", "1", "--in", "1",
                     "--out", "1", "--seed", "0", "--o", str(out)]) == 0

    def test_zero_layers_exit_2(self, tmp_path):
        assert main(["gen", "--layers", "0", "--width", "1", "--in", "1",
                     "--out", "1", "--seed", "0",
                     "--o", str(tmp_path / "x.json")]) == 2

    def test_binary_output(self, tmp_path):
        out = tmp_path / "net.lnet"
        assert main(["gen", "--layers", "2", "--width", "3", "--in", "3",
                     "--out", "3", "--seed", "5", "--binary",
                     "--o", str(out)]) == 0
        assert load_network(out).dims == (3, 3, 3, 3)

    def test_missing_flag_exit_2(self):
        assert main(["gen", "--layers", "1"]) == 2

    def test_activation_choices_follow_the_table(self):
        gen = _subparser("gen")
        activation = next(a for a in gen._actions if a.dest == "activation")
        assert tuple(activation.choices) == tuple(ACTIVATIONS)


class TestCompute:
    def test_fast_oracle(self, oracle_path, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(["compute", "--net", str(oracle_path), "--method", "fast",
                     "--o", str(report_path)])
        assert code == 0
        assert "bound=6" in capsys.readouterr().out
        payload = json.loads(report_path.read_text())
        assert abs(payload["bound"] - 6.0) <= 1e-9
        assert payload["manifest"]["command"] == "compute"

    def test_sn_c1_equals_fast(self, oracle_path, capsys):
        assert main(["compute", "--net", str(oracle_path),
                     "--method", "sn", "--c", "1.0"]) == 0
        sn_line = capsys.readouterr().out
        assert main(["compute", "--net", str(oracle_path),
                     "--method", "fast"]) == 0
        fast_line = capsys.readouterr().out
        # compare the bound token only: the line also carries the run time
        assert (sn_line.split("bound=")[1].split()[0]
                == fast_line.split("bound=")[1].split()[0])

    def test_best_dominates_fast(self, tmp_path, capsys):
        net_path = tmp_path / "net.json"
        main(["gen", "--layers", "4", "--width", "8", "--in", "6", "--out",
              "4", "--seed", "3", "--o", str(net_path)])
        capsys.readouterr()
        assert main(["compute", "--net", str(net_path), "--method", "fast"]) == 0
        fast = float(capsys.readouterr().out.split("bound=")[1].split()[0])
        assert main(["compute", "--net", str(net_path), "--method", "best"]) == 0
        best = float(capsys.readouterr().out.split("bound=")[1].split()[0])
        assert best <= fast * (1.0 + 1e-12)

    def test_sweep_flag(self, oracle_path, tmp_path, capsys):
        report_path = tmp_path / "r.json"
        assert main(["compute", "--net", str(oracle_path), "--method", "sn",
                     "--sweep", "0.5:1.5:0.5", "--o", str(report_path)]) == 0
        payload = json.loads(report_path.read_text())
        assert payload["config"]["c"] == 1.0
        assert [p["c"] for p in payload["sweep"]["points"]] == [0.5, 1.0, 1.5]
        # the fourth has finite bounds and step, but no finite point count,
        # the fifth a count that its slack takes past the float range, and
        # the last 1e300 points, refused before any list is built
        for sweep in ("1:0.5:0.1", "0.5:1.5:0", "0:inf:1", "0:1e308:1e-308",
                      "0:1.7976931348623157e308:1", "0:1:1e-300"):
            assert main(["compute", "--net", str(oracle_path), "--method", "sn",
                         "--sweep", sweep]) == 2
            assert "--sweep requires" in capsys.readouterr().err

    def test_sweep_point_limit(self, oracle_path, capsys):
        # one point more than the limit, HI included: 0, 1, ..., 100000 and
        # 0.5, 0.50001, ..., 1.5, whose quotient rounds to just below 100000
        for sweep in ("0:100000:1", "0.5:1.5:1e-5"):
            assert main(["compute", "--net", str(oracle_path), "--method", "gc",
                         "--sweep", sweep]) == 2
            assert ("--sweep requires at most 100000 points, got 100001"
                    in capsys.readouterr().err)

    @pytest.mark.parametrize("sweep", ["1:2", "1:2:3:4", "a:b:c"])
    def test_malformed_sweep_names_the_form(self, oracle_path, capsys, sweep):
        assert main(["compute", "--net", str(oracle_path), "--method", "gc",
                     "--sweep", sweep]) == 2
        assert f"--sweep takes LO:HI:STEP, got {sweep!r}" in capsys.readouterr().err

    def test_c_and_sweep_exclusive(self, oracle_path, capsys):
        assert main(["compute", "--net", str(oracle_path), "--method", "gc",
                     "--c", "1.5", "--sweep", "0.5:1.0:0.5"]) == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("method,flag", [
        ("best", ["--sweep", "0.5:0.5:1"]),
        ("best", ["--c", "0.5"]),
        ("fast", ["--c", "0.3"]),
        ("fast", ["--sweep", "0.5:1.5:0.5"]),
        ("product", ["--c", "7"]),
    ], ids=["best-sweep", "best-c", "fast-c", "fast-sweep", "product-c"])
    def test_c_or_sweep_without_c_exit_2(self, tmp_path, capsys, method, flag):
        net_path = tmp_path / "net.json"
        save_network(generate_random(3, 8, 8, 3, seed=5), net_path)
        assert main(["compute", "--net", str(net_path), "--method", method,
                     *flag]) == 2
        assert f"method {method!r} takes no c" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--method", "gc", "--c", "1", "--theta", "0.3"],
        ["--method", "fast", "--theta", "7"],
        ["--method", "best", "--theta", "0.3"],
        ["--method", "interp", "--theta", "0.3"],
    ], ids=["gc-c", "fast", "best", "interp-default-sweep"])
    def test_theta_where_not_read_exit_2(self, oracle_path, tmp_path, capsys, flags):
        report_path = tmp_path / "r.json"
        assert main(["compute", "--net", str(oracle_path), *flags,
                     "--o", str(report_path)]) == 2
        assert "takes no theta" in capsys.readouterr().err
        assert not report_path.exists()

    @pytest.mark.parametrize("flags,points", [
        (["--c", "1", "--theta", "0.3"], None),
        (["--sweep", "0.5:1.5:0.5", "--theta", "0.25"], [0.5, 1.0, 1.5]),
    ], ids=["c", "sweep"])
    def test_interp_theta_with_c_or_sweep(self, oracle_path, tmp_path, capsys,
                                          flags, points):
        report_path = tmp_path / "r.json"
        assert main(["compute", "--net", str(oracle_path), "--method", "interp",
                     *flags, "--o", str(report_path)]) == 0
        payload = json.loads(report_path.read_text())
        theta = float(flags[-1])
        assert payload["config"]["theta"] == theta
        assert f" theta={theta:g} " in capsys.readouterr().out
        if points is None:
            assert payload["sweep"] is None
        else:
            assert [(p["c"], p["theta"]) for p in payload["sweep"]["points"]] == [
                (c, theta) for c in points
            ]

    def test_theta_printed_only_for_interp(self, oracle_path, capsys):
        assert main(["compute", "--net", str(oracle_path), "--method", "gc"]) == 0
        assert "theta=" not in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["product", "fast"])
    def test_no_c_printed_where_not_read(self, oracle_path, capsys, method):
        assert main(["compute", "--net", str(oracle_path), "--method", method]) == 0
        assert capsys.readouterr().out.startswith(f"method={method} bound=")

    def test_jobs_removed_exit_2(self, oracle_path):
        assert main(["compute", "--net", str(oracle_path), "--method", "gc",
                     "--jobs", "2"]) == 2

    def test_nonfinite_gamma_exit_4(self, tmp_path, capsys):
        # the final gamma overflows to inf at depth 100 with weights x30
        net = generate_random(100, 3, 3, 2, seed=0)
        net_path = tmp_path / "net.json"
        save_network(Network(tuple(30.0 * W for W in net.weights)), net_path)
        assert main(["compute", "--net", str(net_path), "--method", "interp",
                     "--c", "1", "--theta", "0.25"]) == 4
        assert "lost definiteness at layer 101" in capsys.readouterr().err

    def test_truncated_lnet_exit_2(self, tmp_path, capsys):
        # the header claims 5 layers, the table holds one (rows, cols) pair
        path = tmp_path / "net.lnet"
        path.write_bytes(struct.pack("<4sIBBHI", b"LNET", 1, 1, 0, 0, 5)
                         + struct.pack("<II", 3, 3))
        assert len(path.read_bytes()) == 24
        assert main(["compute", "--net", str(path), "--method", "fast"]) == 2
        assert "truncated or trailing bytes" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["product", "best"])
    def test_report_is_strict_json(self, oracle_path, tmp_path, method):
        report_path = tmp_path / "r.json"
        assert main(["compute", "--net", str(oracle_path), "--method", method,
                     "--o", str(report_path)]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        payload = json.loads(report_path.read_text(), parse_constant=reject)
        assert payload["method"] == "product"  # product wins best on the oracle

    def test_interp_default_sweep(self, oracle_path, tmp_path, capsys):
        report_path = tmp_path / "r.json"
        assert main(["compute", "--net", str(oracle_path), "--method", "interp",
                     "--o", str(report_path)]) == 0
        payload = json.loads(report_path.read_text())
        points = payload["sweep"]["points"]
        assert len(points) == 12
        assert all(sorted(p) == ["bound", "c", "method", "theta"] for p in points)
        winner = {"method": "interp", "c": payload["config"]["c"],
                  "theta": payload["config"]["theta"], "bound": payload["bound"]}
        assert winner in points
        line = capsys.readouterr().out
        assert f"method=interp c={winner['c']:g} theta={winner['theta']:g} " in line

    def test_method_choices_follow_the_table(self):
        comp = _subparser("compute")
        method = next(a for a in comp._actions if a.dest == "method")
        assert tuple(method.choices) == METHODS + ("best",)

    def test_missing_network_exit_3(self, tmp_path):
        assert main(["compute", "--net", str(tmp_path / "nope.json"),
                     "--method", "fast"]) == 3

    def test_bad_method_exit_2(self, oracle_path):
        assert main(["compute", "--net", str(oracle_path),
                     "--method", "bogus"]) == 2

    def test_invalid_c_exit_2(self, oracle_path):
        assert main(["compute", "--net", str(oracle_path), "--method", "sn",
                     "--c", "3.0"]) == 2


class TestVerify:
    def _compute_report(self, oracle_path, tmp_path):
        report_path = tmp_path / "report.json"
        assert main(["compute", "--net", str(oracle_path), "--method", "fast",
                     "--o", str(report_path)]) == 0
        return report_path

    def _small_net_and_report(self, tmp_path, layers=3):
        net_path = tmp_path / f"net{layers}.json"
        report_path = tmp_path / f"fast{layers}.json"
        assert main(["gen", "--layers", str(layers), "--width", "8", "--in", "6",
                     "--out", "4", "--seed", "1", "--o", str(net_path)]) == 0
        assert main(["compute", "--net", str(net_path), "--method", "fast",
                     "--o", str(report_path)]) == 0
        return net_path, report_path

    def test_oracle_report_passes(self, oracle_path, tmp_path, capsys):
        report_path = self._compute_report(oracle_path, tmp_path)
        out_path = tmp_path / "validation.json"
        code = main(["verify", "--net", str(oracle_path), "--report",
                     str(report_path), "--samples", "20", "--o", str(out_path)])
        assert code == 0
        result = json.loads(out_path.read_text())
        assert abs(result["margin"]) <= 1e-9
        assert result["lmi"]["psd"] is True
        assert "psd=True" in capsys.readouterr().out

    def test_tampered_report_exit_6(self, oracle_path, tmp_path):
        report_path = self._compute_report(oracle_path, tmp_path)
        payload = json.loads(report_path.read_text())
        payload["bound"] *= 0.5
        report_path.write_text(json.dumps(payload))
        assert main(["verify", "--net", str(oracle_path),
                     "--report", str(report_path), "--samples", "5"]) == 6

    def test_deep_report_with_shrunk_gamma_exit_6(self, tmp_path, capsys):
        # the Lambda blocks of a depth-30 report lie many orders of
        # magnitude below gamma; 1% off gamma must still be caught
        net_path, report_path = tmp_path / "net.json", tmp_path / "best.json"
        assert main(["gen", "--layers", "30", "--width", "64", "--in", "64",
                     "--out", "10", "--seed", "0", "--o", str(net_path)]) == 0
        assert main(["compute", "--net", str(net_path), "--method", "best",
                     "--o", str(report_path)]) == 0
        payload = json.loads(report_path.read_text())
        payload["gamma"] *= 0.99
        payload["multipliers"]["gamma"] *= 0.99
        payload["bound"] *= 0.99 ** 0.5
        report_path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["verify", "--net", str(net_path), "--report",
                     str(report_path), "--samples", "5"]) == 6
        assert "not PSD at output" in capsys.readouterr().err

    def test_nan_bound_exit_6(self, tmp_path, capsys):
        net_path, report_path = self._small_net_and_report(tmp_path)
        payload = json.loads(report_path.read_text())
        payload["bound"] = float("nan")
        report_path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["verify", "--net", str(net_path), "--report",
                     str(report_path), "--samples", "5"]) == 6
        assert "non-finite bound" in capsys.readouterr().err

    def test_nan_lambda_with_shrunk_gamma_exit_6(self, tmp_path, capsys):
        net_path, report_path = self._small_net_and_report(tmp_path)
        payload = json.loads(report_path.read_text())
        payload["multipliers"]["lambdas"][1][0] = float("nan")
        payload["gamma"] *= 0.81
        payload["multipliers"]["gamma"] *= 0.81
        payload["bound"] *= 0.9
        report_path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["verify", "--net", str(net_path), "--report",
                     str(report_path), "--samples", "5"]) == 6
        assert "non-finite multiplier in layer 2" in capsys.readouterr().err

    def test_interior_lambda_failure_names_layer(self, tmp_path, capsys):
        net_path, report_path = self._small_net_and_report(tmp_path, layers=10)
        payload = json.loads(report_path.read_text())
        payload["multipliers"]["lambdas"][4] = [
            2.01 * v for v in payload["multipliers"]["lambdas"][4]
        ]
        report_path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["verify", "--net", str(net_path), "--report",
                     str(report_path), "--samples", "5"]) == 6
        assert "not PSD at layer 5 " in capsys.readouterr().err

    @pytest.mark.parametrize("case", list(REPORT_EDITS))
    def test_reads_only_the_certificate(self, case, small_reports, tmp_path, capsys):
        method, edit, code, message = REPORT_EDITS[case]
        net_path, reports = small_reports
        report_path = tmp_path / "edited.json"
        report_path.write_text(json.dumps(edit(reports[method])))
        capsys.readouterr()
        assert main(["verify", "--net", str(net_path), "--report",
                     str(report_path), "--samples", "5"]) == code
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        if code == 0:
            assert f"bound={reports[method]['bound']:.12g} " in out
            assert "psd=True" in out
        else:
            assert message in err

    @pytest.mark.parametrize("radius", ["nan", "inf", "0", "-1"])
    def test_radius_finite_and_positive(self, oracle_path, tmp_path, capsys, radius):
        report_path = self._compute_report(oracle_path, tmp_path)
        assert main(["verify", "--net", str(oracle_path), "--report", str(report_path),
                     "--samples", "5", "--radius", radius]) == 2
        assert "radius must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,message", [
        ("--samples", "0", "n_samples must be at least 1"),
        ("--radius", "-1", "radius must be finite and positive"),
        ("--seed", "-1", "seed must be a non-negative integer"),
    ])
    def test_sampling_settings_exit_2_before_feasibility(self, tmp_path, capsys,
                                                           flag, value, message):
        net_path, report_path = tmp_path / "net.json", tmp_path / "fast.json"
        assert main(["gen", "--layers", "3", "--width", "8", "--in", "6", "--out",
                     "3", "--seed", "0", "--o", str(net_path)]) == 0
        assert main(["compute", "--net", str(net_path), "--method", "fast",
                     "--o", str(report_path)]) == 0
        argv = ["verify", "--net", str(net_path), "--report", str(report_path)]
        capsys.readouterr()
        assert main([*argv, flag, value]) == 2
        assert message in capsys.readouterr().err
        payload = json.loads(report_path.read_text())
        payload["gamma"] *= 0.5
        payload["multipliers"]["gamma"] *= 0.5
        payload["bound"] *= 0.5 ** 0.5
        report_path.write_text(json.dumps(payload))
        assert main([*argv, "--samples", "5"]) == 6
        capsys.readouterr()
        assert main([*argv, flag, value]) == 2
        assert message in capsys.readouterr().err

    def test_report_for_another_network_exit_2(self, tmp_path, capsys):
        _, report_path = self._small_net_and_report(tmp_path)
        deep_path, _ = self._small_net_and_report(tmp_path, layers=30)
        capsys.readouterr()
        assert main(["verify", "--net", str(deep_path), "--report",
                     str(report_path), "--samples", "5"]) == 2
        assert "expected 30 multipliers, got 3" in capsys.readouterr().err


class TestNonFiniteNetwork:
    """A network with a non-finite weight or bias is bad input on every command."""

    @staticmethod
    def _clean_net():
        # dims 3 -> 4 -> 4 -> 4 -> 4, every weight 0.3, zero biases
        return Network(
            tuple(np.full((4, 3 if k == 0 else 4), 0.3) for k in range(4)),
            biases=tuple(np.zeros(4) for _ in range(4)),
        )

    def _write_bad(self, tmp_path, kind):
        """Write a network file with one non-finite entry; return it and its layer."""
        if kind == "lnet-inf-weight":
            path = tmp_path / "net.lnet"
            save_network(self._clean_net(), path, binary=True)
            data = bytearray(path.read_bytes())
            # header, layer table, layers 1 and 2, then layer 3's first entry
            offset = 16 + 8 * 4 + 8 * (4 * 3 + 4 * 4)
            data[offset : offset + 8] = np.float64(np.inf).tobytes()
            path.write_bytes(bytes(data))
            return path, 3
        path = tmp_path / "net.json"
        save_network(self._clean_net(), path)
        manifest = json.loads(path.read_text())
        if kind == "json-nan-weight":
            manifest["layers"][1]["weights"][5] = float("nan")
            layer = 2
        else:
            manifest["layers"][0]["bias"][2] = float("nan")
            layer = 1
        path.write_text(json.dumps(manifest))
        return path, layer

    @pytest.mark.parametrize("kind", ["json-nan-weight", "lnet-inf-weight", "nan-bias"])
    @pytest.mark.parametrize("command", [
        ["compute", "--method", "product"],
        ["compute", "--method", "best"],
        ["compute", "--method", "gc", "--c", "1"],
        ["verify", "--samples", "5"],
    ], ids=["product", "best", "gc", "verify"])
    def test_exit_2_names_layer(self, tmp_path, capsys, kind, command):
        net_path, layer = self._write_bad(tmp_path, kind)
        argv = [command[0], "--net", str(net_path), *command[1:]]
        if command[0] == "verify":
            # a genuine report for the same network without the bad entry
            good_path, report_path = tmp_path / "good.json", tmp_path / "report.json"
            save_network(self._clean_net(), good_path)
            assert main(["compute", "--net", str(good_path), "--method", "fast",
                         "--o", str(report_path)]) == 0
            argv += ["--report", str(report_path)]
        capsys.readouterr()
        assert main(argv) == 2
        assert f"layer {layer} has a non-finite" in capsys.readouterr().err


class TestFloatRangeNets:
    """Nets whose product bound leaves the float range, through the CLI."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name", ["P80", "TINY", "HUGE", "ZERO_HUGE", "MAX"])
    def test_product_exit_4_best_exit_5(self, float_range_nets, tmp_path, capsys, name):
        net_path = tmp_path / "net.json"
        save_network(float_range_nets[name], net_path)
        assert main(["compute", "--net", str(net_path), "--method", "product"]) == 4
        assert main(["compute", "--net", str(net_path), "--method", "best"]) == 5
        assert "every method failed" in capsys.readouterr().err

    def test_mixed_best_verifies(self, float_range_nets, tmp_path, capsys):
        net_path, report_path = tmp_path / "net.json", tmp_path / "r.json"
        save_network(float_range_nets["MIXED"], net_path)
        assert main(["compute", "--net", str(net_path), "--method", "best",
                     "--o", str(report_path)]) == 0
        assert json.loads(report_path.read_text())["method"] != "product"
        assert main(["verify", "--net", str(net_path), "--report", str(report_path),
                     "--samples", "20"]) == 0
        assert "psd=True" in capsys.readouterr().out

    def test_zero_product_left_out_and_best_verifies(self, float_range_nets, tmp_path,
                                                     capsys):
        net_path, report_path = tmp_path / "net.json", tmp_path / "r.json"
        save_network(float_range_nets["ZERO"], net_path)
        assert main(["compute", "--net", str(net_path), "--method", "product"]) == 4
        assert main(["compute", "--net", str(net_path), "--method", "best",
                     "--o", str(report_path)]) == 0
        assert json.loads(report_path.read_text())["method"] != "product"
        assert main(["verify", "--net", str(net_path), "--report", str(report_path),
                     "--samples", "20"]) == 0
        assert "psd=True" in capsys.readouterr().out

    def test_tiny_bound_zero_report_exit_6(self, float_range_nets, tmp_path, capsys):
        net_path, report_path = tmp_path / "net.json", tmp_path / "r.json"
        save_network(float_range_nets["TINY"], net_path)
        report_path.write_text(json.dumps(
            {"bound": 0.0, "multipliers": {"lambdas": [[1.0, 1.0]], "gamma": 0.0}}
        ))
        assert main(["verify", "--net", str(net_path), "--report", str(report_path),
                     "--samples", "5"]) == 6
        assert "gamma is 0" in capsys.readouterr().err


class TestZeroWidthNetwork:
    """A layer without rows or columns is bad input in both file formats."""

    @staticmethod
    def _write(tmp_path, fmt):
        """Dims 3 -> 0 -> 2: layer 1 has no rows, layer 2 no columns."""
        if fmt == "json":
            path = tmp_path / "net.json"
            path.write_text(json.dumps({"layers": [
                {"rows": 0, "cols": 3, "weights": []},
                {"rows": 2, "cols": 0, "weights": []},
            ]}))
        else:
            path = tmp_path / "net.lnet"
            path.write_bytes(struct.pack("<4sIBBHI", b"LNET", 1, 1, 0, 0, 2)
                             + struct.pack("<IIII", 0, 3, 2, 0))
        return path

    @pytest.mark.parametrize("fmt", ["json", "lnet"])
    @pytest.mark.parametrize("command", [
        ["compute", "--method", "product"],
        ["compute", "--method", "best"],
        ["verify", "--samples", "5"],
    ], ids=["product", "best", "verify"])
    def test_exit_2_names_layer(self, tmp_path, capsys, fmt, command):
        argv = [command[0], "--net", str(self._write(tmp_path, fmt)), *command[1:]]
        if command[0] == "verify":
            report_path = tmp_path / "r.json"
            report_path.write_text(json.dumps(
                {"bound": 1.0, "multipliers": {"lambdas": [[]], "gamma": 1.0}}
            ))
            argv += ["--report", str(report_path)]
        assert main(argv) == 2
        assert "weight 1 is empty or not 2-D" in capsys.readouterr().err


class TestMalformedBias:
    """A JSON bias that is not a list of numbers is a parse error naming its layer."""

    @pytest.mark.parametrize("bias", [{"x": 1}, None], ids=["object", "null"])
    @pytest.mark.parametrize("command", [
        ["compute", "--method", "best"],
        ["verify", "--samples", "5"],
    ], ids=["compute", "verify"])
    def test_exit_2_names_layer(self, tmp_path, capsys, bias, command):
        path = tmp_path / "net.json"
        path.write_text(json.dumps({"layers": [
            {"rows": 2, "cols": 2, "weights": [1.0, 0.0, 0.0, 1.0], "bias": bias},
            {"rows": 1, "cols": 2, "weights": [1.0, 1.0]},
        ]}))
        argv = [command[0], "--net", str(path), *command[1:]]
        if command[0] == "verify":
            report_path = tmp_path / "r.json"
            report_path.write_text(json.dumps(
                {"bound": 2.0, "multipliers": {"lambdas": [[1.0, 1.0]], "gamma": 4.0}}
            ))
            argv += ["--report", str(report_path)]
        assert main(argv) == 2
        assert f"layer 1: bias must be a list of 2 numbers, got {json.dumps(bias)}" in (
            capsys.readouterr().err)


class TestBench:
    def test_csv_schema_and_ordering(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--depths", "3,2", "--widths", "4", "--seeds",
                     "1,0", "--methods", "fast,gc,product", "--o", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 2 * 3
        keys = [(int(r["depth"]), int(r["width"]), int(r["seed"]), r["method"])
                for r in rows]
        assert keys == sorted(keys)
        assert all(r["status"] == "ok" for r in rows)
        assert all(float(r["bound"]) > 0 for r in rows)
        # c is written for the methods that read it, as reads() says
        assert {(r["method"], r["c"]) for r in rows} == {
            ("fast", ""), ("gc", "1"), ("product", "")}
        manifest = json.loads((tmp_path / "bench.manifest.json").read_text())
        assert manifest["command"] == "bench"

    @pytest.mark.parametrize("flag", [["--jobs", "2"], ["--activation", "relu"]],
                             ids=["jobs", "activation"])
    def test_removed_flags_exit_2(self, tmp_path, flag):
        assert main(["bench", "--depths", "2", "--widths", "3", *flag,
                     "--o", str(tmp_path / "b.csv")]) == 2

    def test_every_row_failed_exit_5(self, tmp_path, capsys):
        # fast loses definiteness on this deep net, so no row is ok
        assert main(["bench", "--depths", "1500", "--widths", "4", "--methods", "fast",
                     "--o", str(tmp_path / "b.csv")]) == 5
        assert "0/1 rows ok" in capsys.readouterr().out

    def test_one_network_per_grid_point(self, tmp_path, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return generate_random(*args, **kwargs)

        monkeypatch.setattr("lipbound.cli.generate_random", counting)
        assert main(["bench", "--depths", "3,2", "--widths", "4", "--seeds", "1,0",
                     "--methods", "fast,gc,product",
                     "--o", str(tmp_path / "b.csv")]) == 0
        assert sorted(calls) == [(d, 4, 4, 4, s) for d in (2, 3) for s in (0, 1)]

    def test_c_flags_and_defaults(self):
        args = _subparser("bench").parse_args(["--depths", "2", "--widths", "3"])
        fixed_c = {k: v for k, v in vars(args).items() if k.startswith("c_")}
        assert fixed_c == {"c_sn": 1.0, "c_gc": 1.0, "c_gcs": 1.0, "c_shift": 2.0}

    def test_bad_method_exit_2(self, tmp_path):
        assert main(["bench", "--depths", "2", "--widths", "3",
                     "--methods", "nope", "--o", str(tmp_path / "b.csv")]) == 2

    @pytest.mark.parametrize("flag", ["--depths", "--widths", "--seeds"])
    def test_empty_grid_list_names_its_flag(self, tmp_path, capsys, flag):
        argv = {"--depths": "2", "--widths": "4", "--seeds": "0", flag: ","}
        assert main(["bench", *(v for item in argv.items() for v in item),
                     "--o", str(tmp_path / "b.csv")]) == 2
        assert f"bench: {flag} names no {flag[2:-1]}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--depths", "--widths", "--seeds"])
    def test_non_integer_grid_value_names_its_flag(self, tmp_path, capsys, flag):
        argv = {"--depths": "2", "--widths": "4", "--seeds": "0", flag: "2,x"}
        assert main(["bench", *(v for item in argv.items() for v in item),
                     "--o", str(tmp_path / "b.csv")]) == 2
        assert f"bench: {flag} takes integers, got 'x'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_empty_method_list_exit_2_before_writing(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        assert main(["bench", "--depths", "2", "--widths", "4", "--methods", ",",
                     "--o", str(out)]) == 2
        assert "--methods names no method" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestReproducibility:
    def test_same_manifest_same_bound(self, tmp_path, capsys):
        net_path = tmp_path / "net.json"
        main(["gen", "--layers", "3", "--width", "6", "--in", "5", "--out",
              "4", "--seed", "2", "--o", str(net_path)])
        capsys.readouterr()
        bounds = []
        for _ in range(2):
            assert main(["compute", "--net", str(net_path),
                         "--method", "gc", "--c", "1.5"]) == 0
            bounds.append(capsys.readouterr().out.split("bound=")[1].split()[0])
        assert bounds[0] == bounds[1]
