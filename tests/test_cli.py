"""End-to-end CLI tests exercising the documented exit-code table."""

import csv
import json

import numpy as np
import pytest

from lipbound.bounds import METHODS
from lipbound.cli import _build_parser, main
from lipbound.network import Network, load_network, save_network


@pytest.fixture
def oracle_path(tmp_path):
    net = Network((np.array([[2.0]]), np.array([[3.0]])), activation="tanh")
    path = tmp_path / "oracle.json"
    save_network(net, path)
    return path


def _subparser(name):
    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    return sub.choices[name]


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

    def test_sweep_flag(self, oracle_path, tmp_path):
        report_path = tmp_path / "r.json"
        assert main(["compute", "--net", str(oracle_path), "--method", "sn",
                     "--sweep", "0.5:1.5:0.5", "--o", str(report_path)]) == 0
        payload = json.loads(report_path.read_text())
        assert payload["config"]["c"] == 1.0

    def test_interp_default_sweep(self, oracle_path, tmp_path, capsys):
        report_path = tmp_path / "r.json"
        assert main(["compute", "--net", str(oracle_path), "--method", "interp",
                     "--o", str(report_path)]) == 0
        payload = json.loads(report_path.read_text())
        points = payload["sweep"]["points"]
        assert len(points) == 12
        assert all(sorted(p) == ["bound", "c", "theta"] for p in points)
        winner = {"c": payload["config"]["c"], "theta": payload["config"]["theta"],
                  "bound": payload["bound"]}
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

    def test_report_for_another_network_exit_2(self, tmp_path, capsys):
        _, report_path = self._small_net_and_report(tmp_path)
        deep_path, _ = self._small_net_and_report(tmp_path, layers=30)
        capsys.readouterr()
        assert main(["verify", "--net", str(deep_path), "--report",
                     str(report_path), "--samples", "5"]) == 2
        assert "expected 30 multipliers, got 3" in capsys.readouterr().err


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
        manifest = json.loads((tmp_path / "bench.manifest.json").read_text())
        assert manifest["command"] == "bench"

    def test_parallel_matches_serial(self, tmp_path):
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        args = ["bench", "--depths", "2", "--widths", "5", "--seeds", "0,1",
                "--methods", "fast,gc"]
        assert main(args + ["--o", str(serial)]) == 0
        assert main(args + ["--jobs", "4", "--o", str(parallel)]) == 0
        with open(serial, newline="") as fh:
            s_rows = list(csv.DictReader(fh))
        with open(parallel, newline="") as fh:
            p_rows = list(csv.DictReader(fh))
        assert [r["bound"] for r in s_rows] == [r["bound"] for r in p_rows]

    def test_c_flags_and_defaults(self):
        args = _subparser("bench").parse_args(["--depths", "2", "--widths", "3"])
        fixed_c = {k: v for k, v in vars(args).items() if k.startswith("c_")}
        assert fixed_c == {"c_sn": 1.0, "c_gc": 1.0, "c_gcs": 1.0, "c_shift": 2.0}

    def test_bad_method_exit_2(self, tmp_path):
        assert main(["bench", "--depths", "2", "--widths", "3",
                     "--methods", "nope", "--o", str(tmp_path / "b.csv")]) == 2


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
