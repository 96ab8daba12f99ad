"""Benchmark of the lipbound CLI: `compute --method best`, a `gc` sweep and `verify`.

Run from the root of a checkout:

    python3 perfbench/run.py --workload best-narrow --seed 0 --seconds 30 --trace 0

Every operation is a real `python -m lipbound.cli ...` process against the
checkout's `src`, launched one at a time and timed from outside (wall time,
and user+system CPU time and peak RSS from `wait4`).  A run reports the
median of its operations, on the narrow workloads scaled to a reference
host speed by probe.py.  The program keeps its defaults: `--jobs 1` and
OpenBLAS's own thread count.  This process pins its own BLAS to one
thread; it only runs between operations, to make the inputs' references
and to check every output against `reference.py`.

With `--trace 0` the last line of standard output is a JSON object holding
the end-to-end metrics; with `--trace 1` one round of the workload runs,
one of its operations in-process under `tracer.py`, and the object holds
the per-layer metrics instead.  `--quick` shrinks every input so a run takes
seconds; the benchmark's own tests use it.  See README.md.
"""

import os
import sys
import time

T_START = time.perf_counter()

# Thread-count variables are taken out of the program's environment, so it
# runs with OpenBLAS's default, and set to 1 for this process before numpy
# loads.
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROGRAM_ENV = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
for _var in _BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

# numpy and the reference (which loads scipy) are imported only once the
# inputs are made, so that setup_s holds the program's set-up and not the
# benchmark's own imports.
np = reference = None

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROGRAM_ENV["PYTHONPATH"] = os.pathsep.join(
    [str(ROOT / "src")] + ([PROGRAM_ENV["PYTHONPATH"]] if PROGRAM_ENV.get("PYTHONPATH") else [])
)

OP_TIMEOUT_S = 150.0
EXIT_VALIDATION = 6

# One network per workload, the same on every run, so that an operation's
# cost does not depend on --seed; the seed picks the sample points instead.
NET_SEED = 0
SWEEP = (1.0, 1.9, 0.1)
SWEEP_GRID = [SWEEP[0] + i * SWEEP[2] for i in range(10)]
TAMPER = 0.99
GENUINE_PER_ROUND = 3

# Shapes: (hidden layers, width, inputs, outputs, LNET binary).
SHAPES = {
    "best-narrow": (10, 64, 64, 10, False),
    "gc-sweep-wide": (50, 160, 160, 10, True),
    "verify-narrow": (30, 64, 64, 10, False),
}
QUICK_SHAPES = {
    "best-narrow": (3, 8, 8, 3, False),
    "gc-sweep-wide": (4, 12, 12, 3, True),
    "verify-narrow": (3, 8, 8, 3, False),
}
# On the narrow workloads the program spends its time in many small numpy
# calls, whose speed drifts with the host's load by up to a third within
# minutes.  Each of their timed operations is therefore preceded by a run
# of probe.py, a fixed load of the same kind that takes nothing from
# lipbound, and its times are scaled by PROBE_REF_S over the probe's wall
# time: they read as on a host where the probe takes PROBE_REF_S.  The
# BLAS-bound gc-sweep-wide drifts little and is reported as measured.
HOST_SCALED = ("best-narrow", "verify-narrow")
PROBE_REF_S = 0.8
VERIFY_SAMPLES = 1000
QUICK_VERIFY_SAMPLES = 20
# Jacobian samples for the benchmark's own empirical lower bound.
REF_SAMPLES = 200

# Tolerances for comparing the program with the reference.  The program
# takes sigma_max by power iteration (tol 1e-10) where the reference uses
# eigvalsh; on these networks the two agree to about 2e-10.
RTOL = 1e-7
GAMMA_RTOL = 1e-12
MIN_EIG_TOL = -1e-9
TAMPERED_MIN_EIG = -1e-6

END_TO_END = {
    "op_s": "s",
    "op_cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "bound_gap": "ratio",
}
PER_LAYER = {
    "cli.import_s": "s",
    "network.load_s": "s",
    "network.jacobian_sigma_s": "s",
    "network.jacobian_sigma_calls": "count",
    "bounds.recursions": "count",
    "bounds.recursions_lost": "count",
    "bounds.feasible_share": "ratio",
    "bounds.gamma_ms_per_layer": "ms",
    "bounds.cholesky_ms_per_layer": "ms",
    "bounds.select_ms_per_layer": "ms",
    "linalg.power_iteration_s": "s",
    "linalg.power_iteration_calls": "count",
    "linalg.matvecs": "count",
    "linalg.matvecs_per_solve": "count",
    "certify.empirical_s": "s",
    "certify.feasibility_s": "s",
    "trace.overhead_s": "s",
}


def load_checkers() -> None:
    global np, reference
    import numpy as np

    import reference


class SetupFailed(Exception):
    """The program could not make the workload's inputs."""


@dataclass
class Op:
    """One launched operation and what it left behind."""

    kind: str  # "compute", "verify" or "tampered"
    argv: list
    expected_rc: int
    output: Path | None = None
    rc: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    traced: bool = False
    stderr: str = ""
    probe_s: float | None = None  # wall time of the probe run just before
    host_scale: float = 1.0  # PROBE_REF_S / probe_s on the narrow workloads

    @property
    def failed(self) -> bool:
        return self.rc != self.expected_rc


def launch(argv, workdir: Path, tag: str, tracer_out: Path | None = None) -> tuple:
    """Run one program process to its end; (rc, wall, cpu, rss_mb, stderr)."""
    if tracer_out is None:
        cmd = [sys.executable, "-m", "lipbound.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(tracer_out), *argv]
    return spawn(cmd, workdir, tag)


def spawn(cmd, workdir: Path, tag: str) -> tuple:
    """Run one process to its end; (rc, wall, cpu, rss_mb, stderr)."""
    out_path = workdir / f"{tag}.stdout"
    err_path = workdir / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=PROGRAM_ENV, stdout=out, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0, err_path.read_text()


def run_op(op: Op, workdir: Path, index: int, tracer_out: Path | None = None) -> Op:
    op.rc, op.wall_s, op.cpu_s, op.rss_mb, op.stderr = launch(
        op.argv, workdir, f"op{index}", tracer_out
    )
    op.traced = tracer_out is not None
    return op


def setup_step(argv, workdir: Path, tag: str) -> None:
    rc, *_rest, stderr = launch(argv, workdir, tag)
    if rc != 0:
        raise SetupFailed(f"`lipbound {' '.join(argv)}` exited {rc}: {stderr.strip()}")


class Checks:
    """Collects failed correctness checks; the run is correct if none fail."""

    def __init__(self):
        self.failures = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def close(self, a: float, b: float, rtol: float, message: str) -> None:
        self.expect(
            math.isfinite(a) and abs(a - b) <= rtol * abs(b), f"{message}: {a!r} vs {b!r}"
        )


class Workload:
    """Inputs, operations and reference checks of one workload."""

    def __init__(self, name: str, seed: int, quick: bool, workdir: Path):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        layers, width, n_in, n_out, binary = (QUICK_SHAPES if quick else SHAPES)[name]
        self.samples = QUICK_VERIFY_SAMPLES if quick else VERIFY_SAMPLES
        self.net = workdir / ("net.lnet" if binary else "net.json")
        self.gen_argv = [
            "gen", "--layers", str(layers), "--width", str(width), "--in", str(n_in),
            "--out", str(n_out), "--seed", str(NET_SEED), "--o", str(self.net),
        ] + (["--binary"] if binary else [])
        self.report = workdir / "report.json"
        self.tampered = workdir / "tampered.json"
        self.count = 0
        self._ref = None
        self._min_eigs = {}

    # -- inputs -----------------------------------------------------------

    def setup(self) -> None:
        """Make the inputs with the program itself (timed as setup_s)."""
        setup_step(self.gen_argv, self.workdir, "gen")
        if self.name == "verify-narrow":
            setup_step(
                ["compute", "--net", str(self.net), "--method", "best", "--o", str(self.report)],
                self.workdir, "report",
            )
            payload = json.loads(self.report.read_text())
            payload["gamma"] *= TAMPER
            payload["multipliers"]["gamma"] *= TAMPER
            payload["bound"] *= math.sqrt(TAMPER)
            self.tampered.write_text(json.dumps(payload))

    # -- operations -------------------------------------------------------

    def _new(self, kind: str, argv: list, expected_rc: int = 0) -> Op:
        self.count += 1
        output = self.workdir / f"out{self.count}.json"
        return Op(kind, argv + ["--o", str(output)], expected_rc, output)

    def warmup(self) -> Op:
        """One untimed operation that loads the same modules and file."""
        if self.name == "best-narrow":
            return self._new("warmup", ["compute", "--net", str(self.net), "--method", "fast"])
        if self.name == "gc-sweep-wide":
            return self._new(
                "warmup", ["compute", "--net", str(self.net), "--method", "gc", "--c", "1.0"]
            )
        return self._verify(self.report, "warmup")

    def _verify(self, report: Path, kind: str) -> Op:
        argv = [
            "verify", "--net", str(self.net), "--report", str(report),
            "--samples", str(self.samples), "--seed", str(self.seed * 1000 + self.count),
        ]
        return self._new(kind, argv, EXIT_VALIDATION if kind == "tampered" else 0)

    def round(self) -> list:
        """The operations of one round; every run attempts whole rounds."""
        if self.name == "best-narrow":
            return [self._new("compute", ["compute", "--net", str(self.net), "--method", "best"])]
        if self.name == "gc-sweep-wide":
            sweep = ":".join(f"{v:g}" for v in SWEEP)
            return [self._new(
                "compute",
                ["compute", "--net", str(self.net), "--method", "gc", "--sweep", sweep],
            )]
        genuine = [self._verify(self.report, "verify") for _ in range(GENUINE_PER_ROUND)]
        return genuine + [self._verify(self.tampered, "tampered")]

    # -- reference checks -------------------------------------------------

    def ref(self) -> dict:
        """Reference figures of the workload's network, computed once a run."""
        if self._ref is None:
            weights, act = reference.read_network(self.net)
            n0 = weights[0].shape[1]
            self._ref = {
                "weights": weights,
                "j0": float(reference.jacobian_norms(weights, act, np.zeros((1, n0)))[0]),
                "lower": reference.empirical_lower(weights, act, REF_SAMPLES, self.seed),
                "product": reference.product_bound(weights),
                "fast": reference.recursion_bound(weights, "fast")[0],
            }
            if self.name == "gc-sweep-wide":
                self._ref["sweep"] = [self._gc_bound(weights, c) for c in SWEEP_GRID]
        return self._ref

    @staticmethod
    def _gc_bound(weights, c: float) -> float:
        try:
            return reference.recursion_bound(weights, "gc", c)[0]
        except reference.Infeasible:
            return math.inf

    def min_eig(self, lambdas: list, gamma: float) -> float:
        key = (gamma, b"".join(np.asarray(lam).tobytes() for lam in lambdas))
        if key not in self._min_eigs:
            self._min_eigs[key] = reference.lipsdp_min_eig(self.ref()["weights"], lambdas, gamma)
        return self._min_eigs[key]

    def check_report(self, payload: dict, checks: Checks, where: str) -> float:
        """Checks a compute report; returns bound over the empirical lower bound."""
        ref = self.ref()
        bound, gamma = payload["bound"], payload["gamma"]
        checks.close(bound * bound, gamma, GAMMA_RTOL, f"{where}: bound^2 against gamma")
        checks.expect(bound >= ref["lower"], f"{where}: bound {bound} below sampled {ref['lower']}")
        checks.expect(bound >= ref["j0"], f"{where}: bound {bound} below |J(0)| {ref['j0']}")
        method, cfg = payload["method"], payload["config"]
        if method == "product":
            checks.close(bound, ref["product"], RTOL, f"{where}: product bound")
        else:
            again, _ = reference.recursion_bound(ref["weights"], method, cfg["c"], cfg["theta"])
            checks.close(bound, again, RTOL, f"{where}: {method} c={cfg['c']} recomputed")
        if self.name == "gc-sweep-wide":
            self._check_sweep(payload, checks, where)
        else:
            limit = min(ref["fast"], ref["product"]) * (1.0 + RTOL)
            checks.expect(bound <= limit, f"{where}: best {bound} above fast/product {limit}")
            lambdas = payload["multipliers"]["lambdas"]
            eig = self.min_eig(lambdas, payload["multipliers"]["gamma"])
            checks.expect(eig >= MIN_EIG_TOL, f"{where}: LipSDP min eigenvalue {eig}")
        return bound / ref["lower"]

    def _check_sweep(self, payload: dict, checks: Checks, where: str) -> None:
        points = payload["sweep"]["points"]
        cs = [p["c"] for p in points]
        checks.expect(
            len(cs) == len(SWEEP_GRID) and np.allclose(cs, SWEEP_GRID, rtol=0, atol=1e-12),
            f"{where}: sweep grid {cs}",
        )
        bounds = self.ref()["sweep"]
        best = int(np.argmin(bounds))
        checks.close(payload["config"]["c"], SWEEP_GRID[best], 1e-12, f"{where}: winning c")
        checks.close(payload["bound"], bounds[best], RTOL, f"{where}: sweep minimum")

    def check(self, op: Op, checks: Checks) -> float | None:
        """Checks one operation that did not fail; returns its bound gap."""
        where = f"{self.name} op {op.output.stem} ({op.kind})"
        if op.kind == "tampered":
            return None
        if not op.output.exists():
            checks.expect(False, f"{where}: no output written")
            return None
        out = json.loads(op.output.read_text())
        if self.name != "verify-narrow":
            return self.check_report(out, checks, where)
        report = json.loads(self.report.read_text())
        ref = self.ref()
        checks.expect(out["bound"] == report["bound"], f"{where}: verified bound changed")
        lower = out["empirical_lower"]
        checks.expect(
            ref["j0"] * (1.0 - RTOL) <= lower <= out["bound"],
            f"{where}: empirical {lower} outside [|J(0)| {ref['j0']}, bound {out['bound']}]",
        )
        checks.expect(bool(out["lmi"] and out["lmi"]["psd"]), f"{where}: feasibility not shown")
        return out["bound"] / lower

    def check_inputs(self, checks: Checks) -> None:
        """Checks what the program made at setup: the verified reports."""
        if self.name != "verify-narrow":
            return
        self.check_report(json.loads(self.report.read_text()), checks, "setup report")
        tampered = json.loads(self.tampered.read_text())
        eig = self.min_eig(tampered["multipliers"]["lambdas"], tampered["multipliers"]["gamma"])
        checks.expect(
            eig < TAMPERED_MIN_EIG, f"tampered report not shown infeasible: min eigenvalue {eig}"
        )


def environment() -> dict:
    """Core count, BLAS threads in force and library versions, as the program sees them."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "blas_env.py")],
        cwd=ROOT, env=PROGRAM_ENV, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        return {"error": proc.stderr.strip()[-500:]}
    return json.loads(proc.stdout)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def warm_up(wl: Workload, checks: Checks) -> None:
    warm = run_op(wl.warmup(), wl.workdir, 0)
    checks.expect(not warm.failed, f"warm-up exited {warm.rc}: {warm.stderr.strip()[-300:]}")


def probe(workdir: Path, checks: Checks) -> float:
    """Wall time of one run of probe.py, the host-speed reference."""
    rc, wall, *_rest, stderr = spawn([sys.executable, str(HERE / "probe.py")], workdir, "probe")
    checks.expect(rc == 0, f"probe exited {rc}: {stderr.strip()[-300:]}")
    return wall


def timed_run(wl: Workload, seconds: float, checks: Checks) -> tuple:
    warm_up(wl, checks)
    scaled = wl.name in HOST_SCALED
    if scaled:
        probe(wl.workdir, checks)  # warms the probe's own imports
    ops = []
    start = time.perf_counter()
    while True:
        for op in wl.round():
            if scaled:
                op.probe_s = probe(wl.workdir, checks)
                op.host_scale = PROBE_REF_S / op.probe_s
            ops.append(run_op(op, wl.workdir, len(ops) + 1))
        if time.perf_counter() - start >= seconds:
            break
    return ops, {}


def traced_run(wl: Workload, checks: Checks) -> tuple:
    """One round whose first operation runs in-process under tracer.py."""
    warm_up(wl, checks)
    ops = wl.round()
    trace_file = wl.workdir / "trace.json"
    for i, op in enumerate(ops):
        run_op(op, wl.workdir, i + 1, tracer_out=trace_file if i == 0 else None)
    trace = json.loads(trace_file.read_text()) if trace_file.exists() else None
    checks.expect(trace is not None, "tracer wrote no trace")
    return ops, trace or {}


def per_layer_metrics(trace: dict) -> dict:
    c = trace.get("counters", {})

    def get(name, key):
        return float(c.get(name, {}).get(key, 0.0))

    def ratio(a, b):
        return a / b if b else 0.0

    layers = get("gamma_matrix", "calls")
    rec_s, gamma_s, chol_s = (
        get(name, "seconds") for name in ("run_recursion", "gamma_matrix", "cholesky")
    )
    recursions, lost = get("run_recursion", "calls"), get("run_recursion", "raised")
    solves, matvecs = get("eigen", "calls"), get("eigen", "matvecs")
    values = {
        "cli.import_s": trace.get("import_s", 0.0),
        "network.load_s": get("load_network", "seconds"),
        "network.jacobian_sigma_s": get("jacobian_sigma", "seconds"),
        "network.jacobian_sigma_calls": get("jacobian_sigma", "calls"),
        "bounds.recursions": recursions,
        "bounds.recursions_lost": lost,
        "bounds.feasible_share": ratio(recursions - lost, recursions),
        "bounds.gamma_ms_per_layer": ratio(1e3 * gamma_s, layers),
        "bounds.cholesky_ms_per_layer": ratio(1e3 * chol_s, layers),
        "bounds.select_ms_per_layer": ratio(1e3 * (rec_s - gamma_s - chol_s), layers),
        "linalg.power_iteration_s": get("eigen", "seconds"),
        "linalg.power_iteration_calls": solves,
        "linalg.matvecs": matvecs,
        "linalg.matvecs_per_solve": ratio(matvecs, solves),
        "certify.empirical_s": get("empirical_lower_bound", "seconds"),
        "certify.feasibility_s": get("verify_feasibility", "seconds"),
        "trace.overhead_s": trace.get("overhead_s", 0.0),
    }
    return {name: metric(values[name], unit) for name, unit in PER_LAYER.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lipbound" / "cli.py").is_file():
        print(f"error: no lipbound sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        wl = Workload(args.workload, args.seed, args.quick, workdir)
        try:
            wl.setup()
        except SetupFailed as exc:
            print(f"error: setup failed: {exc}", file=sys.stderr)
            return 2
        setup_s = time.perf_counter() - T_START
        load_checkers()
        checks = Checks()
        if args.trace:
            ops, trace = traced_run(wl, checks)
        else:
            ops, trace = timed_run(wl, args.seconds, checks)

        wl.check_inputs(checks)
        gaps = []
        for op in ops:
            if op.failed:
                continue
            gap = wl.check(op, checks)
            if gap is not None:
                gaps.append(gap)
        counted = [op for op in ops if not op.failed and op.kind != "tampered"]
        if not counted or not gaps:
            checks.expect(False, "no operation succeeded")
        env = environment()
        if not (counted and gaps):
            metrics = {}
        elif args.trace:
            metrics = per_layer_metrics(trace)
        else:
            values = {
                "op_s": statistics.median(op.wall_s * op.host_scale for op in counted),
                "op_cpu_s": statistics.median(op.cpu_s * op.host_scale for op in counted),
                "peak_rss_mb": max(op.rss_mb for op in ops),
                "setup_s": setup_s,
                "bound_gap": statistics.median(gaps),
            }
            metrics = {name: metric(values[name], unit) for name, unit in END_TO_END.items()}
        result = {
            "correct": not checks.failures,
            "attempted": len(ops),
            "failed": sum(op.failed for op in ops),
            "metrics": metrics,
        }
        for msg in checks.failures:
            print(f"check failed: {msg}", file=sys.stderr)
        for op in ops:
            if op.failed:
                print(f"op failed: {op.kind} exited {op.rc}, expected {op.expected_rc}",
                      file=sys.stderr)
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "quick": args.quick, "environment": env,
            "absent": trace.get("absent", []),
            "ops": [
                {"kind": op.kind, "argv": op.argv, "rc": op.rc, "expected_rc": op.expected_rc,
                 "wall_s": op.wall_s, "cpu_s": op.cpu_s, "rss_mb": op.rss_mb,
                 "probe_s": op.probe_s, "host_scale": op.host_scale, "traced": op.traced}
                for op in ops
            ],
            "check_failures": checks.failures,
            "result": result,
        }
        results = HERE / "results"
        results.mkdir(exist_ok=True)
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}"
        (results / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
        print("environment: " + json.dumps(env, sort_keys=True))
        if trace.get("absent"):
            print("absent from the program: " + ", ".join(trace["absent"]))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
