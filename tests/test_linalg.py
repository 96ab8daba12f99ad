"""Unit and property tests for the dense linear-algebra kernels."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lipbound
from lipbound.bounds import product_bound
from lipbound.cli import main
from lipbound.errors import NotConverged, NotPositiveDefinite
from lipbound.linalg import (
    cholesky,
    gamma_matrix,
    gram,
    openblas_threads,
    row_abs_sums,
    scaled_row_sums,
    spectral_upper_bound,
    top_eigenvalue,
)
from lipbound.network import Network


def random_spd(rng, n):
    A = rng.standard_normal((n, n))
    return A @ A.T + 0.1 * np.eye(n)


class TestCholesky:
    def test_identity(self):
        L = cholesky(np.eye(2))
        np.testing.assert_array_equal(L, np.eye(2))

    def test_diagonal_square_roots(self):
        L = cholesky(np.diag([4.0, 9.0]))
        np.testing.assert_array_equal(L, np.diag([2.0, 3.0]))

    def test_singular_boundary_case_rejected(self):
        # hand elimination: second pivot is 0.25 - 0.25 = 0
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[1.0, -0.5], [-0.5, 0.25]]))

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_reconstruction_on_random_spd(self):
        rng = np.random.default_rng(42)
        for n in (1, 2, 3, 5, 8, 20, 50):
            S = random_spd(rng, n)
            L = cholesky(S)
            assert np.all(np.diag(L) > 0)
            assert np.all(np.triu(L, 1) == 0)
            err = np.max(np.abs(L @ L.T - S))
            assert err <= 1e-10 * (1.0 + np.max(np.abs(S)))

    def test_overwrite_factors_in_place_bit_for_bit(self):
        rng = np.random.default_rng(43)
        for n in (1, 4, 9):
            S = random_spd(rng, n)
            A = np.array(S, order="F")
            L = cholesky(A, overwrite=True)
            assert L is A
            assert L.tobytes(order="F") == cholesky(S).tobytes(order="F")

    def test_overwrite_refuses_a_c_ordered_array(self):
        with pytest.raises(ValueError, match="Fortran-ordered"):
            cholesky(np.ascontiguousarray(random_spd(np.random.default_rng(44), 3)),
                     overwrite=True)


class TestGammaMatrix:
    def test_scalar(self):
        G = gamma_matrix(np.array([[2.0]]), np.eye(1))
        np.testing.assert_array_equal(G, [[4.0]])

    def test_scalar_inverse(self):
        G = gamma_matrix(np.eye(1), cholesky(np.array([[4.0]])))
        np.testing.assert_allclose(G, [[0.25]])

    def test_row_vector(self):
        G = gamma_matrix(np.array([[1.0, 1.0]]), np.eye(2))
        np.testing.assert_allclose(G, [[2.0]])

    def test_symmetric_and_psd_on_random_inputs(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m, n = rng.integers(1, 9, size=2)
            W = rng.standard_normal((m, n))
            L = cholesky(random_spd(rng, int(n)))
            G = gamma_matrix(W, L)
            # exact: gamma_matrix relies on the Gram product's symmetry
            np.testing.assert_array_equal(G, G.T)
            shift = 1e-12 * (1.0 + np.abs(G).max())
            cholesky(G + shift * np.eye(G.shape[0]))

    def test_given_arrays_match_fresh_ones_bit_for_bit(self):
        # one pair of arrays serves every call of its shape, as in a recursion
        rng = np.random.default_rng(8)
        dims = (6, 9, 4, 9, 3)
        arrays = {}
        for _ in range(2):
            for n, m in zip(dims, dims[1:]):
                W, L = rng.standard_normal((m, n)), cholesky(random_spd(rng, n))
                work, out = arrays.setdefault((n, m), (
                    np.empty((n, m), order="F"), np.empty((m, m))))
                G = gamma_matrix(W, L, work, out)
                assert G is out
                assert G.tobytes() == gamma_matrix(W, L).tobytes()


class TestTopEigenvalue:
    def test_dominant_diagonal(self):
        assert top_eigenvalue(np.diag([3.0, 1.0])) == 3.0

    def test_two_by_two(self):
        # eigenvalues {1, 3} by characteristic polynomial
        assert abs(top_eigenvalue(np.array([[2.0, 1.0], [1.0, 2.0]])) - 3.0) <= 1e-14

    def test_zero_matrix(self):
        assert top_eigenvalue(np.zeros((3, 3))) == 0.0

    def test_start_vector_in_kernel(self):
        # all-ones is in the kernel; eigenvalues are {0, 2}
        sigma = top_eigenvalue(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert abs(sigma - 2.0) <= 1e-14

    def test_nan_entry_not_converged(self):
        with pytest.raises(NotConverged):
            top_eigenvalue(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_far_outside_square_root_of_float_range(self):
        # squaring 1e160 overflows; LAPACK's internal scaling must not
        assert top_eigenvalue(np.diag([1e160, 1.0])) == 1e160

    def test_against_dense_eigensolver(self):
        rng = np.random.default_rng(3)
        for n in list(range(1, 7)) + [64]:
            for _ in range(10):
                A = rng.standard_normal((n, n))
                S = A @ A.T
                top = float(np.linalg.eigvalsh(S)[-1])
                assert abs(top_eigenvalue(S) - top) <= 1e-12 * max(top, 1.0)


def layouts(A):
    """A C-ordered, a Fortran-ordered and a strided-view version of A."""
    padded = np.zeros((A.shape[0], 2 * A.shape[1]))
    padded[:, ::2] = A
    return np.ascontiguousarray(A), np.asfortranarray(A), padded[:, ::2]


class TestLapackBindings:
    """The ctypes bindings against numpy-only oracles."""

    def test_cholesky_matches_numpy(self):
        rng = np.random.default_rng(21)
        for n in (1, 2, 7, 64, 160):
            S = random_spd(rng, n)
            L = cholesky(S)
            np.testing.assert_allclose(L, np.linalg.cholesky(S), rtol=1e-12, atol=1e-12)
            assert L.flags.f_contiguous
            assert not np.triu(L, 1).any()

    def test_same_bits_from_every_layout(self):
        rng = np.random.default_rng(22)
        n = 33
        S = random_spd(rng, n)
        W = rng.standard_normal((10, n))
        L = cholesky(S)
        results = [
            (cholesky(S_), gamma_matrix(W_, L_), top_eigenvalue(S_))
            for S_, W_, L_ in zip(layouts(S), layouts(W), layouts(L))
        ]
        for chol, gamma, top in results[1:]:
            np.testing.assert_array_equal(chol, results[0][0])
            np.testing.assert_array_equal(gamma, results[0][1])
            assert top == results[0][2]

    def test_order_one(self):
        np.testing.assert_array_equal(cholesky(np.array([[4.0]])), [[2.0]])
        np.testing.assert_array_equal(
            gamma_matrix(np.array([[3.0], [-1.0]]), np.array([[2.0]])),
            [[2.25, -0.75], [-0.75, 0.25]],
        )
        assert top_eigenvalue(np.array([[-5.0]])) == -5.0

    def test_indefinite_names_the_failing_order(self):
        with pytest.raises(NotPositiveDefinite, match="order 3 "):
            cholesky(np.diag([1.0, 2.0, -1.0, 4.0]))

    def test_input_left_unchanged(self):
        rng = np.random.default_rng(23)
        S, W = random_spd(rng, 9), rng.standard_normal((4, 9))
        S0, W0 = S.copy(), W.copy()
        L = cholesky(S)
        L0 = L.copy()
        gamma_matrix(W, L)
        top_eigenvalue(S)
        for after, before in ((S, S0), (W, W0), (L, L0)):
            np.testing.assert_array_equal(after, before)

    def test_read_only_inputs(self):
        rng = np.random.default_rng(24)
        S, W = random_spd(rng, 6), rng.standard_normal((3, 6))
        L = cholesky(S)
        expect = (gamma_matrix(W, L), top_eigenvalue(S))
        for A in (S, W, L):
            A.flags.writeable = False
        np.testing.assert_array_equal(cholesky(S), L)
        np.testing.assert_array_equal(gamma_matrix(W, L), expect[0])
        assert top_eigenvalue(S) == expect[1]

    def test_gamma_of_rectangular_w_against_solve(self):
        rng = np.random.default_rng(25)
        n = 64
        M = random_spd(rng, n)
        W = rng.standard_normal((10, n))
        G = gamma_matrix(W, cholesky(M))
        expect = W @ np.linalg.solve(M, W.T)
        assert G.shape == (10, 10)
        np.testing.assert_allclose(G, expect, rtol=1e-9, atol=1e-9 * np.abs(expect).max())

    @pytest.mark.parametrize("scale", [1.0, 1e-200, 1e200], ids=["1", "1e-200", "1e200"])
    def test_top_eigenvalue_against_eigvalsh(self, scale):
        # entries near 1e200 square to inf: only LAPACK's internal scaling
        # keeps the solve finite
        rng = np.random.default_rng(26)
        for n in (1, 2, 5, 64, 160):
            A = rng.standard_normal((n, n))
            S = scale * (A + A.T)
            top = float(np.linalg.eigvalsh(S)[-1])
            assert np.isfinite(top)
            assert abs(top_eigenvalue(S) - top) <= 1e-12 * np.abs(S).max() * n

    @pytest.mark.parametrize("shape", [(2, 3), (0, 0), (4,)])
    def test_shape_checked_before_lapack(self, shape):
        with pytest.raises(ValueError):
            cholesky(np.ones(shape))
        with pytest.raises(ValueError):
            top_eigenvalue(np.ones(shape))

    def test_gamma_shape_checked_before_lapack(self):
        with pytest.raises(ValueError):
            gamma_matrix(np.ones((2, 3)), np.eye(4))


class TestRowSums:
    def test_simple(self):
        np.testing.assert_array_equal(
            row_abs_sums(np.array([[2.0, 1.0], [1.0, 2.0]])), [3.0, 3.0]
        )

    def test_zero(self):
        np.testing.assert_array_equal(row_abs_sums(np.zeros((3, 3))), np.zeros(3))

    def test_absolute_values(self):
        np.testing.assert_array_equal(
            row_abs_sums(np.array([[1.0, -2.0], [3.0, 0.0]])), [3.0, 3.0]
        )

    def test_scaled_with_unit_scaling_matches(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(1, 8))
            G = rng.standard_normal((n, n))
            np.testing.assert_array_equal(
                scaled_row_sums(G, np.ones(n)), row_abs_sums(G)
            )

    def test_scaled_hand_case(self):
        G = np.array([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(scaled_row_sums(G, np.array([1.0, 2.0])), [4.0, 2.5])

    def test_scaled_diagonal_independent_of_q(self):
        G = np.diag([3.0, 5.0])
        for q in ([1.0, 1.0], [0.2, 7.0]):
            np.testing.assert_allclose(scaled_row_sums(G, np.array(q)), [3.0, 5.0])


class TestPsdCheck:
    def test_identity_no_shift(self):
        np.testing.assert_array_equal(cholesky(np.eye(3)), np.eye(3))

    def test_singular_psd_passes_small_shift(self):
        # det = 9 - 9 = 0: exactly singular PSD, factored once shifted
        S = np.array([[0.25, -3.0], [-3.0, 36.0]])
        L = cholesky(S + 1e-9 * np.eye(2))
        np.testing.assert_allclose(L @ L.T, S, atol=1e-8)

    def test_indefinite_fails(self):
        # eigenvalues {3, -1}
        S = np.array([[1.0, 2.0], [2.0, 1.0]])
        np.testing.assert_allclose(np.linalg.eigvalsh(S), [-1.0, 3.0])
        with pytest.raises(NotPositiveDefinite):
            cholesky(S + 1e-9 * np.eye(2))


class TestSpectralUpperBound:
    def test_tight_on_constant_row_sums(self):
        assert spectral_upper_bound(np.array([[2.0, 1.0], [1.0, 2.0]])) == 3.0

    def test_diagonal(self):
        assert spectral_upper_bound(np.diag([5.0, 1.0])) == 5.0

    def test_permutation(self):
        assert spectral_upper_bound(np.array([[0.0, 1.0], [1.0, 0.0]])) == 1.0

    def test_dominates_top_eigenvalue(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 10))
            G = random_spd(rng, n)
            sigma = top_eigenvalue(G)
            assert spectral_upper_bound(G) >= sigma * (1.0 - 1e-12)


class TestSpectralNorm:
    def test_gram_exactly_symmetric(self):
        rng = np.random.default_rng(13)
        for shape in ((3, 5), (5, 3), (1, 4), (7, 7), (40, 64), (64, 40)):
            G = gram(rng.standard_normal(shape))
            assert G.shape == (min(shape),) * 2
            np.testing.assert_array_equal(G, G.T)

    def test_rectangular(self):
        rng = np.random.default_rng(9)
        for shape in ((3, 5), (5, 3), (1, 4), (4, 4)):
            W = rng.standard_normal(shape)
            expect = float(np.linalg.svd(W, compute_uv=False)[0])
            got = product_bound(Network((W,))).bound
            assert abs(got - expect) <= 1e-8 * max(expect, 1.0)


THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _child_output(code: str, **variables):
    """The JSON that ``code`` prints in a new process, which imports this lipbound.

    The child starts with neither thread variable set, plus ``variables``.
    """
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env.update(variables)
    src = str(Path(lipbound.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, timeout=120, check=True)
    return json.loads(child.stdout)


def _threads_after_import(first: str = "", **variables) -> int:
    """numpy's OpenBLAS thread count after ``first`` then `import lipbound`.

    The import runs in a new process (see ``_child_output``).
    """
    code = (f"{first}import json, lipbound; from lipbound.linalg import openblas_threads; "
            "print(json.dumps(openblas_threads()))")
    return _child_output(code, **variables)["threads"]


class TestOpenblasThreads:
    def test_import_pins_every_openblas_to_one_thread(self):
        assert _threads_after_import() == 1

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS caps threads at cores")
    @pytest.mark.parametrize("variable", THREAD_VARIABLES)
    def test_user_thread_count_left_in_force(self, variable):
        assert _threads_after_import(**{variable: "2"}) == 2

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc")
    def test_import_starts_no_blas_worker(self):
        code = ("import json, os, lipbound; from lipbound.linalg import openblas_threads; "
                "print(json.dumps([os.listdir('/proc/self/task'), openblas_threads()]))")
        tasks, openblas = _child_output(code)
        assert len(tasks) == 1
        assert openblas["threads"] == 1

    @pytest.mark.parametrize("variables", [{}, {"OPENBLAS_NUM_THREADS": ""},
                                           {"OMP_NUM_THREADS": ""}],
                             ids=["unset", "openblas-empty", "omp-empty"])
    def test_import_leaves_environment_as_it_was(self, variables):
        code = ("import json, os; before = dict(os.environ); import lipbound; "
                "print(json.dumps([before, dict(os.environ)]))")
        before, after = _child_output(code, **variables)
        assert after == before
        for name, value in variables.items():
            assert after[name] == value

    def test_numpy_imported_first_still_one_thread(self):
        assert _threads_after_import(first="import numpy; ") == 1

    def test_manifest_numeric_block_is_strict_json(self, tmp_path):
        net, report, verified = (tmp_path / name for name in ("net.json", "r.json", "v.json"))
        assert main(["gen", "--layers", "2", "--width", "4", "--in", "3", "--out", "2",
                     "--seed", "0", "--o", str(net)]) == 0
        assert main(["compute", "--net", str(net), "--method", "fast",
                     "--o", str(report)]) == 0
        assert main(["verify", "--net", str(net), "--report", str(report),
                     "--samples", "5", "--o", str(verified)]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        for path in (report, verified):
            numeric = json.loads(path.read_text(), parse_constant=reject)["manifest"]["numeric"]
            assert set(numeric) == {"numpy", "cpu_count", "openblas"}
            assert numeric["numpy"] == np.__version__
            assert numeric["cpu_count"] == os.cpu_count()
            assert numeric["openblas"] == openblas_threads()
            assert set(numeric["openblas"]) == {"threads", "config"}
            assert isinstance(numeric["openblas"]["threads"], int)
            assert numeric["openblas"]["threads"] >= 1
            assert numeric["openblas"]["config"].startswith("OpenBLAS")

    def test_manifest_reports_threads_without_proc_self_maps(self, tmp_path):
        """The thread query reaches numpy's library by symbol, not by file scan."""
        net, report = tmp_path / "net.json", tmp_path / "r.json"
        assert main(["gen", "--layers", "2", "--width", "4", "--in", "3", "--out", "2",
                     "--seed", "0", "--o", str(net)]) == 0
        code = f"""
import builtins, contextlib, io, json
from lipbound.cli import main
from lipbound.linalg import openblas_threads
real_open = builtins.open

def no_maps(file, *args, **kwargs):
    if str(file) == "/proc/self/maps":
        raise OSError("no /proc/self/maps")
    return real_open(file, *args, **kwargs)

builtins.open = no_maps
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["compute", "--net", {str(net)!r}, "--method", "fast",
                 "--o", {str(report)!r}]) == 0
builtins.open = real_open
print(json.dumps([openblas_threads(),
                  json.load(open({str(report)!r}))["manifest"]["numeric"]["openblas"]]))
"""
        expected, reported = _child_output(code)
        assert reported == expected
        assert reported["threads"] == 1


def test_cli_never_loads_scipy(tmp_path):
    """A CLI process computes and verifies on numpy alone, with one OpenBLAS."""
    net, report = tmp_path / "net.json", tmp_path / "r.json"
    code = f"""
import json, sys
from lipbound.cli import main
assert main(["gen", "--layers", "3", "--width", "8", "--in", "6", "--out", "2",
             "--seed", "0", "--o", {str(net)!r}]) == 0
assert main(["compute", "--net", {str(net)!r}, "--method", "best", "--o", {str(report)!r}]) == 0
assert main(["verify", "--net", {str(net)!r}, "--report", {str(report)!r}, "--samples", "5"]) == 0
try:
    with open("/proc/self/maps") as fh:
        mapped = sorted({{line.split()[-1] for line in fh if "openblas" in line}})
except OSError:
    mapped = None
print(json.dumps([sorted(m for m in sys.modules if m.split(".")[0] == "scipy"), mapped]))
"""
    env = dict(os.environ)
    src = str(Path(lipbound.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, timeout=120, check=True)
    scipy_modules, mapped = json.loads(child.stdout.splitlines()[-1])
    assert scipy_modules == []
    if sys.platform.startswith("linux"):
        assert len(mapped) == 1
