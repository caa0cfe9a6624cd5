"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line (visible with `pytest -s`); the
assertions pin the stated tolerances, floors, and runtime caps.
"""

import time

import numpy as np
import pytest

import sketchlsq as sq
from sketchlsq import ensembles
from sketchlsq.solver import METHOD_PROJECTION, METHOD_SAMPLING
from oracles import normal_equations_solve


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    return ok


def test_01_fwht_involution_and_isometry():
    t0 = time.perf_counter()
    worst_inv = 0.0
    worst_iso = 0.0
    sizes = [2**j for j in range(1, 13)]
    for n in sizes:
        rng = np.random.default_rng(n)
        vectors = rng.standard_normal((n, 100))
        once = sq.fwht_normalized(vectors)
        twice = sq.fwht_normalized(once)
        worst_inv = max(worst_inv, float(np.abs(twice - vectors).max()))
        norms_in = np.linalg.norm(vectors, axis=0)
        norms_out = np.linalg.norm(once, axis=0)
        worst_iso = max(worst_iso, float(np.abs(norms_out - norms_in).max() / norms_in.min()))
    elapsed = time.perf_counter() - t0
    ok = worst_inv <= 1e-12 and worst_iso <= 1e-12 and elapsed < 5.0
    assert _report(
        "criterion 1: transform involution/isometry",
        ok,
        f"inv={worst_inv:.2e} iso={worst_iso:.2e} t={elapsed:.2f}s",
    )


def test_02_partial_transform_bit_exact():
    rng = np.random.default_rng(2024)
    all_equal = True
    for case in range(50):
        a = rng.standard_normal((1024, 4))
        signs = sq.sample_signs(1024, 9000 + case)
        full = sq.apply_rht(a, signs)
        count = (1, 16, 256)[case % 3]
        rows = rng.integers(0, 1024, size=count)
        part = sq.partial_rht_rows(a, signs, rows)
        all_equal = all_equal and np.array_equal(part, full[rows])
    assert _report("criterion 2: partial transform bit-exact", all_equal)


def test_03_exact_solver_vs_normal_equations_oracle():
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(100):
        a = rng.standard_normal((60, 6))
        b = rng.standard_normal(60)
        x = sq.solve_exact_ls(a, b)
        x_oracle = normal_equations_solve(a, b)
        worst = max(worst, float(np.linalg.norm(x - x_oracle) / np.linalg.norm(x_oracle)))
    ok = worst <= 1e-7
    assert _report("criterion 3: exact solver vs oracle", ok, f"worst rel err={worst:.2e}")


def test_04_energy_spreading_ensemble():
    t0 = time.perf_counter()
    rows, entries = ensembles.energy_spreading(n=1024, d=8, seeds=200, base_seed=0)
    elapsed = time.perf_counter() - t0
    ok = rows.rate >= 0.95 and entries.rate >= 0.95 and elapsed < 30.0
    assert _report(
        "criterion 4: energy spreading",
        ok,
        f"rows={rows.rate:.3f} entries={entries.rate:.3f} t={elapsed:.1f}s",
    )


def test_05_subspace_embedding_ensemble():
    # Size 384 sits above r = d / (1 - 2**-0.25)**2 ~ 316, where the
    # Marchenko-Pastur edge crosses 1/sqrt(2); at 256 even an ideal
    # Gaussian sketch meets the threshold on only ~70% of draws.
    sampling = ensembles.embedding_ensemble(METHOD_SAMPLING, size=384, seeds=100, base_seed=0)
    projection = ensembles.embedding_ensemble(METHOD_PROJECTION, size=384, seeds=100, base_seed=0)
    ok = sampling.rate >= 0.90 and projection.rate >= 0.90
    assert _report(
        "criterion 5: subspace-embedding ensemble",
        ok,
        f"sampling={sampling.rate:.2f} projection={projection.rate:.2f} floor=0.90",
    )


def test_06_relative_error_and_deterministic_implication():
    t0 = time.perf_counter()
    sampling = ensembles.relative_error_ensemble(METHOD_SAMPLING, size=256, seeds=100, base_seed=0)
    projection = ensembles.relative_error_ensemble(METHOD_PROJECTION, size=128, seeds=100, base_seed=0)
    elapsed = time.perf_counter() - t0
    implication_violations = (
        sampling.details["violations_residual"]
        + sampling.details["violations_forward_z"]
        + projection.details["violations_residual"]
        + projection.details["violations_forward_z"]
    )
    ok = (
        sampling.rate >= 0.80
        and projection.rate >= 0.80
        and implication_violations == 0
        and elapsed < 120.0
    )
    assert _report(
        "criterion 6: end-to-end relative error",
        ok,
        f"sampling={sampling.rate:.2f} projection={projection.rate:.2f} "
        f"conditioned={sampling.details['conditioned']}/{projection.details['conditioned']} "
        f"violations={implication_violations} t={elapsed:.1f}s",
    )


def test_07_forward_error_tangent_bound():
    sampling = ensembles.relative_error_ensemble(METHOD_SAMPLING, size=256, seeds=100, base_seed=0)
    projection = ensembles.relative_error_ensemble(METHOD_PROJECTION, size=128, seeds=100, base_seed=0)
    violations = (
        sampling.details["violations_forward_gamma"]
        + projection.details["violations_forward_gamma"]
    )
    ok = violations == 0
    assert _report(
        "criterion 7: forward-error bound under conditions",
        ok,
        f"violations={violations} over "
        f"{sampling.details['conditioned'] + projection.details['conditioned']} conditioned seeds",
    )


def test_08_gram_approximation_ensemble():
    t0 = time.perf_counter()
    result = ensembles.gram_error_ensemble(m=8, n=100, eps=0.5, delta=0.1, seeds=50, base_seed=0)
    elapsed = time.perf_counter() - t0
    ok = result.rate >= 0.90 and elapsed < 60.0
    assert _report(
        "criterion 8: sampled Gram spectral error",
        ok,
        f"rate={result.rate:.2f} c={result.details['c']} "
        f"worst={result.details['worst_error']} t={elapsed:.1f}s",
    )


def test_09_projection_moment_bound():
    t0 = time.perf_counter()
    results = ensembles.moment_bound(n=256, k=32, q=0.125, seeds=20000, pairs=3, base_seed=0)
    elapsed = time.perf_counter() - t0
    ratios = [res.details["ratio"] for res in results]
    ok = all(r <= 1.1 for r in ratios) and all(res.ok for res in results) and elapsed < 60.0
    assert _report(
        "criterion 9: projection second-moment bound",
        ok,
        f"ratios={ratios} t={elapsed:.1f}s",
    )


def test_10_determinism_byte_identical():
    checks = []

    signs = sq.sample_signs(4096, 7)
    checks.append(signs.signs.tobytes() == sq.sample_signs(4096, 7).signs.tobytes())

    plan = sq.draw_sampling_plan(1024, 128, 3)
    checks.append(plan.indices.tobytes() == sq.draw_sampling_plan(1024, 128, 3).indices.tobytes())

    proj = sq.draw_sparse_projection(64, 256, 0.2, 5)
    proj2 = sq.draw_sparse_projection(64, 256, 0.2, 5)
    checks.append(
        proj.rows.tobytes() == proj2.rows.tobytes()
        and proj.cols.tobytes() == proj2.cols.tobytes()
        and proj.signs.tobytes() == proj2.signs.tobytes()
    )

    spec = sq.ProblemSpec(kind="gaussian-incoherent", n=512, d=6, kappa=8.0, gamma=0.7, seed=11)
    p1, p2 = sq.gen_problem(spec), sq.gen_problem(spec)
    checks.append(p1.a.tobytes() == p2.a.tobytes() and p1.b.tobytes() == p2.b.tobytes())

    params = sq.SketchParams(epsilon=0.5, r=128, k=64, q=0.5)
    for method in ("sampling", "projection"):
        o1 = sq.sketch_solve_best_of(p1, params, 13, m=2, method=method)
        o2 = sq.sketch_solve_best_of(p1, params, 13, m=2, method=method)
        checks.append(
            o1.x_tilde.tobytes() == o2.x_tilde.tobytes()
            and o1.residual_tilde == o2.residual_tilde
        )

    a = np.random.default_rng(1).standard_normal((4, 20))
    sampler = sq.ColumnSampler.norm_squared(a, c=500)
    checks.append(
        sq.exactly_c(a, sampler, 9).tobytes() == sq.exactly_c(a, sampler, 9).tobytes()
    )
    checks.append(
        sq.approx_gram(a, sampler, 9).tobytes() == sq.approx_gram(a, sampler, 9).tobytes()
    )

    from sketchlsq.bench import run_experiment, strip_timings

    config = {
        "problems": [{"kind": "coherent-spiked", "n": 128, "d": 4, "kappa": 4.0,
                      "gamma": 0.8, "seed": 2}],
        "methods": ["exact", "sampling", "projection", "cgnr"],
        "epsilon": 0.5,
        "seeds": 2,
        "r": 64, "k": 32, "q": 0.5,
        "diagnostics": True,
    }
    checks.append(strip_timings(run_experiment(config)) == strip_timings(run_experiment(config)))

    ok = all(checks)
    assert _report("criterion 10: seed determinism", ok, f"{sum(checks)}/{len(checks)} surfaces")


@pytest.mark.perf
def test_11_sampling_beats_gelsd_wall_clock():
    # gelsd (np.linalg.lstsq), not the package's slower exact solve, is the
    # honest LAPACK baseline.
    perf = ensembles.perf_comparison(n=2**17, d=30, runs=5, base_seed=0)
    ok = perf["sketch_median_s"] < perf["gelsd_median_s"]
    assert _report(
        "criterion 11: sampled pipeline vs gelsd (opt-in)",
        ok,
        f"sampled={perf['sketch_median_s']:.3f}s gelsd={perf['gelsd_median_s']:.3f}s "
        f"r={perf['r']} median of {perf['runs']}",
    )


@pytest.mark.perf
def test_12_gemm_transform_beats_the_butterfly():
    from sketchlsq import hadamard

    work = np.random.default_rng(0).standard_normal((2**17, 21))
    kernels = {"gemm": hadamard._transform, "butterfly": hadamard._butterfly}
    times = {name: [] for name in kernels}
    for _ in range(9):
        for name, kernel in kernels.items():
            w = work.copy()
            t0 = time.perf_counter()
            kernel(w)
            times[name].append(time.perf_counter() - t0)
    speedup = np.median(times["butterfly"]) / np.median(times["gemm"])
    assert _report(
        "criterion 12: GEMM transform vs the butterfly (opt-in)",
        speedup >= 1.3,
        f"GEMM {speedup:.2f}x faster, median of 9 interleaved runs at (2^17, 21)",
    )
