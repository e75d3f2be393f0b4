// google-benchmark microbenchmarks of the CPU substrate itself: emulated
// mixed-precision GEMM and the TRSM/SYRK/POTRF tile kernels, format
// conversions, Bessel K_nu, covariance tile generation and the task-graph
// machinery. These measure *this library's* throughput (the numeric path
// accuracy experiments run through), not the simulated GPUs. Kernel rows
// report FLOP/s as items_per_second, run once per kernel variant the CPU
// offers (precision/simd_kernels.hpp) and are named and labelled with it;
// nb = 256 is the factor-sqexp tile.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/cholesky_tasks.hpp"
#include "core/mp_cholesky.hpp"
#include "core/tiled_covariance.hpp"
#include "linalg/blas.hpp"
#include "precision/convert.hpp"
#include "precision/mixed_gemm.hpp"
#include "precision/simd_kernels.hpp"
#include "runtime/executor.hpp"
#include "stats/besselk.hpp"
#include "stats/covariance.hpp"
#include "stats/locations.hpp"

namespace {

using namespace mpgeo;

// The tile kernels, registered in main() once per kernel variant this CPU
// runs (the name's second field), so every variant's rate comes from one
// binary on one host.

/// The trailing update C -= A * B^T (nb x nb, k = nb) on operands packed
/// once up front, as the operand cache hands them to gemm_tile.
template <class T>
void gemm_bench(benchmark::State& state, KernelVariant v, Precision prec) {
  const std::size_t n = std::size_t(state.range(0));
  Rng rng(1);
  std::vector<double> a(n * n), b(n * n), c(n * n, 0.0);
  for (auto& x : a) x = rng.uniform(-1, 1);
  for (auto& x : b) x = rng.uniform(-1, 1);
  std::vector<T> ap, bp;
  pack_gemm_operand('N', n, n, a.data(), n, prec, ap);
  pack_gemm_operand('N', n, n, b.data(), n, prec, bp);
  for (auto _ : state) {
    mixed_gemm_packed(v, prec, n, n, n, -1.0, ap.data(), bp.data(), 1.0,
                      c.data(), n);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(2 * n * n * n));
  state.SetLabel(to_string(v));
}

void BM_MixedGemm(benchmark::State& state, KernelVariant v, Precision prec) {
  if (prec == Precision::FP64) {
    gemm_bench<double>(state, v, prec);
  } else {
    gemm_bench<float>(state, v, prec);
  }
}

// The tile Cholesky's panel solve X * L^T = B (nb x nb). B is restored from
// a pristine copy every iteration so the repeated in-place solves never
// drift into subnormals.
template <class T>
void BM_Trsm(benchmark::State& state, KernelVariant v) {
  const std::size_t n = std::size_t(state.range(0));
  std::vector<T> l(n * n, T(0)), b0(n * n);
  Rng rng(4);
  for (std::size_t j = 0; j < n; ++j) {
    l[j + j * n] = T(1) + T(rng.uniform(0.0, 1.0));
    for (std::size_t i = j + 1; i < n; ++i)
      l[i + j * n] = T(rng.uniform(-0.5, 0.5) / double(n));
  }
  for (auto& x : b0) x = T(rng.uniform(-1, 1));
  std::vector<T> b = b0;
  for (auto _ : state) {
    std::copy(b0.begin(), b0.end(), b.begin());
    trsm_right_lower_trans(v, n, n, T(1), l.data(), n, b.data(), n);
    benchmark::DoNotOptimize(b.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(n * n * n));
  state.SetLabel(to_string(v));
}

// The tile Cholesky's diagonal update C -= A * A^T (FP64, nb x nb, k = nb).
void BM_Syrk(benchmark::State& state, KernelVariant v) {
  const std::size_t n = std::size_t(state.range(0));
  Rng rng(5);
  std::vector<double> a(n * n), c(n * n, 0.0);
  for (auto& x : a) x = rng.uniform(-1, 1);
  for (auto _ : state) {
    syrk_lower_notrans(v, n, n, -1.0, a.data(), n, 1.0, c.data(), n);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(n * (n + 1) * n));
  state.SetLabel(to_string(v));
}

// The tile Cholesky's diagonal factorization (FP64, nb x nb): n^3/3 flops.
// The SPD input is copied back every iteration (n^2 copies, inside the
// timing).
void BM_Potrf(benchmark::State& state, KernelVariant v) {
  const std::size_t n = std::size_t(state.range(0));
  Rng rng(6);
  std::vector<double> a0(n * n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = j; i < n; ++i) {
      const double x = i == j ? rng.uniform(1.0, 2.0)
                              : rng.uniform(-1.0, 1.0) / double(n);
      a0[i + j * n] = x;
      a0[j + i * n] = x;
    }
  }
  std::vector<double> a = a0;
  for (auto _ : state) {
    std::copy(a0.begin(), a0.end(), a.begin());
    benchmark::DoNotOptimize(potrf_lower(v, n, a.data(), n));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(n * n * n / 3));
  state.SetLabel(to_string(v));
}

void register_kernel_benchmarks() {
  for (const KernelVariant v : {KernelVariant::Portable, KernelVariant::Avx2,
                                KernelVariant::Avx512}) {
    if (!kernel_variant_available(v)) continue;
    const std::string tag = to_string(v);
    for (const Precision p : {Precision::FP64, Precision::FP32,
                              Precision::FP16_32, Precision::FP16}) {
      benchmark::RegisterBenchmark(
          ("BM_MixedGemm/" + tag + "/" + to_string(p)).c_str(), BM_MixedGemm,
          v, p)
          ->Arg(128)
          ->Arg(256);
    }
    benchmark::RegisterBenchmark(("BM_Trsm/" + tag + "/FP64").c_str(),
                                 BM_Trsm<double>, v)
        ->Arg(128)
        ->Arg(256);
    benchmark::RegisterBenchmark(("BM_Trsm/" + tag + "/FP32").c_str(),
                                 BM_Trsm<float>, v)
        ->Arg(128)
        ->Arg(256);
    benchmark::RegisterBenchmark(("BM_Syrk/" + tag).c_str(), BM_Syrk, v)
        ->Arg(128)
        ->Arg(256);
    benchmark::RegisterBenchmark(("BM_Potrf/" + tag).c_str(), BM_Potrf, v)
        ->Arg(128)
        ->Arg(256);
  }
}

void BM_ConvertFp64ToFp16(benchmark::State& state) {
  const std::size_t n = std::size_t(state.range(0));
  std::vector<double> src(n, 1.2345);
  std::vector<float16> dst(n);
  for (auto _ : state) {
    convert(std::span<const double>(src), std::span<float16>(dst));
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * int64_t(n) * 10);
}
BENCHMARK(BM_ConvertFp64ToFp16)->Arg(1 << 12)->Arg(1 << 16);

void BM_BesselK(benchmark::State& state) {
  const double nu = double(state.range(0)) / 10.0;
  double x = 0.013;
  for (auto _ : state) {
    x = x < 40.0 ? x * 1.01 : 0.013;  // sweep both regimes
    benchmark::DoNotOptimize(bessel_k(nu, x));
  }
}
BENCHMARK(BM_BesselK)->Arg(5)->Arg(10)->Arg(15);

void BM_CovarianceTileMatern(benchmark::State& state) {
  const std::size_t nb = std::size_t(state.range(0));
  Rng rng(2);
  LocationSet locs = generate_locations(4 * nb, 2, rng);
  const Covariance cov(CovKind::Matern);
  const std::vector<double> theta = {1.0, 0.1, 0.7};
  std::vector<double> out(nb * nb);
  for (auto _ : state) {
    covariance_tile(cov, locs, theta, nb, 0, nb, nb, out.data(), nb);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(nb * nb));
}
BENCHMARK(BM_CovarianceTileMatern)->Arg(32)->Arg(64);

void BM_TaskGraphInsertion(benchmark::State& state) {
  const std::size_t nt = std::size_t(state.range(0));
  for (auto _ : state) {
    TaskGraph g;
    std::vector<DataId> data(nt * (nt + 1) / 2);
    for (auto& d : data) d = g.add_data({});
    const auto datum = [&](TileIndex x) { return data[x.packed()]; };
    for_each_cholesky_task(nt, [&](const CholeskyTask& t) {
      g.add_task({}, cholesky_accesses(t, datum));
    });
    benchmark::DoNotOptimize(g.num_tasks());
  }
  state.SetLabel("tasks=" + std::to_string(
      (state.range(0) * (state.range(0) + 1) * (state.range(0) + 2)) / 6));
}
BENCHMARK(BM_TaskGraphInsertion)->Arg(16)->Arg(32);

void BM_MpCholeskyNumeric(benchmark::State& state) {
  const std::size_t n = std::size_t(state.range(0));
  Rng rng(3);
  LocationSet locs = generate_locations(n, 2, rng);
  const Covariance cov(CovKind::SqExp);
  const std::vector<double> theta = {1.0, 0.1};
  for (auto _ : state) {
    TileMatrix tiles = build_tiled_covariance(cov, locs, theta, n / 4);
    MpCholeskyOptions opts;
    opts.u_req = 1e-9;
    const auto r = mp_cholesky(tiles, opts);
    benchmark::DoNotOptimize(r.info);
  }
}
BENCHMARK(BM_MpCholeskyNumeric)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  register_kernel_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
