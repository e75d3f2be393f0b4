// Reproduction of Fig 1: GEMM accuracy and performance per precision format
// on V100 / A100 / H100.
//
// Accuracy is measured numerically with the emulated formats (it depends
// only on rounding semantics, not on which GPU executes); performance comes
// from the calibrated hardware model, with and without the datatype
// conversion overhead the figure accounts for.
#include <cmath>
#include <iostream>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "gpusim/cost_model.hpp"
#include "gpusim/gpu_specs.hpp"
#include "precision/mixed_gemm.hpp"

using namespace mpgeo;

namespace {

/// C := A * B at `prec` for n x n A and B, through the packs the tile
/// kernels consume.
template <class T>
void product(Precision prec, std::size_t n, const std::vector<double>& a,
             const std::vector<double>& b, std::vector<double>& c) {
  std::vector<T> ap, bp;
  pack_gemm_operand('N', n, n, a.data(), n, prec, ap);
  pack_gemm_operand('T', n, n, b.data(), n, prec, bp);
  mixed_gemm_packed(prec, n, n, n, 1.0, ap.data(), bp.data(), 0.0, c.data(),
                    n);
}

double gemm_relative_error(Precision prec, std::size_t n, Rng& rng) {
  std::vector<double> a(n * n), b(n * n), c(n * n, 0.0), ref(n * n, 0.0);
  for (auto& x : a) x = rng.uniform(0.0, 1.0);
  for (auto& x : b) x = rng.uniform(0.0, 1.0);
  product<double>(Precision::FP64, n, a, b, ref);
  product<float>(prec, n, a, b, c);
  double num = 0, den = 0;
  for (std::size_t i = 0; i < n * n; ++i) {
    num += (c[i] - ref[i]) * (c[i] - ref[i]);
    den += ref[i] * ref[i];
  }
  return std::sqrt(num / den);
}

}  // namespace

int main() {
  const std::vector<Precision> formats = {Precision::FP64,    Precision::FP32,
                                          Precision::TF32,    Precision::BF16_32,
                                          Precision::FP16_32, Precision::FP16};

  std::cout << "== Fig 1 (accuracy): relative Frobenius error of GEMM vs "
               "FP64, random uniform data ==\n\n";
  {
    Rng rng(7);
    Table t({"n", "FP32", "TF32", "BF16_32", "FP16_32", "FP16"});
    for (std::size_t n : {128u, 256u, 512u}) {
      std::vector<std::string> row = {std::to_string(n)};
      for (Precision p : formats) {
        if (p == Precision::FP64) continue;
        row.push_back(Table::sci(gemm_relative_error(p, n, rng), 2));
      }
      t.add_row(row);
    }
    t.print(std::cout);
    std::cout << "\n(TF32, FP16_32 and BF16_32 cluster together, FP16 is "
                 "roughly an order worse — the grouping Fig 1 reports.)\n";
  }

  std::cout << "\n== Fig 1 (performance): modeled GEMM Tflop/s per format "
               "==\n";
  for (GpuModel model : {GpuModel::V100, GpuModel::A100, GpuModel::H100}) {
    const CostModel cm(spec_for(model));
    std::cout << "\n-- " << cm.spec().name << " --\n";
    Table t({"n", "FP64", "FP32", "TF32", "BF16_32", "FP16_32", "FP16",
             "FP16 w/ conversion"});
    for (std::size_t n : {2048u, 4096u, 8192u, 16384u}) {
      std::vector<std::string> row = {std::to_string(n)};
      const double flops = 2.0 * double(n) * n * n;
      for (Precision p : formats) {
        row.push_back(Table::num(flops / cm.gemm_seconds(p, n, n, n) / 1e12, 1));
      }
      // FP16 including the FP32->FP16 conversion of both inputs (the
      // overhead Fig 1 charges unless otherwise specified).
      const double conv =
          2.0 * cm.conversion_seconds(n * n, Storage::FP32, Storage::FP16);
      row.push_back(Table::num(
          flops / (cm.gemm_seconds(Precision::FP16, n, n, n) + conv) / 1e12, 1));
      t.add_row(row);
    }
    t.print(std::cout);
    Table peak({"format", "theoretical peak", "modeled sustained @16384",
                "fraction"});
    for (Precision p : formats) {
      const double tp = cm.spec().peak_tflops(p);
      const std::size_t n = 16384;
      const double sus = 2.0 * double(n) * n * n /
                         cm.gemm_seconds(p, n, n, n) / 1e12;
      peak.add_row({to_string(p), Table::num(tp, 1), Table::num(sus, 1),
                    Table::num(sus / tp, 2)});
    }
    peak.print(std::cout);
  }
  return 0;
}
