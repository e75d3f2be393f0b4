// The precision vocabulary of the framework.
//
// Following the paper (Section IV), kernels may execute in one of the GPU
// compute formats below; tile *storage* is restricted to FP64/FP32/FP16
// because that is what actually lives in (simulated) device memory. FP16_32
// and BF16_32 denote tensor-core GEMMs whose A/B inputs are 16-bit but whose
// accumulation and C operand are FP32 — they consume FP32-stored tiles
// (Fig 2b: TRSM cannot run below FP32 on Nvidia GPUs, so sub-FP32 tiles are
// stored in FP32).
#pragma once

#include <cstddef>
#include <string>

namespace mpgeo {

/// Kernel execution / communication precision formats, ordered from highest
/// to lowest accuracy. Keep the order: comparisons below rely on it.
enum class Precision : int {
  FP64 = 0,    ///< IEEE binary64 everywhere.
  FP32 = 1,    ///< IEEE binary32 everywhere.
  TF32 = 2,    ///< inputs rounded to 10-bit mantissa, FP32 accumulate.
  BF16_32 = 3, ///< bfloat16 inputs, FP32 accumulate (GEMM only).
  FP16_32 = 4, ///< binary16 inputs, FP32 accumulate (GEMM only).
  FP16 = 5,    ///< binary16 inputs, outputs and accumulate (GEMM only).
};

/// Storage formats for tile data at rest (host memory, device memory, wire).
enum class Storage : int {
  FP64 = 0,
  FP32 = 1,
  FP16 = 2,
};

/// Human-readable name ("FP16_32" etc).
std::string to_string(Precision p);
std::string to_string(Storage s);

/// Unit roundoff u of the format (2^-53 for FP64 ... 2^-11 for FP16).
/// For the mixed formats this is the effective block-FMA bound: FP16_32 and
/// BF16_32 round their inputs to 16 bits but accumulate in FP32, giving an
/// error between pure FP32 and pure FP16 (Blanchard et al. 2020); the paper
/// determines it experimentally, we use the input-rounding-dominated bound.
double unit_roundoff(Precision p);


/// Bytes per element of a storage format.
std::size_t bytes_per_element(Storage s);

/// Storage format a tile assigned kernel precision `p` lives in (Fig 2b):
/// FP64 tiles in FP64, everything else in FP32 (no 16-bit TRSM exists, so
/// sub-FP32 tiles are generated and kept in FP32).
Storage storage_for(Precision p);

/// Storage format used on the wire when a message carries precision `p`.
Storage wire_storage(Precision p);

/// True if `a` is a strictly less accurate format than `b`.
bool lower_than(Precision a, Precision b);

/// The more accurate of the two formats.
Precision higher_of(Precision a, Precision b);

}  // namespace mpgeo
