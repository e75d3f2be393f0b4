#include "precision/precision.hpp"

#include "common/error.hpp"

namespace mpgeo {

std::string to_string(Precision p) {
  switch (p) {
    case Precision::FP64: return "FP64";
    case Precision::FP32: return "FP32";
    case Precision::TF32: return "TF32";
    case Precision::BF16_32: return "BF16_32";
    case Precision::FP16_32: return "FP16_32";
    case Precision::FP16: return "FP16";
  }
  MPGEO_ASSERT(false);
  return {};
}

std::string to_string(Storage s) {
  switch (s) {
    case Storage::FP64: return "FP64";
    case Storage::FP32: return "FP32";
    case Storage::FP16: return "FP16";
  }
  MPGEO_ASSERT(false);
  return {};
}

double unit_roundoff(Precision p) {
  switch (p) {
    case Precision::FP64: return 0x1.0p-53;
    case Precision::FP32: return 0x1.0p-24;
    case Precision::TF32: return 0x1.0p-11;
    // 16-bit inputs, FP32 accumulation: effective bound dominated by the
    // input rounding but softened by exact FP32 sums (paper Section VII-A:
    // "we experimentally determine its machine epsilon in applications").
    case Precision::BF16_32: return 0x1.0p-9;
    case Precision::FP16_32: return 0x1.0p-13;
    case Precision::FP16: return 0x1.0p-11;
  }
  MPGEO_ASSERT(false);
  return 0;
}

std::size_t bytes_per_element(Storage s) {
  switch (s) {
    case Storage::FP64: return 8;
    case Storage::FP32: return 4;
    case Storage::FP16: return 2;
  }
  MPGEO_ASSERT(false);
  return 0;
}

Storage storage_for(Precision p) {
  // Fig 2b: tiles whose kernels run in any sub-FP32 format are *stored* in
  // FP32, because the TRSM that produces them only exists in FP64/FP32 on
  // Nvidia GPUs. Only the wire format (below) drops to 16 bits.
  switch (p) {
    case Precision::FP64: return Storage::FP64;
    case Precision::FP32:
    case Precision::TF32:
    case Precision::BF16_32:
    case Precision::FP16_32:
    case Precision::FP16: return Storage::FP32;
  }
  MPGEO_ASSERT(false);
  return Storage::FP64;
}

Storage wire_storage(Precision p) {
  // On the wire (and on the PCIe bus) 16-bit-input formats travel as 16-bit
  // payloads: that is precisely the data-motion saving STC exploits.
  switch (p) {
    case Precision::FP64: return Storage::FP64;
    case Precision::FP32:
    case Precision::TF32: return Storage::FP32;
    case Precision::BF16_32:
    case Precision::FP16_32:
    case Precision::FP16: return Storage::FP16;
  }
  MPGEO_ASSERT(false);
  return Storage::FP64;
}

bool lower_than(Precision a, Precision b) {
  return unit_roundoff(a) > unit_roundoff(b);
}

Precision higher_of(Precision a, Precision b) {
  return lower_than(a, b) ? b : a;
}

}  // namespace mpgeo
