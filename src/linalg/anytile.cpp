#include "linalg/anytile.hpp"

#include <cmath>

#include "common/error.hpp"
#include "precision/convert.hpp"

namespace mpgeo {

AnyTile::AnyTile(std::size_t rows, std::size_t cols, Storage storage)
    : rows_(rows), cols_(cols), storage_(storage) {
  switch (storage) {
    case Storage::FP64: buf_ = std::vector<double>(rows * cols); break;
    case Storage::FP32: buf_ = std::vector<float>(rows * cols); break;
    case Storage::FP16: buf_ = std::vector<float16>(rows * cols); break;
  }
}

std::size_t AnyTile::bytes() const {
  return size() * bytes_per_element(storage_);
}

void AnyTile::to_double(std::span<double> out) const {
  MPGEO_REQUIRE(out.size() == size(), "AnyTile::to_double: size mismatch");
  std::visit(
      [&](const auto& v) {
        for (std::size_t i = 0; i < v.size(); ++i)
          out[i] = static_cast<double>(v[i]);
      },
      buf_);
}

std::vector<double> AnyTile::to_double() const {
  std::vector<double> out(size());
  to_double(std::span<double>(out));
  return out;
}

void AnyTile::to_float(std::span<float> out) const {
  MPGEO_REQUIRE(out.size() == size(), "AnyTile::to_float: size mismatch");
  std::visit(
      [&](const auto& v) {
        for (std::size_t i = 0; i < v.size(); ++i)
          out[i] = static_cast<float>(v[i]);
      },
      buf_);
}

void AnyTile::round_through_wire(Storage w) {
  if (bytes_per_element(w) >= bytes_per_element(storage_)) return;
  if (storage_ == Storage::FP64) {
    auto& v = std::get<std::vector<double>>(buf_);
    if (w == Storage::FP32) {
      for (auto& x : v) x = static_cast<float>(x);
    } else {
      round_through_half_n(v.data(), v.size());
    }
    return;
  }
  // FP32 storage, FP16 wire: round each float through binary16 in place.
  auto& v = std::get<std::vector<float>>(buf_);
  for (auto& x : v) x = half_bits_to_float(float_to_half_bits(x));
}

void AnyTile::from_double(std::span<const double> in) {
  MPGEO_REQUIRE(in.size() == size(), "AnyTile::from_double: size mismatch");
  std::visit(
      [&](auto& v) {
        using Elem = typename std::decay_t<decltype(v)>::value_type;
        for (std::size_t i = 0; i < v.size(); ++i) {
          if constexpr (std::is_same_v<Elem, double>) {
            v[i] = in[i];
          } else if constexpr (std::is_same_v<Elem, float>) {
            v[i] = static_cast<float>(in[i]);
          } else {
            v[i] = float16(static_cast<float>(in[i]));
          }
        }
      },
      buf_);
}

void AnyTile::convert_storage(Storage new_storage) {
  if (new_storage == storage_) return;
  if (!resident()) {
    // The payload that is decoded into this tile later must fit the label.
    MPGEO_REQUIRE(bytes_per_element(new_storage) >= bytes_per_element(storage_),
                  "AnyTile::convert_storage: a released tile can only widen");
    storage_ = new_storage;
    return;
  }
  std::vector<double> tmp = to_double();
  storage_ = new_storage;
  switch (new_storage) {
    case Storage::FP64: buf_ = std::vector<double>(size()); break;
    case Storage::FP32: buf_ = std::vector<float>(size()); break;
    case Storage::FP16: buf_ = std::vector<float16>(size()); break;
  }
  from_double(tmp);
}

double AnyTile::frobenius_norm() const {
  double acc = 0.0;
  std::visit(
      [&](const auto& v) {
        for (const auto& e : v) {
          const double x = static_cast<double>(e);
          acc += x * x;
        }
      },
      buf_);
  return std::sqrt(acc);
}

double AnyTile::at(std::size_t i, std::size_t j) const {
  MPGEO_ASSERT(i < rows_ && j < cols_);
  double out = 0.0;
  std::visit(
      [&](const auto& v) { out = static_cast<double>(v[i + j * rows_]); },
      buf_);
  return out;
}

void AnyTile::set(std::size_t i, std::size_t j, double v) {
  MPGEO_ASSERT(i < rows_ && j < cols_);
  std::visit(
      [&](auto& b) {
        using Elem = typename std::decay_t<decltype(b)>::value_type;
        if constexpr (std::is_same_v<Elem, double>) {
          b[i + j * rows_] = v;
        } else if constexpr (std::is_same_v<Elem, float>) {
          b[i + j * rows_] = static_cast<float>(v);
        } else {
          b[i + j * rows_] = float16(static_cast<float>(v));
        }
      },
      buf_);
}

std::span<const std::byte> AnyTile::raw_bytes() const {
  std::span<const std::byte> out;
  std::visit(
      [&](const auto& v) {
        out = std::as_bytes(std::span(v.data(), v.size()));
      },
      buf_);
  return out;
}

std::span<std::byte> AnyTile::raw_bytes() {
  std::span<std::byte> out;
  std::visit(
      [&](auto& v) {
        out = std::as_writable_bytes(std::span(v.data(), v.size()));
      },
      buf_);
  return out;
}

void AnyTile::release() {
  std::visit(
      [](auto& v) {
        v.clear();
        v.shrink_to_fit();
      },
      buf_);
}

bool AnyTile::resident() const {
  return std::visit([&](const auto& v) { return v.size() == size(); }, buf_);
}

}  // namespace mpgeo
