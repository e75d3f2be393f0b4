#include "linalg/reference.hpp"

#include <cmath>

#include "common/error.hpp"
#include "linalg/blas.hpp"

namespace mpgeo {

void cholesky_lower(Matrix<double>& a) {
  MPGEO_REQUIRE(a.rows() == a.cols(), "cholesky: matrix must be square");
  const int info = potrf_lower(a.rows(), a.data(), a.ld());
  MPGEO_REQUIRE(info == 0, "cholesky: matrix is not positive definite (minor " +
                               std::to_string(info) + ")");
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t i = 0; i < j; ++i) a(i, j) = 0.0;
}

double logdet_from_cholesky(const Matrix<double>& l) {
  MPGEO_REQUIRE(l.rows() == l.cols(), "logdet: matrix must be square");
  double acc = 0.0;
  for (std::size_t i = 0; i < l.rows(); ++i) {
    const double d = l(i, i);
    MPGEO_REQUIRE(d > 0.0, "logdet: non-positive diagonal in Cholesky factor");
    acc += std::log(d);
  }
  return 2.0 * acc;
}

void forward_solve(const Matrix<double>& l, std::vector<double>& b) {
  MPGEO_REQUIRE(l.rows() == l.cols(), "forward_solve: matrix must be square");
  MPGEO_REQUIRE(b.size() == l.rows(), "forward_solve: rhs size mismatch");
  trsm_left_lower_notrans<double>(l.rows(), 1, 1.0, l.data(), l.ld(), b.data(),
                                  l.rows());
}

double quadratic_form(const Matrix<double>& l, const std::vector<double>& z) {
  std::vector<double> y = z;
  forward_solve(l, y);
  return dot(y.size(), y.data(), y.data());
}

Matrix<double> multiply_llt(const Matrix<double>& l) {
  const std::size_t n = l.rows();
  Matrix<double> out(n, n);
  syrk_lower_notrans(n, n, 1.0, l.data(), l.ld(), 0.0, out.data(),
                             out.ld());
  symmetrize_from_lower<double>(n, out.data(), out.ld());
  return out;
}

double cholesky_residual(const Matrix<double>& a, const Matrix<double>& l) {
  MPGEO_REQUIRE(a.rows() == l.rows() && a.cols() == l.cols(),
                "cholesky_residual: shape mismatch");
  Matrix<double> llt = multiply_llt(l);
  double num = 0.0;
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t i = 0; i < a.rows(); ++i) {
      const double d = a(i, j) - llt(i, j);
      num += d * d;
    }
  const double den = frobenius_norm(a.rows(), a.cols(), a.data(), a.ld());
  MPGEO_REQUIRE(den > 0.0, "cholesky_residual: zero matrix");
  return std::sqrt(num) / den;
}

double max_abs_diff(const Matrix<double>& a, const Matrix<double>& b) {
  MPGEO_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols(),
                "max_abs_diff: shape mismatch");
  double m = 0.0;
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t i = 0; i < a.rows(); ++i)
      m = std::max(m, std::fabs(a(i, j) - b(i, j)));
  return m;
}

}  // namespace mpgeo
