#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>

#include "linalg/kernels/kernels.hpp"

namespace iup::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_) {
      throw std::invalid_argument("Matrix: ragged initializer list");
    }
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::diag(std::span<const double> d) {
  Matrix m(d.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
  return m;
}

Matrix Matrix::diag(std::initializer_list<double> d) {
  return diag(std::span<const double>(d.begin(), d.size()));
}

Matrix Matrix::toeplitz(double lower, double center, double upper,
                        std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    m(i, i) = center;
    if (i + 1 < n) {
      m(i + 1, i) = lower;
      m(i, i + 1) = upper;
    }
  }
  return m;
}

Matrix Matrix::from_columns(const std::vector<std::vector<double>>& cols) {
  if (cols.empty()) return {};
  const std::size_t nr = cols.front().size();
  Matrix m(nr, cols.size());
  for (std::size_t j = 0; j < cols.size(); ++j) {
    if (cols[j].size() != nr) {
      throw std::invalid_argument("from_columns: ragged input");
    }
    for (std::size_t i = 0; i < nr; ++i) m(i, j) = cols[j][i];
  }
  return m;
}

Matrix Matrix::from_rows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return {};
  const std::size_t nc = rows.front().size();
  Matrix m(rows.size(), nc);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].size() != nc) {
      throw std::invalid_argument("from_rows: ragged input");
    }
    m.set_row(i, rows[i]);
  }
  return m;
}

double& Matrix::at(std::size_t i, std::size_t j) {
  if (i >= rows_ || j >= cols_) {
    throw std::out_of_range("Matrix::at(" + std::to_string(i) + "," +
                            std::to_string(j) + ") out of " +
                            std::to_string(rows_) + "x" +
                            std::to_string(cols_));
  }
  return data_[index(i, j)];
}

double Matrix::at(std::size_t i, std::size_t j) const {
  return const_cast<Matrix*>(this)->at(i, j);
}

std::vector<double> Matrix::row(std::size_t i) const {
  auto s = row_span(i);
  return {s.begin(), s.end()};
}

std::vector<double> Matrix::col(std::size_t j) const {
  std::vector<double> out(rows_);
  copy_col_into(j, out);
  return out;
}

void Matrix::copy_col_into(std::size_t j, std::span<double> out) const {
  if (out.size() != rows_) {
    throw std::invalid_argument("copy_col_into: length mismatch");
  }
  for (std::size_t i = 0; i < rows_; ++i) out[i] = (*this)(i, j);
}

void Matrix::copy_row_into(std::size_t i, std::span<double> out) const {
  if (out.size() != cols_) {
    throw std::invalid_argument("copy_row_into: length mismatch");
  }
  auto s = row_span(i);
  std::copy(s.begin(), s.end(), out.begin());
}

void Matrix::set_row(std::size_t i, std::span<const double> values) {
  if (values.size() != cols_) {
    throw std::invalid_argument("set_row: length mismatch");
  }
  std::copy(values.begin(), values.end(), row_span(i).begin());
}

void Matrix::set_col(std::size_t j, std::span<const double> values) {
  if (values.size() != rows_) {
    throw std::invalid_argument("set_col: length mismatch");
  }
  for (std::size_t i = 0; i < rows_; ++i) (*this)(i, j) = values[i];
}

Matrix Matrix::block(std::size_t r0, std::size_t c0, std::size_t nr,
                     std::size_t nc) const {
  if (r0 + nr > rows_ || c0 + nc > cols_) {
    throw std::out_of_range("Matrix::block out of range");
  }
  Matrix out(nr, nc);
  // One contiguous copy per row — both matrices are row-major.
  for (std::size_t i = 0; i < nr; ++i) {
    const auto src = row_span(r0 + i).subspan(c0, nc);
    std::copy(src.begin(), src.end(), out.row_span(i).begin());
  }
  return out;
}

Matrix Matrix::select_columns(std::span<const std::size_t> indices) const {
  Matrix out(rows_, indices.size());
  for (std::size_t k = 0; k < indices.size(); ++k) {
    if (indices[k] >= cols_) {
      throw std::out_of_range("select_columns: index out of range");
    }
    for (std::size_t i = 0; i < rows_; ++i) out(i, k) = (*this)(i, indices[k]);
  }
  return out;
}

Matrix Matrix::select_rows(std::span<const std::size_t> indices) const {
  Matrix out(indices.size(), cols_);
  for (std::size_t k = 0; k < indices.size(); ++k) {
    if (indices[k] >= rows_) {
      throw std::out_of_range("select_rows: index out of range");
    }
    out.set_row(k, row_span(indices[k]));
  }
  return out;
}

Matrix Matrix::transpose() const {
  Matrix out;
  transpose_into(*this, out);
  return out;
}

void Matrix::check_same_shape(const Matrix& rhs, const char* op) const {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_) {
    throw std::invalid_argument(std::string("Matrix ") + op +
                                ": shape mismatch " + std::to_string(rows_) +
                                "x" + std::to_string(cols_) + " vs " +
                                std::to_string(rhs.rows_) + "x" +
                                std::to_string(rhs.cols_));
  }
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  check_same_shape(rhs, "+=");
  for (std::size_t k = 0; k < data_.size(); ++k) data_[k] += rhs.data_[k];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  check_same_shape(rhs, "-=");
  for (std::size_t k = 0; k < data_.size(); ++k) data_[k] -= rhs.data_[k];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

Matrix& Matrix::operator/=(double s) {
  for (double& v : data_) v /= s;
  return *this;
}

Matrix Matrix::operator-() const {
  Matrix out = *this;
  for (double& v : out.data_) v = -v;
  return out;
}

Matrix operator*(const Matrix& a, const Matrix& b) {
  Matrix out;
  multiply_into(a, b, out);
  return out;
}

std::vector<double> operator*(const Matrix& a, std::span<const double> x) {
  std::vector<double> y(a.rows(), 0.0);
  multiply_into(a, x, y);
  return y;
}

Matrix Matrix::hadamard(const Matrix& rhs) const {
  check_same_shape(rhs, "hadamard");
  Matrix out = *this;
  for (std::size_t k = 0; k < data_.size(); ++k) out.data_[k] *= rhs.data_[k];
  return out;
}

double Matrix::sum() const {
  double acc = 0.0;
  for (double v : data_) acc += v;
  return acc;
}

double Matrix::max() const {
  if (empty()) throw std::logic_error("Matrix::max on empty matrix");
  return *std::max_element(data_.begin(), data_.end());
}

double Matrix::min() const {
  if (empty()) throw std::logic_error("Matrix::min on empty matrix");
  return *std::min_element(data_.begin(), data_.end());
}

double Matrix::max_abs() const {
  double best = 0.0;
  for (double v : data_) best = std::max(best, std::abs(v));
  return best;
}

bool Matrix::approx_equal(const Matrix& rhs, double tol) const {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_) return false;
  for (std::size_t k = 0; k < data_.size(); ++k) {
    if (std::abs(data_[k] - rhs.data_[k]) > tol) return false;
  }
  return true;
}

Matrix Matrix::gram() const {
  Matrix g;
  gram_into(*this, g);
  return g;
}

void Matrix::fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::resize(std::size_t rows, std::size_t cols, double fill) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, fill);
}

namespace {

// Tile edge for the blocked kernels: 64 doubles = 512 B per row segment,
// so an out/a/b tile triple stays comfortably inside L1.
constexpr std::size_t kTile = 64;

void check_not_aliased(const Matrix& out, const Matrix& a, const Matrix& b,
                       const char* op) {
  if (&out == &a || &out == &b) {
    throw std::invalid_argument(std::string(op) + ": out aliases an input");
  }
}

}  // namespace

void multiply_into(const Matrix& a, const Matrix& b, Matrix& out) {
  check_not_aliased(out, a, b, "multiply_into");
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("Matrix product: inner dimension mismatch");
  }
  const std::size_t m = a.rows();
  const std::size_t inner = a.cols();
  const std::size_t n = b.cols();
  out.resize(m, n, 0.0);
  // For every out element the k contributions arrive in ascending order,
  // each one axpy element op, so the result matches the naive triple loop
  // at the active dispatch level.  Outputs of up to 16 columns run as
  // kernels::axpy_panel passes, the rows of a the coefficient rows and the
  // rows of b the terms, in ascending chunks of k: several out rows stay
  // in registers over one load of each b row, and a(i, k) == 0 is an FMA
  // with a zero coefficient.  Wider outputs run blocked i-k-j, skipping
  // the zero pivots.  Either way is exact on finite data (the zero-skip
  // contract in kernels.hpp).
  if (n <= 16) {
    constexpr std::size_t kChunk = 64;
    const double* x[kChunk];
    for (std::size_t k0 = 0; k0 < inner; k0 += kChunk) {
      const std::size_t count = std::min(kChunk, inner - k0);
      for (std::size_t t = 0; t < count; ++t) {
        x[t] = b.row_span(k0 + t).data();
      }
      kernels::axpy_panel(a.data().data() + k0, inner, m, x, count,
                          out.data().data(), n, n);
    }
    return;
  }
  for (std::size_t i0 = 0; i0 < m; i0 += kTile) {
    const std::size_t i1 = std::min(i0 + kTile, m);
    for (std::size_t k0 = 0; k0 < inner; k0 += kTile) {
      const std::size_t k1 = std::min(k0 + kTile, inner);
      for (std::size_t j0 = 0; j0 < n; j0 += kTile) {
        const std::size_t j1 = std::min(j0 + kTile, n);
        for (std::size_t i = i0; i < i1; ++i) {
          auto out_row = out.row_span(i);
          for (std::size_t k = k0; k < k1; ++k) {
            const double aik = a(i, k);
            if (aik == 0.0) continue;
            const auto b_row = b.row_span(k);
            kernels::axpy(aik, b_row.data() + j0, out_row.data() + j0,
                          j1 - j0);
          }
        }
      }
    }
  }
}

void multiply_into(const Matrix& a, std::span<const double> x,
                   std::span<double> out) {
  if (a.cols() != x.size() || a.rows() != out.size()) {
    throw std::invalid_argument("Matrix*vector: dimension mismatch");
  }
  if (!x.empty() && !out.empty() &&
      std::less<>{}(out.data(), x.data() + x.size()) &&
      std::less<>{}(x.data(), out.data() + out.size())) {
    throw std::invalid_argument("Matrix*vector: out overlaps x");
  }
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double acc = 0.0;
    auto r = a.row_span(i);
    for (std::size_t j = 0; j < x.size(); ++j) acc += r[j] * x[j];
    out[i] = acc;
  }
}

void multiply_transposed_into(const Matrix& a, const Matrix& b, Matrix& out) {
  check_not_aliased(out, a, b, "multiply_transposed_into");
  if (a.cols() != b.cols()) {
    throw std::invalid_argument(
        "multiply_transposed_into: inner dimension mismatch");
  }
  const std::size_t m = a.rows();
  const std::size_t n = b.rows();
  const std::size_t inner = a.cols();
  out.resize(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    const auto a_row = a.row_span(i);
    auto out_row = out.row_span(i);
    for (std::size_t j = 0; j < n; ++j) {
      const auto b_row = b.row_span(j);
      out_row[j] = kernels::dot(a_row.data(), b_row.data(), inner);
    }
  }
}

void transpose_into(const Matrix& a, Matrix& out) {
  check_not_aliased(out, a, a, "transpose_into");
  out.resize(a.cols(), a.rows());
  // Tiled so both the strided reads and the contiguous writes stay within
  // a cache-resident block.
  for (std::size_t i0 = 0; i0 < a.rows(); i0 += kTile) {
    const std::size_t i1 = std::min(i0 + kTile, a.rows());
    for (std::size_t j0 = 0; j0 < a.cols(); j0 += kTile) {
      const std::size_t j1 = std::min(j0 + kTile, a.cols());
      for (std::size_t i = i0; i < i1; ++i) {
        for (std::size_t j = j0; j < j1; ++j) out(j, i) = a(i, j);
      }
    }
  }
}

void gram_into(const Matrix& a, Matrix& out) {
  check_not_aliased(out, a, a, "gram_into");
  const std::size_t n = a.cols();
  out.resize(n, n, 0.0);
  // Upper-triangle row p = sum over the rows i of a, ascending, of
  // a(i, p) * a_i, skipping a(i, p) == 0 — per element the sequence of
  // one rank-1 update per row of a.  Up to 16 columns the vector levels
  // build blocks of output rows in registers over one pass of a each
  // (kernels::gram_upper); otherwise each output row is one ordered
  // axpy_sequence, so factor-width rows still stay in registers.  Terms
  // are issued in chunks.
  if (!kernels::gram_upper(a.data().data(), a.rows(), n, out.data().data())) {
    constexpr std::size_t kChunk = 32;
    double alpha[kChunk] = {};
    const double* x[kChunk] = {};
    for (std::size_t p = 0; p < n; ++p) {
      const std::size_t s = kernels::upper_row_start(p, n);
      double* row = out.row_span(p).data() + s;
      std::size_t k = 0;
      for (std::size_t i = 0; i < a.rows(); ++i) {
        const double* ai = a.row_span(i).data();
        if (ai[p] == 0.0) continue;
        alpha[k] = ai[p];
        x[k] = ai + s;
        if (++k == kChunk) {
          kernels::axpy_sequence(alpha, x, k, row, n - s);
          k = 0;
        }
      }
      kernels::axpy_sequence(alpha, x, k, row, n - s);
    }
  }
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t q = 0; q < p; ++q) out(p, q) = out(q, p);
  }
}

}  // namespace iup::linalg
