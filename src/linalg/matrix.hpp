// Dense row-major matrix of doubles.
//
// This is the numerical workhorse of the whole repository: the fingerprint
// matrix X, its factors L/R, the correlation matrix Z, and every constraint
// matrix (T, G, H) are instances of this class.  The interface follows the
// paper's MATLAB-flavoured pseudo code (Algorithm 1) closely enough that the
// solver reads like the published algorithm: `col`, `set_col`, `hadamard`,
// `transpose`, `Matrix::diag`, `Matrix::toeplitz`, ...
//
// Sizes in this project are small-to-medium (the largest matrices are
// M x N with M <= 16 links and N <= a few thousand grid cells).  The
// allocating operators keep the MATLAB-flavoured call sites readable; the
// solver hot loops instead use the allocation-free `_into` kernels at the
// bottom of this header, which write into caller-owned buffers, tile the
// products for cache locality and run their inner loops through the SIMD
// micro-kernel layer (linalg/kernels/).  The allocating operators are
// thin wrappers over the same `_into` kernels (operator* IS
// multiply_into, gram() IS gram_into), so those pairs are bit-identical
// by construction at every dispatch level.  Exception: at SIMD levels
// multiply_transposed_into (dot-based reduction per element) is NOT
// bit-identical to a * b.transpose() (axpy-based ascending-k
// accumulation) — they agree to reduction-reorder tolerance only.
// Within one build every kernel is deterministic and independent of
// tiling, alignment and thread count — the batch fan-outs'
// thread-count-invariance prerequisite (see linalg/kernels/kernels.hpp
// for the cross-level contract).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace iup::linalg {

class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() = default;

  /// rows x cols matrix with every element set to `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Build from nested initializer lists: Matrix{{1,2},{3,4}}.
  /// All rows must have the same length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// n x n identity.
  static Matrix identity(std::size_t n);

  /// Square matrix with `d` on the main diagonal, zero elsewhere.
  static Matrix diag(std::span<const double> d);

  /// Diagonal matrix from an explicit list (convenience for tests).
  static Matrix diag(std::initializer_list<double> d);

  /// n x n Toeplitz matrix described by a band around the main diagonal:
  /// value `lower` on the first sub-diagonal, `center` on the diagonal and
  /// `upper` on the first super-diagonal.  The paper's similarity matrix is
  /// H = Toeplitz(-1, 1, 0)_{MxM}  (Eq. 17).
  static Matrix toeplitz(double lower, double center, double upper,
                         std::size_t n);

  /// Matrix whose columns are the given vectors (all of equal length).
  static Matrix from_columns(const std::vector<std::vector<double>>& cols);

  /// Matrix whose rows are the given vectors (all of equal length).
  static Matrix from_rows(const std::vector<std::vector<double>>& rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  // Element access and row views are defined inline: the solver sweep
  // reads/writes through them millions of times per reconstruct, and
  // without LTO an out-of-line one-line accessor costs a function call
  // per element — measurably more than the arithmetic around it.
  double& operator()(std::size_t i, std::size_t j) {
    return data_[index(i, j)];
  }
  double operator()(std::size_t i, std::size_t j) const {
    return data_[index(i, j)];
  }

  /// Bounds-checked element access (throws std::out_of_range).
  double& at(std::size_t i, std::size_t j);
  double at(std::size_t i, std::size_t j) const;

  std::span<double> data() { return data_; }
  std::span<const double> data() const { return data_; }

  /// Contiguous view of row i.
  std::span<double> row_span(std::size_t i) {
    return std::span<double>(data_).subspan(i * cols_, cols_);
  }
  std::span<const double> row_span(std::size_t i) const {
    return std::span<const double>(data_).subspan(i * cols_, cols_);
  }

  /// Copies of a row / column as std::vector.
  std::vector<double> row(std::size_t i) const;
  std::vector<double> col(std::size_t j) const;

  /// Copy column j into a caller-owned buffer of length rows() — the
  /// allocation-free counterpart of col().
  void copy_col_into(std::size_t j, std::span<double> out) const;

  /// Copy row i into a caller-owned buffer of length cols().
  void copy_row_into(std::size_t i, std::span<double> out) const;

  void set_row(std::size_t i, std::span<const double> values);
  void set_col(std::size_t j, std::span<const double> values);

  /// Copy of the rectangular block [r0, r0+nr) x [c0, c0+nc).
  Matrix block(std::size_t r0, std::size_t c0, std::size_t nr,
               std::size_t nc) const;

  /// Matrix consisting of the selected columns, in the given order.
  Matrix select_columns(std::span<const std::size_t> indices) const;

  /// Matrix consisting of the selected rows, in the given order.
  Matrix select_rows(std::span<const std::size_t> indices) const;

  Matrix transpose() const;

  // Element-wise arithmetic (dimensions must match; throws otherwise).
  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s);
  Matrix& operator/=(double s);

  friend Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
  friend Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
  friend Matrix operator*(Matrix lhs, double s) { return lhs *= s; }
  friend Matrix operator*(double s, Matrix rhs) { return rhs *= s; }
  friend Matrix operator/(Matrix lhs, double s) { return lhs /= s; }
  Matrix operator-() const;

  /// Matrix product (inner dimensions must agree).
  friend Matrix operator*(const Matrix& a, const Matrix& b);

  /// Matrix * vector.
  friend std::vector<double> operator*(const Matrix& a,
                                       std::span<const double> x);

  /// Hadamard (element-wise) product, the paper's `B o (L R^T)` operator.
  Matrix hadamard(const Matrix& rhs) const;

  /// Sum of all elements.
  double sum() const;
  /// Largest / smallest element value.
  double max() const;
  double min() const;
  /// Largest absolute element value.
  double max_abs() const;

  /// Exact element-wise equality (useful for move/copy tests).
  bool operator==(const Matrix& rhs) const = default;

  /// True when every |a_ij - b_ij| <= tol.
  bool approx_equal(const Matrix& rhs, double tol) const;

  /// this^T * this  (r x r Gram matrix), a hot path in Algorithm 1.
  Matrix gram() const;

  /// Fill every element with `value`.
  void fill(double value);

  /// Reshape to rows x cols with every element set to `fill`.  Reuses the
  /// existing allocation whenever capacity suffices, so workspace matrices
  /// resized to the same shape every sweep never touch the heap.
  void resize(std::size_t rows, std::size_t cols, double fill = 0.0);

 private:
  std::size_t index(std::size_t i, std::size_t j) const {
    return i * cols_ + j;
  }
  void check_same_shape(const Matrix& rhs, const char* op) const;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// ---------------------------------------------------------------------------
// Allocation-free kernels.  All of them resize `out` (capacity-reusing, see
// Matrix::resize) and overwrite it completely; `out` must not alias an
// input (throws std::invalid_argument).  multiply_into(a, b, out) is
// bit-identical to out = a * b (the operator calls it); see the header
// comment above for the one SIMD-level caveat (multiply_transposed_into
// vs an explicit transpose product).
// ---------------------------------------------------------------------------

/// out = a * b, tiled over all three loop dimensions for cache locality.
void multiply_into(const Matrix& a, const Matrix& b, Matrix& out);

/// out = a * x (matrix * vector; operator*(Matrix, span) calls it).  `out`
/// is a caller-owned span of length a.rows(), overwritten; it must not
/// overlap x (throws std::invalid_argument).
void multiply_into(const Matrix& a, std::span<const double> x,
                   std::span<double> out);

/// out = a * b^T without materialising the transpose: out(i,j) =
/// dot(a.row(i), b.row(j)), both contiguous.  This is the `X_hat = L R^T`
/// kernel of the solver's objective evaluation.
void multiply_transposed_into(const Matrix& a, const Matrix& b, Matrix& out);

/// out = a^T.
void transpose_into(const Matrix& a, Matrix& out);

/// out = a^T * a (the Gram matrix of a's columns).
void gram_into(const Matrix& a, Matrix& out);

}  // namespace iup::linalg
