#include "core/mic.hpp"

#include <algorithm>
#include <stdexcept>

#include "linalg/qr.hpp"

namespace iup::core {

MicResult extract_mic(const linalg::Matrix& x, double rel_tol) {
  if (x.empty()) throw std::invalid_argument("extract_mic: empty matrix");
  const linalg::QrcpResult f = linalg::qr_column_pivoted(x, rel_tol);
  MicResult out;
  out.reference_cells.assign(f.perm.begin(),
                             f.perm.begin() + static_cast<long>(f.rank));
  // Sorted order makes the walk between reference locations shortest and
  // keeps reports deterministic.
  std::sort(out.reference_cells.begin(), out.reference_cells.end());
  out.rank = out.reference_cells.size();
  out.x_mic = x.select_columns(out.reference_cells);
  return out;
}

MicResult mic_from_cells(const linalg::Matrix& x,
                         const std::vector<std::size_t>& cells) {
  if (cells.empty()) {
    throw std::invalid_argument("mic_from_cells: no cells given");
  }
  MicResult out;
  out.reference_cells = cells;
  out.x_mic = x.select_columns(cells);
  out.rank = cells.size();
  return out;
}

}  // namespace iup::core
