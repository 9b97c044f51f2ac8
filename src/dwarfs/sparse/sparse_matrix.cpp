#include "dwarfs/sparse/sparse_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "simcore/error.hpp"
#include "simcore/rng.hpp"

namespace nvms {

double CsrMatrix::at(std::size_t i, std::size_t j) const {
  for (std::size_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
    if (col_idx[p] == j) return values[p];
    if (col_idx[p] > j) break;  // sorted
  }
  return 0.0;
}

void CsrMatrix::validate() const {
  require(row_ptr.size() == n + 1, "csr: row_ptr size mismatch");
  require(col_idx.size() == values.size(), "csr: index/value size mismatch");
  require(row_ptr.front() == 0 && row_ptr.back() == values.size(),
          "csr: row_ptr bounds");
  for (std::size_t i = 0; i < n; ++i) {
    require(row_ptr[i] <= row_ptr[i + 1], "csr: row_ptr not monotone");
    for (std::size_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
      require(col_idx[p] < n, "csr: column out of range");
      if (p + 1 < row_ptr[i + 1])
        require(col_idx[p] < col_idx[p + 1], "csr: columns not sorted");
    }
  }
}

CsrMatrix make_synthetic_matrix(std::size_t n, std::size_t band,
                                std::size_t extra_per_row,
                                std::uint64_t seed) {
  require(n >= 2 && band >= 1, "synthetic matrix: n >= 2, band >= 1");
  Rng rng(seed);
  CsrMatrix a;
  a.n = n;
  a.row_ptr.push_back(0);
  for (std::size_t i = 0; i < n; ++i) {
    std::set<std::size_t> cols;
    const std::size_t lo = i > band ? i - band : 0;
    const std::size_t hi = std::min(n - 1, i + band);
    for (std::size_t j = lo; j <= hi; ++j) cols.insert(j);
    for (std::size_t e = 0; e < extra_per_row; ++e) {
      cols.insert(rng.below(n));
    }
    double offdiag_sum = 0.0;
    std::vector<std::pair<std::size_t, double>> row;
    for (const std::size_t j : cols) {
      if (j == i) continue;
      const double v = rng.uniform(-1.0, 1.0);
      offdiag_sum += std::abs(v);
      row.emplace_back(j, v);
    }
    row.emplace_back(i, offdiag_sum + rng.uniform(1.0, 2.0));  // dominance
    std::sort(row.begin(), row.end());
    for (const auto& [j, v] : row) {
      a.col_idx.push_back(j);
      a.values.push_back(v);
    }
    a.row_ptr.push_back(a.col_idx.size());
  }
  a.validate();
  return a;
}

std::vector<double> csr_matvec(const CsrMatrix& a,
                               const std::vector<double>& x) {
  require(x.size() == a.n, "csr matvec: size mismatch");
  std::vector<double> y(a.n, 0.0);
  for (std::size_t i = 0; i < a.n; ++i) {
    double sum = 0.0;
    for (std::size_t p = a.row_ptr[i]; p < a.row_ptr[i + 1]; ++p) {
      sum += a.values[p] * x[a.col_idx[p]];
    }
    y[i] = sum;
  }
  return y;
}

SparseLu sparse_lu_factor(const CsrMatrix& a) {
  a.validate();
  const std::size_t n = a.n;
  SparseLu lu;
  lu.l.n = n;
  lu.u.n = n;
  lu.l.row_ptr.push_back(0);
  lu.u.row_ptr.push_back(0);

  // Dense working row plus a dense mark per column for the symbolic part:
  // the row's active columns are the marked ones, visited by scanning the
  // marks in column order.
  std::vector<double> work(n, 0.0);
  std::vector<double> u_diag(n, 0.0);
  std::vector<unsigned char> active(n, 0);

  for (std::size_t i = 0; i < n; ++i) {
    // scatter A(i, :); [lo, hi] bounds the marked columns
    std::size_t lo = n;
    std::size_t hi = 0;
    const auto mark = [&](std::size_t j) {
      active[j] = 1;
      lo = std::min(lo, j);
      hi = std::max(hi, j);
    };
    for (std::size_t p = a.row_ptr[i]; p < a.row_ptr[i + 1]; ++p) {
      work[a.col_idx[p]] = a.values[p];
      mark(a.col_idx[p]);
    }
    // eliminate columns k < i in increasing order; fill-in only marks
    // columns j > k, so the scan still reaches them
    for (std::size_t k = lo; k < i; ++k) {
      if (active[k] == 0) continue;
      const double pivot = u_diag[k];
      require(std::abs(pivot) > 1e-300, "sparse lu: zero pivot");
      const double lik = work[k] / pivot;
      work[k] = lik;
      // w -= lik * U(k, j>k); U(k, :) starts with its nonzero diagonal,
      // and marking the columns is the symbolic fill-in
      const std::size_t end = lu.u.row_ptr[k + 1];
      for (std::size_t p = lu.u.row_ptr[k] + 1; p < end; ++p) {
        const std::size_t j = lu.u.col_idx[p];
        active[j] = 1;
        work[j] -= lik * lu.u.values[p];
      }
      hi = std::max(hi, lu.u.col_idx[end - 1]);
    }
    // gather L(i, <i) and U(i, >=i)
    for (std::size_t j = lo; j <= hi; ++j) {
      if (active[j] == 0) continue;
      active[j] = 0;
      const double v = work[j];
      work[j] = 0.0;
      if (v == 0.0) continue;
      if (j < i) {
        lu.l.col_idx.push_back(j);
        lu.l.values.push_back(v);
      } else {
        if (j == i) u_diag[i] = v;
        lu.u.col_idx.push_back(j);
        lu.u.values.push_back(v);
      }
    }
    require(std::abs(u_diag[i]) > 1e-300, "sparse lu: singular row");
    lu.l.row_ptr.push_back(lu.l.col_idx.size());
    lu.u.row_ptr.push_back(lu.u.col_idx.size());
  }
  lu.l.validate();
  lu.u.validate();
  lu.fill_ratio =
      static_cast<double>(lu.l.nnz() + lu.u.nnz()) /
      static_cast<double>(std::max<std::size_t>(a.nnz(), 1));
  return lu;
}

std::vector<double> sparse_lu_solve(const SparseLu& lu,
                                    std::vector<double> b) {
  const std::size_t n = lu.u.n;
  require(b.size() == n, "sparse lu solve: rhs size mismatch");
  // forward: L y = b (unit diagonal, L strictly lower)
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t p = lu.l.row_ptr[i]; p < lu.l.row_ptr[i + 1]; ++p) {
      sum -= lu.l.values[p] * b[lu.l.col_idx[p]];
    }
    b[i] = sum;
  }
  // backward: U x = y
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = b[ii];
    double diag = 0.0;
    for (std::size_t p = lu.u.row_ptr[ii]; p < lu.u.row_ptr[ii + 1]; ++p) {
      const std::size_t j = lu.u.col_idx[p];
      if (j == ii) {
        diag = lu.u.values[p];
      } else {
        sum -= lu.u.values[p] * b[j];
      }
    }
    b[ii] = sum / diag;
  }
  return b;
}

}  // namespace nvms
