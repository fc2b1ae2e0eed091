#include "graph/dense_matrix.h"

namespace rock {

Result<DenseMatrix> DenseMatrix::Multiply(const DenseMatrix& other) const {
  if (cols_ != other.rows_) {
    return Status::InvalidArgument("matrix dimensions do not match");
  }
  DenseMatrix out(rows_, other.cols_);
  // i-k-j loop order for cache-friendly row accumulation.
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t k = 0; k < cols_; ++k) {
      const int64_t a = At(i, k);
      if (a == 0) continue;
      for (size_t j = 0; j < other.cols_; ++j) {
        out.At(i, j) += a * other.At(k, j);
      }
    }
  }
  return out;
}

DenseMatrix AdjacencyMatrix(const NeighborGraph& graph) {
  const size_t n = graph.size();
  DenseMatrix a(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (PointIndex j : graph.nbrlist[i]) a.At(i, j) = 1;
  }
  return a;
}

LinkMatrix ComputeLinksDense(const NeighborGraph& graph) {
  const size_t n = graph.size();
  DenseMatrix a = AdjacencyMatrix(graph);
  DenseMatrix squared = std::move(a.Multiply(a)).value();
  LinkMatrixBuilder links(n);
  for (PointIndex i = 0; i < n; ++i) {
    for (PointIndex j = static_cast<PointIndex>(i + 1); j < n; ++j) {
      const int64_t c = squared.At(i, j);
      if (c > 0) links.Add(i, j, static_cast<LinkCount>(c));
    }
  }
  return links.Build();
}

}  // namespace rock
