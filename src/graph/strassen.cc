#include "graph/strassen.h"

#include <algorithm>

namespace rock {

namespace {

size_t NextPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// Square block with shared backing storage; all recursion works on views to
// avoid repeated materialization.
struct Block {
  const int64_t* data;
  size_t stride;
  size_t dim;

  int64_t At(size_t r, size_t c) const { return data[r * stride + c]; }
  Block Quadrant(size_t qr, size_t qc) const {
    const size_t half = dim / 2;
    return Block{data + qr * half * stride + qc * half, stride, half};
  }
};

struct MutBlock {
  int64_t* data;
  size_t stride;
  size_t dim;

  int64_t& At(size_t r, size_t c) { return data[r * stride + c]; }
  MutBlock Quadrant(size_t qr, size_t qc) {
    const size_t half = dim / 2;
    return MutBlock{data + qr * half * stride + qc * half, stride, half};
  }
  Block AsConst() const { return Block{data, stride, dim}; }
};

void AddInto(const Block& a, const Block& b, MutBlock out) {
  for (size_t r = 0; r < a.dim; ++r) {
    for (size_t c = 0; c < a.dim; ++c) {
      out.At(r, c) = a.At(r, c) + b.At(r, c);
    }
  }
}

void SubInto(const Block& a, const Block& b, MutBlock out) {
  for (size_t r = 0; r < a.dim; ++r) {
    for (size_t c = 0; c < a.dim; ++c) {
      out.At(r, c) = a.At(r, c) - b.At(r, c);
    }
  }
}

void NaiveMultiply(const Block& a, const Block& b, MutBlock out) {
  const size_t n = a.dim;
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) out.At(r, c) = 0;
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < n; ++k) {
      const int64_t v = a.At(i, k);
      if (v == 0) continue;
      for (size_t j = 0; j < n; ++j) {
        out.At(i, j) += v * b.At(k, j);
      }
    }
  }
}

void StrassenRecurse(const Block& a, const Block& b, MutBlock out,
                     size_t cutoff) {
  const size_t n = a.dim;
  if (n <= cutoff) {
    NaiveMultiply(a, b, out);
    return;
  }
  const size_t half = n / 2;

  const Block a11 = a.Quadrant(0, 0), a12 = a.Quadrant(0, 1);
  const Block a21 = a.Quadrant(1, 0), a22 = a.Quadrant(1, 1);
  const Block b11 = b.Quadrant(0, 0), b12 = b.Quadrant(0, 1);
  const Block b21 = b.Quadrant(1, 0), b22 = b.Quadrant(1, 1);

  // Scratch: two operand buffers + seven products, each half×half.
  const size_t cells = half * half;
  std::vector<int64_t> scratch(2 * cells);
  MutBlock t1{scratch.data(), half, half};
  MutBlock t2{scratch.data() + cells, half, half};

  std::vector<int64_t> products(7 * cells);
  auto product = [&](size_t idx) {
    return MutBlock{products.data() + idx * cells, half, half};
  };

  // M1 = (A11 + A22)(B11 + B22)
  AddInto(a11, a22, t1);
  AddInto(b11, b22, t2);
  StrassenRecurse(t1.AsConst(), t2.AsConst(), product(0), cutoff);
  // M2 = (A21 + A22) B11
  AddInto(a21, a22, t1);
  StrassenRecurse(t1.AsConst(), b11, product(1), cutoff);
  // M3 = A11 (B12 − B22)
  SubInto(b12, b22, t2);
  StrassenRecurse(a11, t2.AsConst(), product(2), cutoff);
  // M4 = A22 (B21 − B11)
  SubInto(b21, b11, t2);
  StrassenRecurse(a22, t2.AsConst(), product(3), cutoff);
  // M5 = (A11 + A12) B22
  AddInto(a11, a12, t1);
  StrassenRecurse(t1.AsConst(), b22, product(4), cutoff);
  // M6 = (A21 − A11)(B11 + B12)
  SubInto(a21, a11, t1);
  AddInto(b11, b12, t2);
  StrassenRecurse(t1.AsConst(), t2.AsConst(), product(5), cutoff);
  // M7 = (A12 − A22)(B21 + B22)
  SubInto(a12, a22, t1);
  AddInto(b21, b22, t2);
  StrassenRecurse(t1.AsConst(), t2.AsConst(), product(6), cutoff);

  MutBlock c11 = out.Quadrant(0, 0), c12 = out.Quadrant(0, 1);
  MutBlock c21 = out.Quadrant(1, 0), c22 = out.Quadrant(1, 1);
  const auto m = [&](size_t idx) {
    return Block{products.data() + idx * cells, half, half};
  };
  for (size_t r = 0; r < half; ++r) {
    for (size_t c = 0; c < half; ++c) {
      const int64_t m1 = m(0).At(r, c), m2 = m(1).At(r, c);
      const int64_t m3 = m(2).At(r, c), m4 = m(3).At(r, c);
      const int64_t m5 = m(4).At(r, c), m6 = m(5).At(r, c);
      const int64_t m7 = m(6).At(r, c);
      c11.At(r, c) = m1 + m4 - m5 + m7;
      c12.At(r, c) = m3 + m5;
      c21.At(r, c) = m2 + m4;
      c22.At(r, c) = m1 - m2 + m3 + m6;
    }
  }
}

}  // namespace

Result<DenseMatrix> StrassenMultiply(const DenseMatrix& a,
                                     const DenseMatrix& b,
                                     const StrassenOptions& options) {
  if (a.rows() != a.cols() || b.rows() != b.cols() || a.rows() != b.rows()) {
    return Status::InvalidArgument(
        "StrassenMultiply requires equal-size square matrices");
  }
  const size_t n = a.rows();
  if (n == 0) return DenseMatrix(0, 0);
  const size_t cutoff = std::max<size_t>(1, options.cutoff);
  const size_t padded = NextPowerOfTwo(n);

  std::vector<int64_t> pa(padded * padded, 0), pb(padded * padded, 0),
      pc(padded * padded, 0);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) {
      pa[r * padded + c] = a.At(r, c);
      pb[r * padded + c] = b.At(r, c);
    }
  }
  StrassenRecurse(Block{pa.data(), padded, padded},
                  Block{pb.data(), padded, padded},
                  MutBlock{pc.data(), padded, padded}, cutoff);

  DenseMatrix out(n, n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) out.At(r, c) = pc[r * padded + c];
  }
  return out;
}

LinkMatrix ComputeLinksStrassen(const NeighborGraph& graph,
                                const StrassenOptions& options) {
  const size_t n = graph.size();
  DenseMatrix a = AdjacencyMatrix(graph);
  DenseMatrix squared = std::move(StrassenMultiply(a, a, options)).value();
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
