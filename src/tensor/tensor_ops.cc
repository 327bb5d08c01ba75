#include "src/tensor/tensor_ops.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "src/base/arena.h"
#include "src/base/logging.h"
#include "src/base/parallel_for.h"
#include "src/tensor/gemm_kernel.h"

namespace msmoe {
namespace {

// Split sizes of the elementwise and row-local loops below (GrainForCost):
// a loop that calls std::exp per element costs ~7 ns an element, plain
// float arithmetic ~1 ns. Row loops shard whole rows.
constexpr int64_t kExpGrain = GrainForCost(7.0);
constexpr int64_t kArithGrain = GrainForCost(1.0);

int64_t RowGrain(int64_t element_grain, int64_t cols) {
  return std::max<int64_t>(1, element_grain / std::max<int64_t>(cols, 1));
}

}  // namespace

void Gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k, float alpha,
          const float* a, const float* b, float beta, float* c) {
  const auto start = std::chrono::steady_clock::now();
  GemmBlocked(trans_a, trans_b, m, n, k, alpha, a, b, beta, c);
  const double micros =
      std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - start)
          .count();
  internal::RecordGemmCall(
      2.0 * static_cast<double>(m) * static_cast<double>(n) * static_cast<double>(k),
      micros);
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  MSMOE_CHECK_EQ(a.ndim(), 2);
  MSMOE_CHECK_EQ(b.ndim(), 2);
  MSMOE_CHECK_EQ(a.dim(1), b.dim(0));
  Tensor c = Tensor::Uninit({a.dim(0), b.dim(1)});
  Gemm(false, false, a.dim(0), b.dim(1), a.dim(1), 1.0f, a.data(), b.data(), 0.0f, c.data());
  return c;
}

Tensor MatMulNT(const Tensor& a, const Tensor& b) {
  MSMOE_CHECK_EQ(a.ndim(), 2);
  MSMOE_CHECK_EQ(b.ndim(), 2);
  MSMOE_CHECK_EQ(a.dim(1), b.dim(1));
  Tensor c = Tensor::Uninit({a.dim(0), b.dim(0)});
  Gemm(false, true, a.dim(0), b.dim(0), a.dim(1), 1.0f, a.data(), b.data(), 0.0f, c.data());
  return c;
}

Tensor MatMulTN(const Tensor& a, const Tensor& b) {
  MSMOE_CHECK_EQ(a.ndim(), 2);
  MSMOE_CHECK_EQ(b.ndim(), 2);
  MSMOE_CHECK_EQ(a.dim(0), b.dim(0));
  Tensor c = Tensor::Uninit({a.dim(1), b.dim(1)});
  Gemm(true, false, a.dim(1), b.dim(1), a.dim(0), 1.0f, a.data(), b.data(), 0.0f, c.data());
  return c;
}

MatMulGrads MatMulBackward(const Tensor& dc, const Tensor& a, const Tensor& b) {
  MatMulGrads grads;
  grads.da = MatMulNT(dc, b);
  grads.db = MatMulTN(a, dc);
  return grads;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  MSMOE_CHECK(SameShape(a, b));
  Tensor out = Tensor::Uninit(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (int64_t i = 0; i < out.numel(); ++i) {
    po[i] = pa[i] + pb[i];
  }
  return out;
}

Tensor Softmax(const Tensor& x) {
  MSMOE_CHECK_EQ(x.ndim(), 2);
  const int64_t rows = x.dim(0);
  const int64_t cols = x.dim(1);
  Tensor y = Tensor::Uninit({rows, cols});
  ParallelFor(rows, RowGrain(kExpGrain, cols), [&](int64_t row_begin, int64_t row_end) {
    for (int64_t r = row_begin; r < row_end; ++r) {
      const float* in = x.data() + r * cols;
      float* out = y.data() + r * cols;
      float max_value = in[0];
      for (int64_t c = 1; c < cols; ++c) {
        max_value = std::max(max_value, in[c]);
      }
      double total = 0.0;
      for (int64_t c = 0; c < cols; ++c) {
        out[c] = std::exp(in[c] - max_value);
        total += out[c];
      }
      const float inv_total = static_cast<float>(1.0 / total);
      for (int64_t c = 0; c < cols; ++c) {
        out[c] *= inv_total;
      }
    }
  });
  return y;
}

Tensor SoftmaxBackward(const Tensor& dy, const Tensor& y) {
  MSMOE_CHECK(SameShape(dy, y));
  const int64_t rows = y.dim(0);
  const int64_t cols = y.dim(1);
  Tensor dx = Tensor::Uninit({rows, cols});
  for (int64_t r = 0; r < rows; ++r) {
    const float* dy_row = dy.data() + r * cols;
    const float* y_row = y.data() + r * cols;
    float* dx_row = dx.data() + r * cols;
    double dot = 0.0;
    for (int64_t c = 0; c < cols; ++c) {
      dot += static_cast<double>(dy_row[c]) * y_row[c];
    }
    for (int64_t c = 0; c < cols; ++c) {
      dx_row[c] = y_row[c] * (dy_row[c] - static_cast<float>(dot));
    }
  }
  return dx;
}

Tensor RmsNorm(const Tensor& x, const Tensor& gain, Tensor* inv_rms_out) {
  MSMOE_CHECK_EQ(x.ndim(), 2);
  const int64_t rows = x.dim(0);
  const int64_t cols = x.dim(1);
  MSMOE_CHECK_EQ(gain.numel(), cols);
  constexpr double kEps = 1e-6;
  Tensor y = Tensor::Uninit({rows, cols});
  Tensor inv_rms = Tensor::Uninit({rows});
  ParallelFor(rows, RowGrain(kArithGrain, cols), [&](int64_t row_begin, int64_t row_end) {
    for (int64_t r = row_begin; r < row_end; ++r) {
      const float* in = x.data() + r * cols;
      double sum_sq = 0.0;
      for (int64_t c = 0; c < cols; ++c) {
        sum_sq += static_cast<double>(in[c]) * in[c];
      }
      const float scale = static_cast<float>(1.0 / std::sqrt(sum_sq / cols + kEps));
      inv_rms[r] = scale;
      float* out = y.data() + r * cols;
      for (int64_t c = 0; c < cols; ++c) {
        out[c] = in[c] * scale * gain[c];
      }
    }
  });
  if (inv_rms_out != nullptr) {
    *inv_rms_out = std::move(inv_rms);
  }
  return y;
}

RmsNormGrads RmsNormBackward(const Tensor& dy, const Tensor& x, const Tensor& gain,
                             const Tensor& inv_rms) {
  const int64_t rows = x.dim(0);
  const int64_t cols = x.dim(1);
  RmsNormGrads grads;
  grads.dx = Tensor::Uninit({rows, cols});
  grads.dgain = Tensor({cols});
  for (int64_t r = 0; r < rows; ++r) {
    const float* dy_row = dy.data() + r * cols;
    const float* x_row = x.data() + r * cols;
    float* dx_row = grads.dx.data() + r * cols;
    const float s = inv_rms[r];  // 1 / rms
    // y_c = x_c * s * g_c with s = (mean(x^2) + eps)^(-1/2).
    // dx_c = s * g_c * dy_c - s^3 * x_c * mean_j(dy_j * g_j * x_j).
    double dot = 0.0;
    for (int64_t c = 0; c < cols; ++c) {
      dot += static_cast<double>(dy_row[c]) * gain[c] * x_row[c];
      grads.dgain[c] += dy_row[c] * x_row[c] * s;
    }
    const float correction = static_cast<float>(dot / cols) * s * s * s;
    for (int64_t c = 0; c < cols; ++c) {
      dx_row[c] = s * gain[c] * dy_row[c] - correction * x_row[c];
    }
  }
  return grads;
}

namespace {

inline float Sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

}  // namespace

Tensor SwiGlu(const Tensor& gate, const Tensor& linear) {
  MSMOE_CHECK(SameShape(gate, linear));
  Tensor y = Tensor::Uninit(gate.shape());
  const float* g = gate.data();
  const float* l = linear.data();
  float* out = y.data();
  ParallelFor(y.numel(), kExpGrain, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      out[i] = g[i] * Sigmoid(g[i]) * l[i];
    }
  });
  return y;
}

SwiGluGrads SwiGluBackward(const Tensor& dy, const Tensor& gate, const Tensor& linear) {
  MSMOE_CHECK(SameShape(dy, gate));
  MSMOE_CHECK(SameShape(dy, linear));
  SwiGluGrads grads;
  grads.dgate = Tensor::Uninit(gate.shape());
  grads.dlinear = Tensor::Uninit(linear.shape());
  const float* dy_data = dy.data();
  const float* g = gate.data();
  const float* l = linear.data();
  float* dgate = grads.dgate.data();
  float* dlinear = grads.dlinear.data();
  ParallelFor(dy.numel(), kExpGrain, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      const float sig = Sigmoid(g[i]);
      const float silu = g[i] * sig;
      // d(silu)/dgate = sig * (1 + gate * (1 - sig))
      const float dsilu = sig * (1.0f + g[i] * (1.0f - sig));
      dgate[i] = dy_data[i] * l[i] * dsilu;
      dlinear[i] = dy_data[i] * silu;
    }
  });
  return grads;
}

namespace {

// Rotates each (token, head) vector's pairs (d, d + half) by the angle
// position * theta_base^(-2d / head_dim). The cos/sin of every angle are
// computed once per call into the calling thread's Workspace: one table row
// per distinct position when the positions span at most `tokens` values
// (every caller: [0, seq_len), repeated across a batch), else one row per
// token, so the table never outgrows the token count. Each entry is the
// double expression a per-element loop would evaluate, so no bit changes.
void RopeApply(Tensor& x, const std::vector<int64_t>& positions, int64_t heads,
               int64_t head_dim, double theta_base, bool inverse) {
  MSMOE_CHECK_EQ(head_dim % 2, 0);
  const int64_t tokens = static_cast<int64_t>(positions.size());
  MSMOE_CHECK_EQ(x.numel(), tokens * heads * head_dim);
  if (tokens == 0) {
    return;
  }
  const int64_t half = head_dim / 2;
  const auto [min_it, max_it] = std::minmax_element(positions.begin(), positions.end());
  const int64_t first = *min_it;
  // Unsigned: the span of two int64 positions always fits.
  const bool dense = static_cast<uint64_t>(*max_it) - static_cast<uint64_t>(first) <
                     static_cast<uint64_t>(tokens);
  const int64_t rows = dense ? *max_it - first + 1 : tokens;

  Workspace& ws = ThreadWorkspace();
  double* freq = ws.Doubles("rope.freq", half);
  float* cos_table = ws.Floats("rope.cos", rows * half);
  float* sin_table = ws.Floats("rope.sin", rows * half);
  for (int64_t d = 0; d < half; ++d) {
    freq[d] = std::pow(theta_base, -2.0 * static_cast<double>(d) / head_dim);
  }
  for (int64_t row = 0; row < rows; ++row) {
    const double pos =
        static_cast<double>(dense ? first + row : positions[static_cast<size_t>(row)]);
    for (int64_t d = 0; d < half; ++d) {
      double angle = pos * freq[d];
      if (inverse) {
        angle = -angle;
      }
      cos_table[row * half + d] = static_cast<float>(std::cos(angle));
      sin_table[row * half + d] = static_cast<float>(std::sin(angle));
    }
  }

  for (int64_t t = 0; t < tokens; ++t) {
    const int64_t row = dense ? positions[static_cast<size_t>(t)] - first : t;
    const float* cos_row = cos_table + row * half;
    const float* sin_row = sin_table + row * half;
    for (int64_t h = 0; h < heads; ++h) {
      float* vec = x.data() + (t * heads + h) * head_dim;
      for (int64_t d = 0; d < half; ++d) {
        const float a = vec[d];
        const float b = vec[d + half];
        vec[d] = a * cos_row[d] - b * sin_row[d];
        vec[d + half] = a * sin_row[d] + b * cos_row[d];
      }
    }
  }
}

}  // namespace

void RopeInPlace(Tensor& x, const std::vector<int64_t>& positions, int64_t heads,
                 int64_t head_dim, double theta_base) {
  RopeApply(x, positions, heads, head_dim, theta_base, /*inverse=*/false);
}

void RopeBackwardInPlace(Tensor& dx, const std::vector<int64_t>& positions, int64_t heads,
                         int64_t head_dim, double theta_base) {
  RopeApply(dx, positions, heads, head_dim, theta_base, /*inverse=*/true);
}

Tensor GatherRows(const Tensor& x, const std::vector<int64_t>& row_map) {
  MSMOE_CHECK_EQ(x.ndim(), 2);
  const int64_t cols = x.dim(1);
  Tensor out = Tensor::Uninit({static_cast<int64_t>(row_map.size()), cols});
  for (size_t i = 0; i < row_map.size(); ++i) {
    const int64_t src = row_map[i];
    MSMOE_CHECK_GE(src, 0);
    MSMOE_CHECK_LT(src, x.dim(0));
    std::copy(x.data() + src * cols, x.data() + (src + 1) * cols,
              out.data() + static_cast<int64_t>(i) * cols);
  }
  return out;
}

Tensor ScatterAddRows(const Tensor& dy, const std::vector<int64_t>& row_map,
                      int64_t num_source_rows) {
  MSMOE_CHECK_EQ(dy.ndim(), 2);
  MSMOE_CHECK_EQ(dy.dim(0), static_cast<int64_t>(row_map.size()));
  const int64_t cols = dy.dim(1);
  Tensor out({num_source_rows, cols});
  for (size_t i = 0; i < row_map.size(); ++i) {
    const int64_t dst = row_map[i];
    MSMOE_CHECK_GE(dst, 0);
    MSMOE_CHECK_LT(dst, num_source_rows);
    const float* src_row = dy.data() + static_cast<int64_t>(i) * cols;
    float* dst_row = out.data() + dst * cols;
    for (int64_t c = 0; c < cols; ++c) {
      dst_row[c] += src_row[c];
    }
  }
  return out;
}

CrossEntropyResult CrossEntropy(const Tensor& logits, const std::vector<int64_t>& targets) {
  MSMOE_CHECK_EQ(logits.ndim(), 2);
  const int64_t rows = logits.dim(0);
  const int64_t vocab = logits.dim(1);
  MSMOE_CHECK_EQ(rows, static_cast<int64_t>(targets.size()));
  CrossEntropyResult result;
  result.dlogits = Softmax(logits);
  double total_loss = 0.0;
  const float inv_rows = 1.0f / static_cast<float>(rows);
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t target = targets[static_cast<size_t>(r)];
    MSMOE_CHECK_GE(target, 0);
    MSMOE_CHECK_LT(target, vocab);
    const float p = result.dlogits.At(r, target);
    total_loss += -std::log(std::max(p, 1e-30f));
    result.dlogits.At(r, target) -= 1.0f;
  }
  result.dlogits.ScaleInPlace(inv_rows);
  result.mean_loss = total_loss / static_cast<double>(rows);
  return result;
}

}  // namespace msmoe
