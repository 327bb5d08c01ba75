// Forward and backward math kernels over Tensor.
//
// Every operator the MoE layer decomposes into (Fig 20 of the paper) has a
// forward kernel and an explicit backward kernel here, because the training
// substrate performs manual backpropagation: modules store exactly the
// activations the scheduler tells them to and recompute the rest
// (selective activation rematerialization, §4.1).
#ifndef MSMOE_SRC_TENSOR_TENSOR_OPS_H_
#define MSMOE_SRC_TENSOR_TENSOR_OPS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/tensor/tensor.h"

namespace msmoe {

// --- GEMM -----------------------------------------------------------------

// C = alpha * op(A) * op(B) + beta * C, row-major.
// op(A) is [m x k], op(B) is [k x n], C is [m x n].
// Backed by the blocked/SIMD kernel in src/tensor/gemm_kernel.h (parallel
// over row panels via ParallelFor, KernelStats-instrumented). Results are
// bit-identical across worker counts and row-tile splits; see gemm_kernel.h
// for the determinism contract.
void Gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k, float alpha,
          const float* a, const float* b, float beta, float* c);

// out = a @ b with a: [m, k], b: [k, n].
Tensor MatMul(const Tensor& a, const Tensor& b);
// out = a @ b^T with a: [m, k], b: [n, k].
Tensor MatMulNT(const Tensor& a, const Tensor& b);
// out = a^T @ b with a: [k, m], b: [k, n].
Tensor MatMulTN(const Tensor& a, const Tensor& b);

struct MatMulGrads {
  Tensor da;
  Tensor db;
};
// Gradients of C = A @ B: dA = dC @ B^T, dB = A^T @ dC.
MatMulGrads MatMulBackward(const Tensor& dc, const Tensor& a, const Tensor& b);

// --- Elementwise / rows ----------------------------------------------------
//
// Softmax, RmsNorm, SwiGlu and SwiGluBackward split their rows or elements
// across the calling thread's ParallelFor team (src/base/parallel_for.h).
// Each element's arithmetic and each row's sums keep their serial order, so
// the outputs are bitwise identical at any worker count. Sums across rows
// (RmsNormBackward's dgain, CrossEntropy's loss) stay serial.

Tensor Add(const Tensor& a, const Tensor& b);

// Row-wise softmax over the last dimension of a 2-D tensor.
Tensor Softmax(const Tensor& x);
// dy -> dx given y = Softmax(x).
Tensor SoftmaxBackward(const Tensor& dy, const Tensor& y);

// RMSNorm over the last dim: y = x / rms(x) * gain. inv_rms ([rows]) is the
// saved statistic needed by the backward pass (cheap to store or recompute).
Tensor RmsNorm(const Tensor& x, const Tensor& gain, Tensor* inv_rms_out);
struct RmsNormGrads {
  Tensor dx;
  Tensor dgain;
};
RmsNormGrads RmsNormBackward(const Tensor& dy, const Tensor& x, const Tensor& gain,
                             const Tensor& inv_rms);

// The SwiGLU combination silu(gate) * linear, silu(x) = x * sigmoid(x),
// used by the expert FFN (FC1 -> gate, FC3 -> linear).
Tensor SwiGlu(const Tensor& gate, const Tensor& linear);
struct SwiGluGrads {
  Tensor dgate;
  Tensor dlinear;
};
SwiGluGrads SwiGluBackward(const Tensor& dy, const Tensor& gate, const Tensor& linear);

// --- RoPE -------------------------------------------------------------------

// Rotary position embedding applied in place to x viewed as
// [tokens, heads, head_dim] where positions[t] is the absolute position of
// token t. head_dim must be even. theta_base is the standard 10000.
void RopeInPlace(Tensor& x, const std::vector<int64_t>& positions, int64_t heads,
                 int64_t head_dim, double theta_base = 10000.0);
// The backward of a rotation is the inverse rotation.
void RopeBackwardInPlace(Tensor& dx, const std::vector<int64_t>& positions, int64_t heads,
                         int64_t head_dim, double theta_base = 10000.0);

// --- Row shuffling (token dispatch) -----------------------------------------

// out[i, :] = x[row_map[i], :]. The mapping is precomputed from routing
// results, matching the paper's CUDA scatter/gather operators (§3.2).
Tensor GatherRows(const Tensor& x, const std::vector<int64_t>& row_map);
// Accumulates dy rows back: out[row_map[i], :] += dy[i, :]; out has
// num_source_rows rows.
Tensor ScatterAddRows(const Tensor& dy, const std::vector<int64_t>& row_map,
                      int64_t num_source_rows);

// --- Loss -------------------------------------------------------------------

struct CrossEntropyResult {
  double mean_loss = 0.0;
  Tensor dlogits;  // gradient of mean loss w.r.t. logits
};
// Softmax cross entropy, mean over rows; targets[i] in [0, vocab).
CrossEntropyResult CrossEntropy(const Tensor& logits, const std::vector<int64_t>& targets);

}  // namespace msmoe

#endif  // MSMOE_SRC_TENSOR_TENSOR_OPS_H_
