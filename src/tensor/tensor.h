// Dense row-major float32 tensor.
//
// This is the numeric substrate under the real (non-simulated) training
// path: the MoE transformer modules, the parallel strategies, and the
// convergence experiments all move data through Tensor. Storage is always
// contiguous row-major float32; lower-precision formats (BF16/FP8) exist
// only as conversion steps (src/numerics), mirroring how mixed-precision
// training keeps FP32 master values.
//
// Storage is pool-backed (src/base/arena.h): construction acquires a
// size-classed block from the global arena and destruction returns it, so
// a steady-state training step whose tensor shapes repeat the previous
// step's is served entirely from recycled blocks — zero heap allocations.
// Value semantics are unchanged: copies deep-copy, moves steal the block.
//
// Two construction modes:
//   Tensor(shape) / Zeros(shape)  — zero-initialized (exactly one clear).
//   Tensor::Uninit(shape)         — UNINITIALIZED (possibly recycled
//     contents). Only for buffers every element of which is written before
//     being read (GEMM outputs with beta == 0, gather/slice destinations,
//     elementwise-map outputs). Misuse shows up as nondeterminism; keep
//     zero-init anywhere accumulation (+=) or partial writes happen.
#ifndef MSMOE_SRC_TENSOR_TENSOR_H_
#define MSMOE_SRC_TENSOR_TENSOR_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "src/base/arena.h"
#include "src/base/logging.h"
#include "src/base/rng.h"

namespace msmoe {

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::vector<int64_t> shape);
  ~Tensor();

  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(Tensor&& other) noexcept;

  // Factories.
  static Tensor Zeros(std::vector<int64_t> shape);
  // Pool-backed storage with UNSPECIFIED contents — see the header comment
  // for the safety rule.
  static Tensor Uninit(std::vector<int64_t> shape);
  static Tensor Full(std::vector<int64_t> shape, float value);
  // I.i.d. N(mean, stddev) entries, deterministic in rng.
  static Tensor Randn(std::vector<int64_t> shape, Rng& rng, float mean = 0.0f,
                      float stddev = 1.0f);
  // Uniform in [lo, hi).
  static Tensor Uniform(std::vector<int64_t> shape, Rng& rng, float lo, float hi);
  static Tensor FromVector(std::vector<int64_t> shape, std::vector<float> values);

  const std::vector<int64_t>& shape() const { return shape_; }
  int64_t dim(int i) const;
  int ndim() const { return static_cast<int>(shape_.size()); }
  int64_t numel() const { return numel_; }
  bool empty() const { return numel_ == 0; }

  float* data() { return data_; }
  const float* data() const { return data_; }

  // Element access. Bounds checks are MSMOE_DCHECK: on in Debug/sanitizer
  // builds, compiled out in optimized builds — these run on every element
  // of every hot loop. AtChecked (below) always checks.
  float& operator[](int64_t i) {
    MSMOE_DCHECK_GE(i, 0);
    MSMOE_DCHECK_LT(i, numel_);
    return data_[i];
  }
  float operator[](int64_t i) const {
    MSMOE_DCHECK_GE(i, 0);
    MSMOE_DCHECK_LT(i, numel_);
    return data_[i];
  }

  // 2-D / 3-D element access (bounds-checked under MSMOE_DCHECK).
  float& At(int64_t i, int64_t j) {
    MSMOE_DCHECK_EQ(ndim(), 2);
    MSMOE_DCHECK(i >= 0 && i < shape_[0] && j >= 0 && j < shape_[1])
        << "(" << i << ", " << j << ") out of " << ShapeString();
    return data_[i * shape_[1] + j];
  }
  float At(int64_t i, int64_t j) const { return const_cast<Tensor*>(this)->At(i, j); }
  float& At(int64_t i, int64_t j, int64_t k) {
    MSMOE_DCHECK_EQ(ndim(), 3);
    MSMOE_DCHECK(i >= 0 && i < shape_[0] && j >= 0 && j < shape_[1] && k >= 0 && k < shape_[2])
        << "(" << i << ", " << j << ", " << k << ") out of " << ShapeString();
    return data_[(i * shape_[1] + j) * shape_[2] + k];
  }
  float At(int64_t i, int64_t j, int64_t k) const {
    return const_cast<Tensor*>(this)->At(i, j, k);
  }

  // Always-bounds-checked access (MSMOE_CHECK in every build). For tests
  // and cold paths that want hard failure on a bad index.
  float& AtChecked(int64_t i);
  float AtChecked(int64_t i) const;
  float& AtChecked(int64_t i, int64_t j);
  float AtChecked(int64_t i, int64_t j) const;
  float& AtChecked(int64_t i, int64_t j, int64_t k);
  float AtChecked(int64_t i, int64_t j, int64_t k) const;

  // Reinterprets the shape; the element count must match.
  Tensor Reshaped(std::vector<int64_t> new_shape) const;

  void Fill(float value);
  void AddInPlace(const Tensor& other);       // this += other (same shape)
  void ScaleInPlace(float factor);            // this *= factor
  void AxpyInPlace(float alpha, const Tensor& other);  // this += alpha * other

  // Returns rows [row_begin, row_end) of a 2-D tensor as a new tensor.
  Tensor SliceRows(int64_t row_begin, int64_t row_end) const;

  double SumAbs() const;
  // Frobenius-norm relative difference vs other (same shape).
  double RelativeL2Diff(const Tensor& other) const;

  std::string ShapeString() const;

 private:
  std::vector<int64_t> shape_;
  float* data_ = nullptr;
  int64_t numel_ = 0;
};

// True when shapes match exactly.
bool SameShape(const Tensor& a, const Tensor& b);

}  // namespace msmoe

#endif  // MSMOE_SRC_TENSOR_TENSOR_H_
