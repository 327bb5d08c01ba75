#include "src/tensor/tensor.h"

#include <cmath>
#include <cstring>
#include <sstream>
#include <utility>

namespace msmoe {
namespace {

int64_t NumelOf(const std::vector<int64_t>& shape) {
  int64_t numel = 1;
  for (int64_t d : shape) {
    MSMOE_CHECK_GE(d, 0);
    numel *= d;
  }
  return numel;
}

}  // namespace

Tensor::Tensor(std::vector<int64_t> shape) : shape_(std::move(shape)), numel_(NumelOf(shape_)) {
  data_ = ArenaAcquireFloats(numel_);
  if (numel_ > 0) std::memset(data_, 0, static_cast<size_t>(numel_) * sizeof(float));
}

Tensor::~Tensor() { ArenaReleaseFloats(data_, numel_); }

Tensor::Tensor(const Tensor& other) : shape_(other.shape_), numel_(other.numel_) {
  data_ = ArenaAcquireFloats(numel_);
  if (numel_ > 0) {
    std::memcpy(data_, other.data_, static_cast<size_t>(numel_) * sizeof(float));
  }
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  if (numel_ != other.numel_) {
    ArenaReleaseFloats(data_, numel_);
    data_ = ArenaAcquireFloats(other.numel_);
    numel_ = other.numel_;
  }
  shape_ = other.shape_;
  if (numel_ > 0) {
    std::memcpy(data_, other.data_, static_cast<size_t>(numel_) * sizeof(float));
  }
  return *this;
}

Tensor::Tensor(Tensor&& other) noexcept
    : shape_(std::move(other.shape_)), data_(other.data_), numel_(other.numel_) {
  other.shape_.clear();
  other.data_ = nullptr;
  other.numel_ = 0;
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this == &other) return *this;
  ArenaReleaseFloats(data_, numel_);
  shape_ = std::move(other.shape_);
  data_ = other.data_;
  numel_ = other.numel_;
  other.shape_.clear();
  other.data_ = nullptr;
  other.numel_ = 0;
  return *this;
}

Tensor Tensor::Zeros(std::vector<int64_t> shape) { return Tensor(std::move(shape)); }

Tensor Tensor::Uninit(std::vector<int64_t> shape) {
  Tensor out;
  out.shape_ = std::move(shape);
  out.numel_ = NumelOf(out.shape_);
  out.data_ = ArenaAcquireFloats(out.numel_);
  return out;
}

Tensor Tensor::Full(std::vector<int64_t> shape, float value) {
  Tensor out = Uninit(std::move(shape));
  out.Fill(value);
  return out;
}

Tensor Tensor::Randn(std::vector<int64_t> shape, Rng& rng, float mean, float stddev) {
  Tensor out = Uninit(std::move(shape));
  for (int64_t i = 0; i < out.numel_; ++i) {
    out.data_[i] = static_cast<float>(rng.NextGaussian(mean, stddev));
  }
  return out;
}

Tensor Tensor::Uniform(std::vector<int64_t> shape, Rng& rng, float lo, float hi) {
  Tensor out = Uninit(std::move(shape));
  for (int64_t i = 0; i < out.numel_; ++i) {
    out.data_[i] = static_cast<float>(rng.NextUniform(lo, hi));
  }
  return out;
}

Tensor Tensor::FromVector(std::vector<int64_t> shape, std::vector<float> values) {
  Tensor out = Uninit(std::move(shape));
  MSMOE_CHECK_EQ(out.numel_, static_cast<int64_t>(values.size()));
  if (out.numel_ > 0) {
    std::memcpy(out.data_, values.data(), static_cast<size_t>(out.numel_) * sizeof(float));
  }
  return out;
}

int64_t Tensor::dim(int i) const {
  MSMOE_CHECK_GE(i, 0);
  MSMOE_CHECK_LT(i, ndim());
  return shape_[static_cast<size_t>(i)];
}

float& Tensor::AtChecked(int64_t i) {
  MSMOE_CHECK_GE(i, 0);
  MSMOE_CHECK_LT(i, numel_);
  return data_[i];
}

float Tensor::AtChecked(int64_t i) const { return const_cast<Tensor*>(this)->AtChecked(i); }

float& Tensor::AtChecked(int64_t i, int64_t j) {
  MSMOE_CHECK_EQ(ndim(), 2);
  MSMOE_CHECK_GE(i, 0);
  MSMOE_CHECK_LT(i, shape_[0]);
  MSMOE_CHECK_GE(j, 0);
  MSMOE_CHECK_LT(j, shape_[1]);
  return data_[i * shape_[1] + j];
}

float Tensor::AtChecked(int64_t i, int64_t j) const {
  return const_cast<Tensor*>(this)->AtChecked(i, j);
}

float& Tensor::AtChecked(int64_t i, int64_t j, int64_t k) {
  MSMOE_CHECK_EQ(ndim(), 3);
  MSMOE_CHECK_GE(i, 0);
  MSMOE_CHECK_LT(i, shape_[0]);
  MSMOE_CHECK_GE(j, 0);
  MSMOE_CHECK_LT(j, shape_[1]);
  MSMOE_CHECK_GE(k, 0);
  MSMOE_CHECK_LT(k, shape_[2]);
  return data_[(i * shape_[1] + j) * shape_[2] + k];
}

float Tensor::AtChecked(int64_t i, int64_t j, int64_t k) const {
  return const_cast<Tensor*>(this)->AtChecked(i, j, k);
}

Tensor Tensor::Reshaped(std::vector<int64_t> new_shape) const {
  MSMOE_CHECK_EQ(NumelOf(new_shape), numel_);
  Tensor out = Uninit(std::move(new_shape));
  if (numel_ > 0) {
    std::memcpy(out.data_, data_, static_cast<size_t>(numel_) * sizeof(float));
  }
  return out;
}

void Tensor::Fill(float value) {
  for (int64_t i = 0; i < numel_; ++i) data_[i] = value;
}

void Tensor::AddInPlace(const Tensor& other) {
  MSMOE_CHECK(SameShape(*this, other)) << ShapeString() << " vs " << other.ShapeString();
  for (int64_t i = 0; i < numel_; ++i) {
    data_[i] += other.data_[i];
  }
}

void Tensor::ScaleInPlace(float factor) {
  for (int64_t i = 0; i < numel_; ++i) {
    data_[i] *= factor;
  }
}

void Tensor::AxpyInPlace(float alpha, const Tensor& other) {
  MSMOE_CHECK(SameShape(*this, other));
  for (int64_t i = 0; i < numel_; ++i) {
    data_[i] += alpha * other.data_[i];
  }
}

Tensor Tensor::SliceRows(int64_t row_begin, int64_t row_end) const {
  MSMOE_CHECK_EQ(ndim(), 2);
  MSMOE_CHECK_LE(0, row_begin);
  MSMOE_CHECK_LE(row_begin, row_end);
  MSMOE_CHECK_LE(row_end, shape_[0]);
  const int64_t cols = shape_[1];
  Tensor out = Uninit({row_end - row_begin, cols});
  if (out.numel_ > 0) {
    std::memcpy(out.data_, data_ + row_begin * cols,
                static_cast<size_t>(out.numel_) * sizeof(float));
  }
  return out;
}

double Tensor::SumAbs() const {
  double total = 0.0;
  for (int64_t i = 0; i < numel_; ++i) {
    total += std::fabs(static_cast<double>(data_[i]));
  }
  return total;
}

double Tensor::RelativeL2Diff(const Tensor& other) const {
  MSMOE_CHECK(SameShape(*this, other));
  double diff_sq = 0.0;
  double ref_sq = 0.0;
  for (int64_t i = 0; i < numel_; ++i) {
    const double d = static_cast<double>(data_[i]) - static_cast<double>(other.data_[i]);
    diff_sq += d * d;
    ref_sq += static_cast<double>(other.data_[i]) * static_cast<double>(other.data_[i]);
  }
  if (ref_sq == 0.0) {
    return diff_sq == 0.0 ? 0.0 : std::sqrt(diff_sq);
  }
  return std::sqrt(diff_sq / ref_sq);
}

std::string Tensor::ShapeString() const {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < shape_.size(); ++i) {
    out << (i > 0 ? ", " : "") << shape_[i];
  }
  out << "]";
  return out.str();
}

bool SameShape(const Tensor& a, const Tensor& b) { return a.shape() == b.shape(); }

}  // namespace msmoe
