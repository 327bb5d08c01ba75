// Per-element oracle for RopeInPlace / RopeBackwardInPlace: the loop that
// evaluates std::pow, std::cos and std::sin in double for every (token,
// head, pair), independent of the per-call angle table in
// src/tensor/tensor_ops.cc.
#ifndef MSMOE_TESTS_REFERENCE_ROPE_H_
#define MSMOE_TESTS_REFERENCE_ROPE_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "src/tensor/tensor.h"

namespace msmoe {

inline void ReferenceRope(Tensor& x, const std::vector<int64_t>& positions, int64_t heads,
                          int64_t head_dim, bool inverse, double theta_base = 10000.0) {
  const int64_t tokens = static_cast<int64_t>(positions.size());
  const int64_t half = head_dim / 2;
  for (int64_t t = 0; t < tokens; ++t) {
    const double pos = static_cast<double>(positions[static_cast<size_t>(t)]);
    for (int64_t h = 0; h < heads; ++h) {
      float* vec = x.data() + (t * heads + h) * head_dim;
      for (int64_t d = 0; d < half; ++d) {
        const double freq = std::pow(theta_base, -2.0 * static_cast<double>(d) / head_dim);
        double angle = pos * freq;
        if (inverse) {
          angle = -angle;
        }
        const float cos_a = static_cast<float>(std::cos(angle));
        const float sin_a = static_cast<float>(std::sin(angle));
        const float a = vec[d];
        const float b = vec[d + half];
        vec[d] = a * cos_a - b * sin_a;
        vec[d + half] = a * sin_a + b * cos_a;
      }
    }
  }
}

}  // namespace msmoe

#endif  // MSMOE_TESTS_REFERENCE_ROPE_H_
