// Small integer/float helpers shared across modules.
#ifndef MSMOE_SRC_BASE_MATH_UTIL_H_
#define MSMOE_SRC_BASE_MATH_UTIL_H_

#include <cmath>
#include <cstdint>

namespace msmoe {

constexpr int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

constexpr int64_t AlignUp(int64_t value, int64_t alignment) {
  return CeilDiv(value, alignment) * alignment;
}

// True when a and b agree to within atol + rtol * |b| (numpy allclose rule).
inline bool AlmostEqual(double a, double b, double rtol = 1e-5, double atol = 1e-8) {
  return std::fabs(a - b) <= atol + rtol * std::fabs(b);
}

}  // namespace msmoe

#endif  // MSMOE_SRC_BASE_MATH_UTIL_H_
