// Unit helpers for bytes, time, and rates used throughout the simulator.
//
// Conventions:
//   - All simulated time is in microseconds (double).
//   - Bandwidths are bytes per microsecond internally; constructors accept
//     GB/s (decimal gigabytes, matching vendor NVLink/NIC datasheets).
//   - Compute rates are FLOPs per microsecond; constructors accept TFLOPS.
#ifndef MSMOE_SRC_BASE_UNITS_H_
#define MSMOE_SRC_BASE_UNITS_H_

#include <cstdint>

namespace msmoe {

inline constexpr double kKiB = 1024.0;
inline constexpr double kMiB = 1024.0 * 1024.0;
inline constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;
inline constexpr double kGB = 1e9;   // decimal, for bandwidth datasheets
inline constexpr double kTB = 1e12;

inline constexpr double kUsPerSecond = 1e6;
inline constexpr double kUsPerMs = 1e3;

// GB/s -> bytes/us.
constexpr double GBps(double gbps) { return gbps * kGB / kUsPerSecond; }

// TFLOPS -> FLOPs/us.
constexpr double Tflops(double tflops) { return tflops * 1e12 / kUsPerSecond; }

// bytes/us -> GB/s (for reporting).
constexpr double ToGBps(double bytes_per_us) { return bytes_per_us * kUsPerSecond / kGB; }

// us -> seconds / milliseconds (for reporting).
constexpr double UsToSeconds(double us) { return us / kUsPerSecond; }
constexpr double UsToMs(double us) { return us / kUsPerMs; }
constexpr double SecondsToUs(double s) { return s * kUsPerSecond; }

}  // namespace msmoe

#endif  // MSMOE_SRC_BASE_UNITS_H_
