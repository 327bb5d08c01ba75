// Worker-count sweep for loops split across a calling thread's ParallelFor
// team (src/base/parallel_for.h): a split may only partition an index
// range, never change an element's accumulation order, so every output must
// be memcmp-equal at every width.
#ifndef MSMOE_TESTS_WORKER_WIDTHS_H_
#define MSMOE_TESTS_WORKER_WIDTHS_H_

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/base/parallel_for.h"
#include "src/tensor/tensor.h"

namespace msmoe {

// The tensors' elements, concatenated.
inline std::vector<float> Concat(const std::vector<const Tensor*>& tensors) {
  std::vector<float> out;
  for (const Tensor* tensor : tensors) {
    out.insert(out.end(), tensor->data(), tensor->data() + tensor->numel());
  }
  return out;
}

// Runs `run` (returning a std::vector of trivially copyable values) at
// widths 1, 2 and 3 and expects the width-2 and width-3 results to be
// memcmp-equal to the width-1 result. Restores the previous width.
template <typename Run>
void ExpectSameBitsAtWidths(const Run& run) {
  struct RestoreWidth {
    int width = ParallelWorkerCount();
    ~RestoreWidth() { SetParallelWorkerCount(width); }
  } restore;
  SetParallelWorkerCount(1);
  const auto want = run();
  for (int width : {2, 3}) {
    SetParallelWorkerCount(width);
    const auto got = run();
    ASSERT_EQ(got.size(), want.size()) << "width " << width;
    EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(want[0])), 0)
        << "width " << width;
  }
}

}  // namespace msmoe

#endif  // MSMOE_TESTS_WORKER_WIDTHS_H_
