// Reading Prometheus exposition text in tests: the sum of every sample
// whose line starts with `prefix` — e.g. `restored_bytes{tenant="alpha"`
// sums that tenant's samples across all of its shard labels.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

namespace hds::testutil {

inline std::uint64_t sample_sum(const std::string& text,
                                std::string_view prefix) {
  std::uint64_t sum = 0;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(prefix, 0) != 0) continue;
    sum += static_cast<std::uint64_t>(
        std::stod(line.substr(line.rfind(' ') + 1)));
  }
  return sum;
}

}  // namespace hds::testutil
