#pragma once
// Shared helpers for the bench binaries. Every bench regenerates one
// table or figure of the paper on synthetic data; sizes honor the
// NGS_BENCH_SCALE environment variable (default noted per bench) so the
// same binaries run heavier reproductions unchanged.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "sim/datasets.hpp"
#include "util/memory.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace ngs::bench {

inline double scale_or(double default_scale) {
  const char* s = std::getenv("NGS_BENCH_SCALE");
  if (s == nullptr) return default_scale;
  const double v = std::atof(s);
  return v > 0.0 ? v : default_scale;
}

inline void print_header(const std::string& title, const std::string& note) {
  std::cout << "==== " << title << " ====\n";
  if (!note.empty()) std::cout << note << "\n";
  std::cout << "\n";
}

/// Memory delta helper for the "Memory (GB)" columns: peak RSS is
/// process-wide, so benches report the peak after each method ran.
inline std::string mem_gb() {
  return util::Table::fixed(util::to_gib(util::peak_rss_bytes()), 2);
}

/// The `hardware` object of a BENCH_*.json record: the machine,
/// compiler and build type the numbers came from, so records from
/// different boxes are never compared as if they were one baseline.
inline std::string hardware_json() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
#if defined(__clang__)
  const char* compiler = "clang";
#else
  const char* compiler = "gcc";
#endif
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu_model\": \"" << cpu << "\", \"compiler\": \"" << compiler
     << " " << __VERSION__ << "\", \"build_type\": \"" << NGS_BENCH_BUILD_TYPE
     << "\"}";
  return os.str();
}

}  // namespace ngs::bench
