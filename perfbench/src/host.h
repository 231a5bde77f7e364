// Host-side measurement helpers: clocks, process CPU time, peak RSS, and
// a counting, timing stream buffer for the JSONL event export.
#pragma once

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <streambuf>
#include <string>

#include "metrics.h"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Process CPU seconds, user + system, summed over all threads.
inline double process_cpu_s() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

/// Returns freed heap to the kernel and resets the RSS high-water mark, so
/// that the next peak_rss_kb() covers only what ran since, whatever earlier
/// repeats left in the allocator.  False where /proc/self/clear_refs is
/// unavailable; peak_rss_kb() then reports the process-lifetime peak.
inline bool reset_rss_peak() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  if (!f.is_open()) return false;
  f << "5";
  f.flush();
  return f.good();
}

inline double peak_rss_kb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::strtol(line.c_str() + 6, nullptr, 10));
    }
  }
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss);  // KiB on Linux
}

/// Unbuffered pass-through to another stream buffer that counts bytes,
/// newlines and flushes, and times each write and flush.
class CountingBuf : public std::streambuf {
 public:
  explicit CountingBuf(std::streambuf& sink) : sink_(sink) {}

  [[nodiscard]] const StreamStats& stats() const { return stats_; }

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    const std::uint64_t t0 = now_ns();
    const std::streamsize put = sink_.sputn(s, n);
    stats_.write_ns += now_ns() - t0;
    stats_.bytes += static_cast<std::uint64_t>(put);
    stats_.lines += static_cast<std::uint64_t>(std::count(s, s + put, '\n'));
    return put;
  }

  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) {
      return traits_type::not_eof(ch);
    }
    const char c = traits_type::to_char_type(ch);
    return xsputn(&c, 1) == 1 ? ch : traits_type::eof();
  }

  int sync() override {
    const std::uint64_t t0 = now_ns();
    const int rc = sink_.pubsync();
    stats_.flush_ns += now_ns() - t0;
    ++stats_.flushes;
    return rc;
  }

 private:
  std::streambuf& sink_;
  StreamStats stats_;
};

}  // namespace perfbench
