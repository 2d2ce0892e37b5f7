// Host and build fingerprint, plus small statistics helpers.
//
// Everything here comes from the build and from CPU instructions or
// system calls (cpuid, sysconf, getrusage, sched_*affinity), so the
// benchmark reads no file outside its checkout.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cpuid.h>
#include <cstring>
#include <sstream>
#include <thread>

#include "bench.h"
#include "obs/manifest.h"

namespace perfbench {

namespace {

std::string cpu_model() {
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned int leaf = 0; leaf < 3; ++leaf) {
    __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1], &regs[leaf * 4 + 2],
                &regs[leaf * 4 + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  model.erase(0, model.find_first_not_of(' '));
  return model;
}

std::string kib(long bytes) {
  return bytes > 0 ? std::to_string(bytes / 1024) + " KiB" : std::string("unknown");
}

}  // namespace

std::string host_stamp() {
  const obs::BuildInfo build = obs::build_info();
  std::ostringstream out;
  out << "git " << build.git_sha << " | " << build.compiler << " " << PERFBENCH_BUILD_TYPE
      << " | nproc " << std::thread::hardware_concurrency() << " | " << cpu_model()
      << " | L2 " << kib(sysconf(_SC_LEVEL2_CACHE_SIZE)) << " | L3 "
      << kib(sysconf(_SC_LEVEL3_CACHE_SIZE));
  return out.str();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  return static_cast<double>(obs::peak_rss_bytes()) / (1024.0 * 1024.0);
}

void pin_to_next_cpu() {
  static const std::vector<int> cpus = [] {
    std::vector<int> allowed;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) allowed.push_back(cpu);
      }
    }
    return allowed;
  }();
  static std::size_t next = 0;
  if (cpus.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[next++ % cpus.size()], &one);
  (void)sched_setaffinity(0, sizeof one, &one);
}

}  // namespace perfbench
