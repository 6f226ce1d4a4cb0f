#include "host.hpp"

#include <unistd.h>

#include <cstdio>
#include <string_view>
#include <thread>

#include "util/invariant.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace perfbench {

namespace {

long sysconf_or_zero(int name) {
  const long value = sysconf(name);
  return value > 0 ? value : 0;
}

constexpr bool kAddressOrThreadSanitizer =
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
    true;
#else
    false;
#endif
#else
    false;
#endif

constexpr bool kOptimised =
#if defined(__OPTIMIZE__)
    true;
#else
    false;
#endif

}  // namespace

std::string HostFacts::to_json() const {
  char buf[1024];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\": %u, \"l1d_bytes\": %ld, \"l2_bytes\": %ld, "
                "\"l3_bytes\": %ld, \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"cxx_flags\": \"%s\", "
                "\"threads_used\": %u}",
                nproc, l1d_bytes, l2_bytes, l3_bytes, compiler.c_str(),
                build_type.c_str(), cxx_flags.c_str(), threads_used);
  return buf;
}

HostFacts collect_host_facts(unsigned threads_used) {
  HostFacts facts;
  facts.nproc = std::thread::hardware_concurrency();
  facts.l1d_bytes = sysconf_or_zero(_SC_LEVEL1_DCACHE_SIZE);
  facts.l2_bytes = sysconf_or_zero(_SC_LEVEL2_CACHE_SIZE);
  facts.l3_bytes = sysconf_or_zero(_SC_LEVEL3_CACHE_SIZE);
#if defined(__clang__)
  facts.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  facts.compiler = "gcc " __VERSION__;
#else
  facts.compiler = "unknown";
#endif
  facts.build_type = PERFBENCH_BUILD_TYPE;
  facts.cxx_flags = PERFBENCH_CXX_FLAGS;
  facts.threads_used = threads_used;
  return facts;
}

std::optional<std::string> build_refusal() {
  if (!kOptimised) {
    return "unoptimised build (configure with -DCMAKE_BUILD_TYPE=Release)";
  }
  if (mcopt::util::kInvariantsEnabled) {
    return "MCOPT_CHECK_INVARIANTS is compiled in";
  }
  if (kAddressOrThreadSanitizer ||
      std::string_view{PERFBENCH_CXX_FLAGS}.find("-fsanitize") !=
          std::string_view::npos) {
    return "sanitizer build";
  }
  return std::nullopt;
}

}  // namespace perfbench
