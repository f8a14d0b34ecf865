#include "support/cpu_features.hpp"

#include <cstdint>
#include <string_view>

#if defined(__x86_64__) || defined(__i386__) || defined(_M_X64)
#define SPECOMP_CPU_X86 1
#endif

#if defined(SPECOMP_CPU_X86) && (defined(__GNUC__) || defined(__clang__))
#include <cpuid.h>
#endif

namespace specomp::support::cpu {

namespace {

#if defined(SPECOMP_CPU_X86) && (defined(__GNUC__) || defined(__clang__))

/// xcr0 via XGETBV, valid only once CPUID reports OSXSAVE.
std::uint64_t read_xcr0() noexcept {
  std::uint32_t eax = 0;
  std::uint32_t edx = 0;
  __asm__ volatile("xgetbv" : "=a"(eax), "=d"(edx) : "c"(0));
  return (static_cast<std::uint64_t>(edx) << 32) | eax;
}

Features detect_x86() noexcept {
  Features f;
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return f;
  f.sse2 = (edx & (1u << 26)) != 0;
  f.fma = (ecx & (1u << 12)) != 0;
  f.avx = (ecx & (1u << 28)) != 0;
  const bool osxsave = (ecx & (1u << 27)) != 0;

  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0) {
    f.avx2 = (ebx & (1u << 5)) != 0;
    f.avx512f = (ebx & (1u << 16)) != 0;
    f.avx512dq = (ebx & (1u << 17)) != 0;
  }

  if (osxsave) {
    const std::uint64_t xcr0 = read_xcr0();
    // Bits 1 (SSE) + 2 (AVX) for YMM; 5 (opmask) + 6 (ZMM hi256) +
    // 7 (hi16 ZMM) for the full AVX-512 register file.
    f.os_avx = (xcr0 & 0x6) == 0x6;
    f.os_avx512 = f.os_avx && (xcr0 & 0xE0) == 0xE0;
  }
  return f;
}

#endif  // SPECOMP_CPU_X86

}  // namespace

Features detect() noexcept {
#if defined(SPECOMP_CPU_X86) && (defined(__GNUC__) || defined(__clang__))
  return detect_x86();
#else
  return Features{};
#endif
}

const Features& features() noexcept {
  static const Features cached = detect();
  return cached;
}

std::string describe(const Features& f) {
  std::string out;
  const auto add = [&out](bool on, std::string_view name) {
    if (!on) return;
    if (!out.empty()) out += ' ';
    out += name;
  };
  add(f.sse2, "sse2");
  add(f.avx, "avx");
  add(f.avx2, "avx2");
  add(f.fma, "fma");
  add(f.avx512f, "avx512f");
  add(f.avx512dq, "avx512dq");
  add(f.os_avx, "os-ymm");
  add(f.os_avx512, "os-zmm");
  if (out.empty()) out = "generic";
  return out;
}

}  // namespace specomp::support::cpu
