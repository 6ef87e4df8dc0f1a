// Runtime CPU-feature dispatch for the hardware kernels on the data
// path: the Teddy literal prefilter (SSSE3/AVX2) and the tunnel crypto
// (AES-NI, SHA-NI).
//
// Kernels are compiled with per-function target attributes (so the
// translation unit needs no special -m flags and the binary stays
// runnable on any x86-64), and the caller picks the widest level the
// machine supports at runtime. Setting ENDBOX_FORCE_SCALAR=1 in the
// environment pins the portable path of every runtime-dispatched
// kernel — the SWAR prefilter, the T-table AES and the scalar SHA-256
// compression — so sanitizer CI legs and benches exercise the
// fallbacks deterministically on machines that do have the hardware.
#pragma once

#include <cstdlib>
#include <cstring>

namespace endbox::common {

enum class SimdLevel { Scalar, Ssse3, Avx2 };

/// What the hardware supports, ignoring the environment override.
inline SimdLevel hardware_simd_level() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2")) return SimdLevel::Avx2;
  if (__builtin_cpu_supports("ssse3")) return SimdLevel::Ssse3;
#endif
  return SimdLevel::Scalar;
}

/// True when ENDBOX_FORCE_SCALAR is set to anything but "" or "0".
inline bool force_scalar() {
  const char* value = std::getenv("ENDBOX_FORCE_SCALAR");
  return value != nullptr && value[0] != '\0' &&
         std::strcmp(value, "0") != 0;
}

/// The dispatch level to use now: the hardware level, unless the
/// override pins the scalar path. Re-reads the environment on every
/// call (dispatch decisions are made at build/compile time of a
/// matcher, not per packet), so tests can flip the override between
/// engine constructions within one process.
inline SimdLevel current_simd_level() {
  if (force_scalar()) return SimdLevel::Scalar;
  return hardware_simd_level();
}

/// The CPU has AES-NI, ignoring the environment override.
inline bool hardware_has_aes_ni() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("aes");
#else
  return false;
#endif
}

/// The CPU has SHA-NI (and the SSE4.1 the SHA-256 kernel uses),
/// ignoring the environment override.
inline bool hardware_has_sha_ni() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

/// AES-NI is to be used: the CPU has it and the override does not pin
/// the portable T-table cipher. Reads the environment on every call;
/// the crypto layer samples it once per process, since it dispatches
/// per buffer rather than per engine build.
inline bool has_aes_ni() { return !force_scalar() && hardware_has_aes_ni(); }

/// SHA-NI is to be used: the CPU has it and the override does not pin
/// the portable scalar compression.
inline bool has_sha_ni() { return !force_scalar() && hardware_has_sha_ni(); }

inline const char* simd_level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::Avx2:
      return "avx2";
    case SimdLevel::Ssse3:
      return "ssse3";
    default:
      return "scalar";
  }
}

}  // namespace endbox::common
