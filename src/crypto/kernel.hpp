// Runtime selection between the hardware crypto kernels (AES-NI for
// AES-128 block/CBC/CTR and the multi-buffer CBC-encrypt, SHA-NI for
// the SHA-256 compression and the one-call HMAC) and the portable ones
// (T-table AES, scalar SHA-256), which stay as the fallback for CPUs
// without the instructions and as the differential oracle in tests.
//
// The selection is made once per process, on first use: Hardware when
// the CPU has the instructions and ENDBOX_FORCE_SCALAR is unset (see
// common/cpu_features.hpp). Every entry point dispatches once per
// buffer, burst or MAC, so the CBC/CTR loops, the multi-buffer lanes
// and the blocks of one HMAC run inside one kernel and keep their
// pipelining.
#pragma once

#include <cstdint>

namespace endbox::crypto {

enum class CryptoKernel : std::uint8_t { Portable, Hardware };

/// Kernel the AES-128 entry points (Aes128 block calls, CBC, the
/// multi-buffer CBC-encrypt, CTR) run.
CryptoKernel aes_kernel();
/// Kernel Sha256::update compresses whole blocks with, and the kernel
/// sha256_hmac (HmacKey::mac) runs.
CryptoKernel sha256_kernel();

/// Overrides the selection process-wide, so tests and benches can run
/// both sides of the dispatch. Returns false, changing nothing, when
/// Hardware is asked for on a CPU without the instructions. Both
/// kernels produce identical bytes, so switching mid-run is harmless.
bool pin_aes_kernel(CryptoKernel kernel);
bool pin_sha256_kernel(CryptoKernel kernel);

}  // namespace endbox::crypto
