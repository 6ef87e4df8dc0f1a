// Unit tests for src/crypto against published test vectors (SHA-256,
// HMAC-SHA-256, AES-128), property tests for modes and toy-RSA, and
// differential tests of the hardware kernels (AES-NI, SHA-NI) against
// the portable ones, pinned explicitly through crypto/kernel.hpp.
#include <gtest/gtest.h>

#include <cstdlib>

#include "common/cpu_features.hpp"
#include "common/rng.hpp"
#include "crypto/aes.hpp"
#include "crypto/hmac.hpp"
#include "crypto/kernel.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"

namespace endbox::crypto {
namespace {

using endbox::Rng;

// ---- SHA-256 (FIPS 180-4 / NIST vectors) -------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(sha256({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(sha256(to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(sha256(to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  auto d = h.finish();
  EXPECT_EQ(to_hex(ByteView(d.data(), d.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Rng rng(42);
  Bytes data = rng.bytes(10000);
  // Split at awkward boundaries relative to the 64-byte block size.
  for (std::size_t split : {1u, 63u, 64u, 65u, 127u, 5000u}) {
    Sha256 h;
    h.update(ByteView(data.data(), split));
    h.update(ByteView(data.data() + split, data.size() - split));
    auto inc = h.finish();
    auto oneshot = Sha256::hash(data);
    EXPECT_EQ(inc, oneshot) << "split=" << split;
  }
}

// ---- HMAC-SHA-256 (RFC 4231) -------------------------------------------

TEST(Hmac, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(hmac_sha256(key, to_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(
      to_hex(hmac_sha256(to_bytes("Jefe"), to_bytes("what do ya want for nothing?"))),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes data(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  // RFC 4231 case 6: 131-byte key.
  Bytes key(131, 0xaa);
  EXPECT_EQ(to_hex(hmac_sha256(
                key, to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, VerifyAcceptsAndRejects) {
  Bytes key = to_bytes("secret");
  Bytes msg = to_bytes("payload");
  Bytes mac = hmac_sha256(key, msg);
  EXPECT_TRUE(hmac_verify(key, msg, mac));
  mac[0] ^= 1;
  EXPECT_FALSE(hmac_verify(key, msg, mac));
  EXPECT_FALSE(hmac_verify(key, to_bytes("other"), hmac_sha256(key, msg)));
}

TEST(Hmac, DeriveKeyLengthsAndDomainSeparation) {
  Bytes master = to_bytes("master-secret");
  auto k16 = derive_key(master, "enc", 16);
  auto k64 = derive_key(master, "enc", 64);
  auto other = derive_key(master, "mac", 16);
  EXPECT_EQ(k16.size(), 16u);
  EXPECT_EQ(k64.size(), 64u);
  // Same label: prefix property; different label: unrelated.
  EXPECT_TRUE(std::equal(k16.begin(), k16.end(), k64.begin()));
  EXPECT_NE(k16, other);
}

// ---- AES-128 (FIPS 197 appendix + NIST SP 800-38A vectors) ---------------

TEST(Aes, Fips197Block) {
  auto key = make_aes_key(*from_hex("000102030405060708090a0b0c0d0e0f"));
  auto pt = *from_hex("00112233445566778899aabbccddeeff");
  Aes128 aes(key);
  std::uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(to_hex(ByteView(ct, 16)), "69c4e0d86a7b0430d8cdb78070b4c55a");
  std::uint8_t back[16];
  aes.decrypt_block(ct, back);
  EXPECT_EQ(to_hex(ByteView(back, 16)), to_hex(pt));
}

TEST(Aes, Sp80038aEcbVector) {
  auto key = make_aes_key(*from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  auto pt = *from_hex("6bc1bee22e409f96e93d7e117393172a");
  Aes128 aes(key);
  std::uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(to_hex(ByteView(ct, 16)), "3ad77bb40d7a3660a89ecaf32466ef97");
}

TEST(Aes, Sp80038aCbcVector) {
  auto key = make_aes_key(*from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  auto iv = *from_hex("000102030405060708090a0b0c0d0e0f");
  auto pt = *from_hex("6bc1bee22e409f96e93d7e117393172a");
  Bytes ct = aes128_cbc_encrypt(key, iv, pt);
  // First block matches the NIST vector; the rest is PKCS#7 padding block.
  ASSERT_GE(ct.size(), 16u);
  EXPECT_EQ(to_hex(ByteView(ct.data(), 16)), "7649abac8119b246cee98e9b12e9197d");
}

TEST(Aes, CbcRoundTripVariousSizes) {
  Rng rng(1);
  auto key = make_aes_key(rng.bytes(16));
  for (std::size_t size : {0u, 1u, 15u, 16u, 17u, 31u, 32u, 1000u, 1500u}) {
    Bytes pt = rng.bytes(size);
    Bytes iv = rng.bytes(16);
    Bytes ct = aes128_cbc_encrypt(key, iv, pt);
    EXPECT_EQ(ct.size() % 16, 0u);
    EXPECT_GT(ct.size(), pt.size());  // always padded
    auto back = aes128_cbc_decrypt(key, iv, ct);
    ASSERT_TRUE(back.ok()) << back.error();
    EXPECT_EQ(*back, pt) << "size=" << size;
  }
}

TEST(Aes, CbcDecryptRejectsGarbage) {
  Rng rng(2);
  auto key = make_aes_key(rng.bytes(16));
  Bytes iv = rng.bytes(16);
  EXPECT_FALSE(aes128_cbc_decrypt(key, iv, Bytes{}).ok());
  EXPECT_FALSE(aes128_cbc_decrypt(key, iv, rng.bytes(15)).ok());
  // Wrong key produces invalid padding with overwhelming probability.
  Bytes ct = aes128_cbc_encrypt(key, iv, to_bytes("attack at dawn"));
  auto wrong = make_aes_key(rng.bytes(16));
  auto r = aes128_cbc_decrypt(wrong, iv, ct);
  if (r.ok()) { EXPECT_NE(to_string(*r), "attack at dawn"); }
}

TEST(Aes, CtrRoundTripAndSymmetry) {
  Rng rng(3);
  auto key = make_aes_key(rng.bytes(16));
  Bytes nonce = rng.bytes(16);
  for (std::size_t size : {0u, 1u, 16u, 17u, 100u, 4096u}) {
    Bytes pt = rng.bytes(size);
    Bytes ct = aes128_ctr(key, nonce, pt);
    EXPECT_EQ(ct.size(), pt.size());
    EXPECT_EQ(aes128_ctr(key, nonce, ct), pt);
    if (size > 0) { EXPECT_NE(ct, pt); }
  }
}

TEST(Aes, CtrCounterAdvancesAcrossBlocks) {
  Rng rng(4);
  auto key = make_aes_key(rng.bytes(16));
  Bytes nonce(16, 0xff);  // forces carry propagation on increment
  Bytes pt(64, 0);
  Bytes ks = aes128_ctr(key, nonce, pt);
  // keystream blocks must all differ
  for (int i = 0; i < 4; ++i)
    for (int j = i + 1; j < 4; ++j)
      EXPECT_FALSE(std::equal(ks.begin() + i * 16, ks.begin() + (i + 1) * 16,
                              ks.begin() + j * 16));
}

// ---- Hardware kernels vs the portable oracle -----------------------------
//
// Each case runs the same call once with the portable kernel pinned and
// once with the hardware one, and demands identical bytes. The hardware
// side is skipped only when the CPU lacks the instructions; the
// ENDBOX_FORCE_SCALAR override does not stop an explicit pin.

static_assert(sizeof(Aes128) == 2 * 11 * kAesBlockSize,
              "one byte-order key schedule per direction, nothing else");
static_assert(sizeof(Sha256) == 8 * 4 + 64 + sizeof(std::size_t) + 8,
              "both kernels share state_; no per-kernel fields");

/// Runs `f` with the AES kernel pinned to `kernel`, then restores the
/// process selection.
template <typename F>
auto with_aes(CryptoKernel kernel, F&& f) {
  const CryptoKernel prev = aes_kernel();
  EXPECT_TRUE(pin_aes_kernel(kernel));
  auto result = f();
  pin_aes_kernel(prev);
  return result;
}

template <typename F>
auto with_sha(CryptoKernel kernel, F&& f) {
  const CryptoKernel prev = sha256_kernel();
  EXPECT_TRUE(pin_sha256_kernel(kernel));
  auto result = f();
  pin_sha256_kernel(prev);
  return result;
}

/// Runs `f` on both AES kernels and expects equal results.
template <typename F>
void expect_aes_agree(F&& f, const std::string& what) {
  auto portable = with_aes(CryptoKernel::Portable, f);
  auto hardware = with_aes(CryptoKernel::Hardware, f);
  EXPECT_EQ(portable, hardware) << what;
}

template <typename F>
void expect_sha_agree(F&& f, const std::string& what) {
  auto portable = with_sha(CryptoKernel::Portable, f);
  auto hardware = with_sha(CryptoKernel::Hardware, f);
  EXPECT_EQ(portable, hardware) << what;
}

class AesKernelDiff : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!common::hardware_has_aes_ni()) GTEST_SKIP() << "CPU lacks AES-NI";
  }
};

class ShaKernelDiff : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!common::hardware_has_sha_ni()) GTEST_SKIP() << "CPU lacks SHA-NI";
  }
};

TEST_F(AesKernelDiff, SingleBlocksMatchUnderRandomKeys) {
  Rng rng(101);
  for (int trial = 0; trial < 256; ++trial) {
    Aes128 aes(make_aes_key(rng.bytes(16)));
    Bytes block = rng.bytes(16);
    expect_aes_agree([&] {
      Bytes ct(16), pt(16);
      aes.encrypt_block(block.data(), ct.data());
      aes.decrypt_block(block.data(), pt.data());
      return std::make_pair(ct, pt);
    }, "trial=" + std::to_string(trial));
  }
}

TEST_F(AesKernelDiff, CbcEncryptEveryLength) {
  Rng rng(102);
  for (std::size_t len = 0; len <= 2048; ++len) {
    auto key = make_aes_key(rng.bytes(16));
    Bytes iv = rng.bytes(16);
    Bytes pt = rng.bytes(len);
    expect_aes_agree([&] { return aes128_cbc_encrypt(key, iv, pt); },
                     "len=" + std::to_string(len));
  }
}

TEST_F(AesKernelDiff, CbcDecryptEveryLength) {
  // Valid ciphertexts must decrypt to the same plaintext; random
  // ciphertexts of every length exercise the 4-way body, the 1-block
  // tail, non-multiple lengths and garbage padding alike.
  Rng rng(103);
  for (std::size_t len = 0; len <= 2048; ++len) {
    auto key = make_aes_key(rng.bytes(16));
    Bytes iv = rng.bytes(16);
    Bytes valid = aes128_cbc_encrypt(key, iv, rng.bytes(len));
    Bytes garbage = rng.bytes(len);
    for (const Bytes* ct : {&valid, &garbage}) {
      expect_aes_agree([&] {
        Bytes buf = *ct;
        Aes128 aes(key);
        auto r = aes128_cbc_decrypt_inplace(aes, iv.data(), buf);
        return std::make_tuple(r.ok(), r.ok() ? *r : 0, buf);
      }, "len=" + std::to_string(len) + (ct == &valid ? " valid" : " garbage"));
    }
  }
}

TEST_F(AesKernelDiff, CtrEveryLength) {
  Rng rng(104);
  for (std::size_t len = 0; len <= 2048; ++len) {
    auto key = make_aes_key(rng.bytes(16));
    Bytes nonce = rng.bytes(16);
    Bytes data = rng.bytes(len);
    expect_aes_agree([&] { return aes128_ctr(key, nonce, data); },
                     "len=" + std::to_string(len));
  }
}

TEST_F(AesKernelDiff, CtrCounterCarriesAcrossEveryByte) {
  // Counters one block short of wrapping at the low 64-bit half, the
  // whole 128 bits and an inner byte: the big-endian increment must
  // carry identically however the kernel holds the counter.
  Rng rng(105);
  auto key = make_aes_key(rng.bytes(16));
  Bytes data = rng.bytes(16 * 9 + 5);
  for (const char* hex : {"000000000000000000fffffffffffffe",
                          "0123456789abcdefffffffffffffffff",
                          "fffffffffffffffffffffffffffffffd",
                          "00000000000000000000000000ffffff"}) {
    Bytes nonce = *from_hex(hex);
    expect_aes_agree([&] { return aes128_ctr(key, nonce, data); }, hex);
  }
}

TEST_F(AesKernelDiff, InPlaceAtMisalignedOffsets) {
  Rng rng(106);
  Aes128 aes(make_aes_key(rng.bytes(16)));
  for (std::size_t offset = 1; offset < 16; ++offset) {
    for (std::size_t len : {0u, 15u, 16u, 63u, 64u, 65u, 200u, 1400u}) {
      Bytes backing = rng.bytes(offset + cbc_padded_size(len) + 16);
      Bytes iv_backing = rng.bytes(offset + 16);
      const std::uint8_t* iv = iv_backing.data() + offset;
      const std::string what =
          "offset=" + std::to_string(offset) + " len=" + std::to_string(len);
      // Each run returns the whole backing store, so a write outside the
      // span (or a short one) shows up as a difference too.
      auto cbc = [&] {
        Bytes b = backing;
        std::span<std::uint8_t> buf(b.data() + offset, cbc_padded_size(len));
        aes128_cbc_encrypt_inplace(aes, iv, buf, len);
        Bytes enc = b;
        auto r = aes128_cbc_decrypt_inplace(aes, iv, buf);
        return std::make_tuple(enc, r.ok() ? *r : ~std::size_t{0}, b);
      };
      auto ctr = [&] {
        Bytes b = backing;
        aes128_ctr_inplace(aes, iv, std::span<std::uint8_t>(b.data() + offset, len));
        return b;
      };
      expect_aes_agree(cbc, "cbc " + what);
      expect_aes_agree(ctr, "ctr " + what);
      // Round trip restores the plaintext; bytes around the span are
      // untouched.
      auto [enc, plain_len, dec] = with_aes(CryptoKernel::Hardware, cbc);
      EXPECT_EQ(plain_len, len) << what;
      EXPECT_TRUE(std::equal(dec.begin(), dec.begin() + static_cast<std::ptrdiff_t>(offset + len),
                             backing.begin()))
          << what;
      const auto tail = static_cast<std::ptrdiff_t>(offset + cbc_padded_size(len));
      EXPECT_TRUE(std::equal(enc.begin() + tail, enc.end(), backing.begin() + tail)) << what;
    }
  }
}

TEST_F(AesKernelDiff, CbcPaddingRejectionIsIdentical) {
  // Tamper with the second-to-last ciphertext block so the final
  // plaintext block's padding bytes take chosen values: every pad byte
  // 0..255 and a broken interior byte must be accepted or rejected the
  // same way, with the same decrypted bytes left in the buffer.
  Rng rng(107);
  auto key = make_aes_key(rng.bytes(16));
  Aes128 aes(key);
  Bytes iv = rng.bytes(16);
  Bytes ct = aes128_cbc_encrypt(key, iv, rng.bytes(70));  // 80 B, pad 10
  const std::size_t last = ct.size() - 1;
  for (int delta = 0; delta < 256; ++delta) {
    for (std::size_t at : {last - 16, last - 16 - 5}) {
      Bytes tampered = ct;
      tampered[at] ^= static_cast<std::uint8_t>(delta);
      expect_aes_agree([&] {
        Bytes buf = tampered;
        auto r = aes128_cbc_decrypt_inplace(aes, iv.data(), buf);
        return std::make_tuple(r.ok(), r.ok() ? *r : 0, r.ok() ? "" : r.error(), buf);
      }, "delta=" + std::to_string(delta) + " at=" + std::to_string(at));
    }
  }
}

TEST_F(ShaKernelDiff, RandomChunkingsStraddleBlockBoundaries) {
  Rng rng(108);
  for (int trial = 0; trial < 300; ++trial) {
    Bytes data = rng.bytes(static_cast<std::size_t>(rng.uniform(0, 4096)));
    std::vector<std::size_t> cuts;
    for (std::size_t at = 0; at < data.size();) {
      // Mostly short chunks that land inside a block, some spanning
      // several blocks in one update.
      std::size_t n = static_cast<std::size_t>(
          rng.uniform(0, 8) == 0 ? rng.uniform(64, 400) : rng.uniform(1, 80));
      at = std::min(data.size(), at + n);
      cuts.push_back(at);
    }
    auto chunked = [&] {
      Sha256 h;
      std::size_t from = 0;
      for (std::size_t to : cuts) {
        h.update(ByteView(data.data() + from, to - from));
        from = to;
      }
      return h.finish();
    };
    const std::string what = "trial=" + std::to_string(trial) +
                             " len=" + std::to_string(data.size());
    expect_sha_agree(chunked, what);
    EXPECT_EQ(with_sha(CryptoKernel::Hardware, chunked),
              with_sha(CryptoKernel::Portable, [&] { return Sha256::hash(data); }))
        << what;
  }
}

TEST_F(ShaKernelDiff, EveryLengthAroundThePaddingBoundary) {
  Rng rng(109);
  Bytes data = rng.bytes(320);
  for (std::size_t len = 0; len <= data.size(); ++len)
    expect_sha_agree([&] { return Sha256::hash(ByteView(data.data(), len)); },
                     "len=" + std::to_string(len));
}

TEST_F(ShaKernelDiff, HmacAndDeriveKeyMatch) {
  Rng rng(110);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes key = rng.bytes(static_cast<std::size_t>(rng.uniform(0, 200)));
    Bytes data = rng.bytes(static_cast<std::size_t>(rng.uniform(0, 1500)));
    std::size_t out_len = static_cast<std::size_t>(rng.uniform(1, 100));
    expect_sha_agree([&] {
      HmacKey hk(key);
      auto mac = hk.mac(data);
      return std::make_tuple(hmac_sha256(key, data),
                             Bytes(mac.begin(), mac.end()),
                             hk.verify(data, ByteView(mac.data(), mac.size())),
                             derive_key(key, "label-" + std::to_string(trial), out_len));
    }, "trial=" + std::to_string(trial));
  }
}

// ---- Multi-buffer CBC-encrypt and the one-call HMAC ----------------------
//
// Both run under every kernel this CPU has (the portable one always),
// pinned per case, against per-buffer / incremental oracles computed
// on the portable kernel. Under ENDBOX_FORCE_SCALAR=1 the pins still
// reach the hardware kernels, so each leg checks both sides.

std::vector<CryptoKernel> available_aes_kernels() {
  std::vector<CryptoKernel> kernels{CryptoKernel::Portable};
  if (common::hardware_has_aes_ni()) kernels.push_back(CryptoKernel::Hardware);
  return kernels;
}

std::vector<CryptoKernel> available_sha_kernels() {
  std::vector<CryptoKernel> kernels{CryptoKernel::Portable};
  if (common::hardware_has_sha_ni()) kernels.push_back(CryptoKernel::Hardware);
  return kernels;
}

const char* kernel_name(CryptoKernel kernel) {
  return kernel == CryptoKernel::Hardware ? "hardware" : "portable";
}

TEST(AesMultiBuffer, MatchesPerBufferEncryptOnRandomBursts) {
  Rng rng(111);
  for (int trial = 0; trial < 300; ++trial) {
    // 1-9 jobs of 1-90 blocks, unequal lengths (lanes refill mid-burst),
    // drawn from 1-3 keys so several jobs share a key schedule.
    std::vector<Aes128> keys;
    const std::size_t key_count = rng.uniform(1, 3);
    for (std::size_t k = 0; k < key_count; ++k)
      keys.emplace_back(make_aes_key(rng.bytes(16)));
    const std::size_t n = rng.uniform(1, 9);
    std::vector<const Aes128*> aes(n);
    std::vector<Bytes> ivs(n), plain(n);
    std::vector<std::size_t> lens(n);
    for (std::size_t j = 0; j < n; ++j) {
      aes[j] = &keys[rng.uniform(0, key_count - 1)];
      ivs[j] = rng.bytes(16);
      const std::size_t blocks = rng.uniform(1, 90);
      lens[j] = blocks * kAesBlockSize - rng.uniform(1, 16);
      plain[j] = rng.bytes(blocks * kAesBlockSize);  // padding overwritten
    }
    std::vector<Bytes> expected = plain;
    with_aes(CryptoKernel::Portable, [&] {
      for (std::size_t j = 0; j < n; ++j)
        aes128_cbc_encrypt_inplace(*aes[j], ivs[j].data(), expected[j], lens[j]);
      return 0;
    });
    for (CryptoKernel kernel : available_aes_kernels()) {
      std::vector<Bytes> bufs = plain;
      std::vector<CbcJob> jobs;
      for (std::size_t j = 0; j < n; ++j)
        jobs.push_back({aes[j], ivs[j].data(), bufs[j], lens[j]});
      with_aes(kernel, [&] {
        aes128_cbc_encrypt_multi(jobs);
        return 0;
      });
      EXPECT_EQ(bufs, expected) << "trial=" << trial << " jobs=" << n << " "
                                << kernel_name(kernel);
    }
  }
}

TEST(AesMultiBuffer, EmptyBurstIsANoOpAndBadSizesThrow) {
  for (CryptoKernel kernel : available_aes_kernels()) {
    with_aes(kernel, [] {
      aes128_cbc_encrypt_multi({});
      return 0;
    });
  }
  Aes128 aes(make_aes_key(Bytes(16, 7)));
  Bytes iv(16, 1), buf(32, 2);
  std::vector<CbcJob> jobs{{&aes, iv.data(), buf, 10}};  // padded size is 16
  EXPECT_THROW(aes128_cbc_encrypt_multi(jobs), std::invalid_argument);
}

TEST(HmacOneCall, MatchesIncrementalForEveryLengthWithAndWithoutLabel) {
  Rng rng(112);
  HmacKey key(rng.bytes(32));
  Bytes data = rng.bytes(300);
  // No prefix, the VPN's 4-byte label, the longest one-call prefix, and
  // a block-sized prefix (the incremental fallback).
  const std::vector<Bytes> prefixes{Bytes{}, to_bytes("data"), rng.bytes(63),
                                    rng.bytes(64)};
  for (const Bytes& prefix : prefixes) {
    for (std::size_t len = 0; len <= data.size(); ++len) {
      ByteView view(data.data(), len);
      const Sha256Digest expected = with_sha(CryptoKernel::Portable, [&] {
        HmacKey::Mac mac = key.begin();
        mac.update(prefix);
        mac.update(view);
        return mac.finish();
      });
      for (CryptoKernel kernel : available_sha_kernels()) {
        EXPECT_EQ(with_sha(kernel, [&] { return key.mac(prefix, view); }), expected)
            << "prefix=" << prefix.size() << " len=" << len << " " << kernel_name(kernel);
        if (prefix.empty()) {
          EXPECT_EQ(with_sha(kernel, [&] { return key.mac(view); }), expected)
              << "len=" << len << " " << kernel_name(kernel);
        }
      }
    }
  }
}

TEST(HmacOneCall, Rfc4231Vectors) {
  struct Case {
    Bytes key;
    Bytes data;
    const char* mac;
  };
  Bytes key4;
  for (std::uint8_t b = 1; b <= 25; ++b) key4.push_back(b);
  const std::vector<Case> cases{
      {Bytes(20, 0x0b), to_bytes("Hi There"),
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {to_bytes("Jefe"), to_bytes("what do ya want for nothing?"),
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {Bytes(20, 0xaa), Bytes(50, 0xdd),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {key4, Bytes(50, 0xcd),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {Bytes(131, 0xaa), to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"),
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {Bytes(131, 0xaa),
       to_bytes("This is a test using a larger than block-size key and a larger "
                "than block-size data. The key needs to be hashed before being "
                "used by the HMAC algorithm."),
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
  for (CryptoKernel kernel : available_sha_kernels()) {
    for (const Case& c : cases) {
      const HmacKey key(c.key);
      const ByteView data(c.data);
      const auto whole = with_sha(kernel, [&] { return key.mac(data); });
      // The same message split as prefix || rest.
      const auto split = with_sha(kernel, [&] {
        return key.mac(data.subspan(0, 4), data.subspan(4));
      });
      EXPECT_EQ(to_hex(ByteView(whole.data(), whole.size())), c.mac)
          << kernel_name(kernel);
      EXPECT_EQ(to_hex(ByteView(split.data(), split.size())), c.mac)
          << kernel_name(kernel);
    }
  }
}

// The process-wide selection is made on first use from the CPU and the
// environment. These run in a re-executed child (threadsafe death-test
// style), so the child's first crypto call sees the environment the
// test sets rather than whatever this process already selected.
TEST(CryptoDispatchDeathTest, ForceScalarSelectsPortableKernels) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_EXIT(
      {
        ::setenv("ENDBOX_FORCE_SCALAR", "1", 1);
        bool portable = aes_kernel() == CryptoKernel::Portable &&
                        sha256_kernel() == CryptoKernel::Portable;
        std::_Exit(portable ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(CryptoDispatchDeathTest, HardwareSelectedWhenPresentAndNotForced) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_EXIT(
      {
        ::unsetenv("ENDBOX_FORCE_SCALAR");
        auto expect = [](bool hw) {
          return hw ? CryptoKernel::Hardware : CryptoKernel::Portable;
        };
        bool ok = aes_kernel() == expect(common::hardware_has_aes_ni()) &&
                  sha256_kernel() == expect(common::hardware_has_sha_ni());
        std::_Exit(ok ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(CryptoDispatch, SelectionFollowsTheEnvironmentAtStartup) {
  // Run under ENDBOX_FORCE_SCALAR=1 (the forced-scalar CI leg) this
  // checks the suite really exercised the portable kernels.
  EXPECT_EQ(aes_kernel(), common::has_aes_ni() ? CryptoKernel::Hardware
                                               : CryptoKernel::Portable);
  EXPECT_EQ(sha256_kernel(), common::has_sha_ni() ? CryptoKernel::Hardware
                                                  : CryptoKernel::Portable);
}

TEST(CryptoDispatch, PinningHardwareWithoutTheInstructionsIsRefused) {
  const CryptoKernel aes = aes_kernel(), sha = sha256_kernel();
  EXPECT_EQ(pin_aes_kernel(CryptoKernel::Hardware), common::hardware_has_aes_ni());
  EXPECT_EQ(pin_sha256_kernel(CryptoKernel::Hardware), common::hardware_has_sha_ni());
  EXPECT_TRUE(pin_aes_kernel(CryptoKernel::Portable));
  EXPECT_EQ(aes_kernel(), CryptoKernel::Portable);
  pin_aes_kernel(aes);
  pin_sha256_kernel(sha);
}

// ---- toy RSA -------------------------------------------------------------

TEST(Rsa, ModexpKnownValues) {
  EXPECT_EQ(modexp(2, 10, 1000000007), 1024u);
  EXPECT_EQ(modexp(7, 0, 13), 1u);
  EXPECT_EQ(modexp(5, 117, 19), 1u);  // 117 = 18*6+9 and 5^9 = 1 (mod 19)
  // Fermat: a^(p-1) = 1 mod p
  EXPECT_EQ(modexp(123456789, 1000000006, 1000000007), 1u);
}

TEST(Rsa, IsPrimeBasics) {
  EXPECT_FALSE(is_prime(0));
  EXPECT_FALSE(is_prime(1));
  EXPECT_TRUE(is_prime(2));
  EXPECT_TRUE(is_prime(3));
  EXPECT_FALSE(is_prime(4));
  EXPECT_TRUE(is_prime(2147483647));        // 2^31 - 1, Mersenne prime
  EXPECT_FALSE(is_prime(2147483647ull * 3));
  EXPECT_FALSE(is_prime(3215031751ull));    // strong pseudoprime to bases 2,3,5,7
}

TEST(Rsa, SignVerifyRoundTrip) {
  Rng rng(5);
  auto key = rsa_generate(rng);
  Bytes msg = to_bytes("attest me");
  Bytes sig = rsa_sign(key, msg);
  EXPECT_TRUE(rsa_verify(key.pub, msg, sig));
}

TEST(Rsa, VerifyRejectsTamperedMessageAndSignature) {
  Rng rng(6);
  auto key = rsa_generate(rng);
  Bytes msg = to_bytes("attest me");
  Bytes sig = rsa_sign(key, msg);
  EXPECT_FALSE(rsa_verify(key.pub, to_bytes("attest ME"), sig));
  Bytes bad = sig;
  bad[7] ^= 1;
  EXPECT_FALSE(rsa_verify(key.pub, msg, bad));
  EXPECT_FALSE(rsa_verify(key.pub, msg, Bytes{}));
}

TEST(Rsa, VerifyRejectsWrongKey) {
  Rng rng(7);
  auto k1 = rsa_generate(rng);
  auto k2 = rsa_generate(rng);
  Bytes msg = to_bytes("hello");
  EXPECT_FALSE(rsa_verify(k2.pub, msg, rsa_sign(k1, msg)));
}

TEST(Rsa, EncryptDecryptRoundTrip) {
  Rng rng(8);
  auto key = rsa_generate(rng);
  std::uint64_t secret = 0xdead1234;
  Bytes ct = rsa_encrypt(key.pub, secret);
  EXPECT_EQ(rsa_decrypt(key, ct), secret);
}

TEST(Rsa, PublicKeySerializeRoundTrip) {
  Rng rng(9);
  auto key = rsa_generate(rng);
  auto bytes = key.pub.serialize();
  EXPECT_EQ(RsaPublicKey::deserialize(bytes), key.pub);
}

TEST(Rsa, DistinctKeysFromDistinctSeeds) {
  Rng a(10), b(11);
  EXPECT_NE(rsa_generate(a).pub, rsa_generate(b).pub);
}

}  // namespace
}  // namespace endbox::crypto
