#include "common/crc.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

// Hardware CRC32C dispatch. kValuePoly (0x82F63B78) is exactly the
// polynomial the SSE4.2 crc32 instruction and the ARMv8 CRC extension
// implement, so engines over it can use the instruction for any
// init/xor_out (those only transform the state at the boundaries).
// DTA_DISABLE_HW_CRC compiles the dispatch out entirely so the scalar
// slice-by-8 fallback stays covered on CI.
#if !defined(DTA_DISABLE_HW_CRC)
#if defined(__x86_64__) || defined(__i386__)
#define DTA_HW_CRC32C_X86 1
#include <nmmintrin.h>
#elif defined(__aarch64__) && defined(__ARM_FEATURE_CRC32)
#define DTA_HW_CRC32C_ARM 1
#include <arm_acle.h>
#include <sys/auxv.h>
#endif
#endif

#if defined(DTA_HW_CRC32C_X86) || defined(DTA_HW_CRC32C_ARM)
#define DTA_HW_CRC32C_ANY 1
#endif

namespace dta::common {
namespace {

inline std::uint32_t load_le32(const std::uint8_t* p) {
  // Byte-composed little-endian load: safe at any alignment and on any
  // host endianness (the slice tables are laid out for LE folding).
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

#if defined(DTA_HW_CRC32C_X86)

// Per-function target attribute: the instruction is runtime-detected, so
// the rest of the binary must not assume SSE4.2.
__attribute__((target("sse4.2"))) std::uint32_t hw_crc32c_update(
    std::uint32_t state, const std::uint8_t* p, std::size_t n) {
  std::uint64_t s = state;
  while (n >= 8) {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    s = _mm_crc32_u64(s, v);
    p += 8;
    n -= 8;
  }
  auto s32 = static_cast<std::uint32_t>(s);
  while (n--) s32 = _mm_crc32_u8(s32, *p++);
  return s32;
}

#elif defined(DTA_HW_CRC32C_ARM)

std::uint32_t hw_crc32c_update(std::uint32_t state, const std::uint8_t* p,
                               std::size_t n) {
  while (n >= 8) {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    state = __crc32cd(state, v);
    p += 8;
    n -= 8;
  }
  while (n--) state = __crc32cb(state, *p++);
  return state;
}

#endif  // DTA_HW_CRC32C_*

[[noreturn]] void die_engine_range(const char* fn, unsigned index) {
  std::fprintf(stderr,
               "dta: %s(%u) violates the `index < 8` contract; wrapping "
               "would alias two independent hash functions\n",
               fn, index);
  std::abort();
}

}  // namespace

bool cpu_has_hw_crc32c() {
#if defined(DTA_HW_CRC32C_X86)
  static const bool ok = __builtin_cpu_supports("sse4.2") != 0;
  return ok;
#elif defined(DTA_HW_CRC32C_ARM)
  static const bool ok = (getauxval(AT_HWCAP) & HWCAP_CRC32) != 0;
  return ok;
#else
  return false;
#endif
}

Crc32::Crc32(std::uint32_t poly, std::uint32_t init, std::uint32_t xor_out)
    : poly_(poly), init_(init), xor_out_(xor_out) {
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ poly : (crc >> 1);
    }
    table_[0][i] = crc;
  }
  // table_[k][i] extends table_[k-1][i] by one trailing zero byte, so
  // one step through tables 7..0 folds eight input bytes at once.
  for (std::size_t k = 1; k < table_.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = table_[k - 1][i];
      table_[k][i] = table_[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  hw_ = (poly == kValuePoly) && cpu_has_hw_crc32c();
}

std::uint32_t Crc32::update_bytewise(std::uint32_t state, ByteSpan data) const {
  for (std::uint8_t b : data) {
    state = table_[0][(state ^ b) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

std::uint32_t Crc32::update_sliced(std::uint32_t state, const std::uint8_t* p,
                                   std::size_t n) const {
  while (n >= 8) {
    const std::uint32_t lo = state ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    state = table_[7][lo & 0xFFu] ^ table_[6][(lo >> 8) & 0xFFu] ^
            table_[5][(lo >> 16) & 0xFFu] ^ table_[4][lo >> 24] ^
            table_[3][hi & 0xFFu] ^ table_[2][(hi >> 8) & 0xFFu] ^
            table_[1][(hi >> 16) & 0xFFu] ^ table_[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n--) state = table_[0][(state ^ *p++) & 0xFFu] ^ (state >> 8);
  return state;
}

std::uint32_t Crc32::update(std::uint32_t state, ByteSpan data) const {
#if defined(DTA_HW_CRC32C_ANY)
  if (hw_) return hw_crc32c_update(state, data.data(), data.size());
#endif
  return update_sliced(state, data.data(), data.size());
}

std::uint32_t Crc32::compute(ByteSpan data) const {
  return finish(update(begin(), data));
}

void Crc32::compute_multi(const Crc32* const* engines, std::size_t count,
                          ByteSpan msg, std::uint32_t* out) {
  constexpr std::size_t kMaxInterleave = 16;
  if (count == 0) return;
  if (count > kMaxInterleave) {
    for (std::size_t e = 0; e < count; ++e) out[e] = engines[e]->compute(msg);
    return;
  }
  std::uint32_t s[kMaxInterleave];
  for (std::size_t e = 0; e < count; ++e) s[e] = engines[e]->init_;
  const std::uint8_t* p = msg.data();
  std::size_t n = msg.size();
  // The message bytes are loaded once per block and folded through every
  // engine's tables before moving on — one pass over the key no matter
  // how many hash functions read it.
  while (n >= 8) {
    const std::uint32_t raw_lo = load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    for (std::size_t e = 0; e < count; ++e) {
      const auto& t = engines[e]->table_;
      const std::uint32_t lo = s[e] ^ raw_lo;
      s[e] = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
             t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
             t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
             t[0][hi >> 24];
    }
    p += 8;
    n -= 8;
  }
  while (n--) {
    const std::uint8_t b = *p++;
    for (std::size_t e = 0; e < count; ++e) {
      s[e] = engines[e]->table_[0][(s[e] ^ b) & 0xFFu] ^ (s[e] >> 8);
    }
  }
  for (std::size_t e = 0; e < count; ++e) out[e] = engines[e]->finish(s[e]);
}

const Crc32& checksum_crc() {
  static const Crc32 engine(kChecksumPoly);
  return engine;
}

const Crc32& value_crc() {
  static const Crc32 engine(kValuePoly);
  return engine;
}

const Crc32& slot_crc(unsigned replica) {
  static const std::array<Crc32, 8> engines = {
      Crc32(kSlotPolys[0]), Crc32(kSlotPolys[1]), Crc32(kSlotPolys[2]),
      Crc32(kSlotPolys[3]), Crc32(kSlotPolys[4]), Crc32(kSlotPolys[5]),
      Crc32(kSlotPolys[6]), Crc32(kSlotPolys[7])};
  assert(replica < engines.size() && "slot_crc: replica out of range");
  if (replica >= engines.size()) die_engine_range("slot_crc", replica);
  return engines[replica];
}

const Crc32& hop_crc(unsigned hop) {
  static const std::array<Crc32, 8> engines = {
      Crc32(kHopPolys[0]), Crc32(kHopPolys[1]), Crc32(kHopPolys[2]),
      Crc32(kHopPolys[3]), Crc32(kHopPolys[4]), Crc32(kHopPolys[5]),
      Crc32(kHopPolys[6]), Crc32(kHopPolys[7])};
  assert(hop < engines.size() && "hop_crc: hop out of range");
  if (hop >= engines.size()) die_engine_range("hop_crc", hop);
  return engines[hop];
}

const Crc32& shard_crc() {
  static const Crc32 engine(kShardPoly);
  return engine;
}

std::uint32_t shard_of(ByteSpan key, std::uint32_t num_shards) {
  if (num_shards <= 1) return 0;
  return shard_crc().compute(key) % num_shards;
}

}  // namespace dta::common
