// Software model of the Tofino CRC engine.
//
// The DTA translator derives all of its hash functions from the switch
// ASIC's native CRC unit: slot indexes h0(n, key), the 4-byte Key-Write
// checksum h1(key), and the Postcarding per-hop checksums and value
// encoder g(v) all use "carefully selected CRC polynomials ... to create
// several independent hash functions using the same underlying CRC
// engine" (paper §5.2). We reproduce that: a table-driven reflected
// CRC-32 parameterized by polynomial, plus a catalogue of polynomials
// with good inter-independence.
//
// Hot-path implementation notes:
//  - compute()/update() run slice-by-8 (eight 256-entry tables, one
//    table lookup per input byte but only one loop iteration per eight
//    bytes), which is ~4-6x the byte-at-a-time reference kept public as
//    update_bytewise() for tests and benches.
//  - kValuePoly is CRC-32C, which x86 SSE4.2 and ARMv8 implement in
//    hardware. Engines built over that polynomial dispatch to the CPU
//    instruction when available (detected once at startup, scalar
//    slice-by-8 fallback otherwise; compile out with DTA_DISABLE_HW_CRC).
//  - compute_multi() hashes one message under several engines in one
//    pass with interleaved state, so the per-step table-load latency
//    overlaps across engines. The translator's key_hashes uses it to
//    derive h1 and every h0 slot index from one read of the key.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace dta::common {

// A reflected table-driven CRC-32 with configurable polynomial and
// initial value. Immutable after construction; cheap to copy by
// reference. Construction builds the eight 256-entry slice tables.
class Crc32 {
 public:
  // `poly` is the *reflected* polynomial representation
  // (e.g. 0xEDB88320 for the IEEE CRC-32 used by Boost's crc_32_type).
  explicit Crc32(std::uint32_t poly, std::uint32_t init = 0xFFFFFFFFu,
                 std::uint32_t xor_out = 0xFFFFFFFFu);

  std::uint32_t compute(ByteSpan data) const;

  // Incremental interface for pipelines that hash header fields one at a
  // time (the ASIC consumes the field bus in slices). Split points may
  // fall anywhere; the result is identical to one-shot compute().
  std::uint32_t begin() const { return init_; }
  std::uint32_t update(std::uint32_t state, ByteSpan data) const;
  std::uint32_t finish(std::uint32_t state) const { return state ^ xor_out_; }

  // Byte-at-a-time reference implementation. This is the oracle the
  // sliced and hardware paths are fuzzed against, and the baseline the
  // CRC micro-bench measures speedups over. Never dispatches to
  // hardware.
  std::uint32_t update_bytewise(std::uint32_t state, ByteSpan data) const;

  std::uint32_t polynomial() const { return poly_; }

  // True when compute()/update() dispatch to the CPU's CRC32C
  // instructions for this engine (kValuePoly with hardware support and
  // DTA_DISABLE_HW_CRC not set).
  bool hardware_accelerated() const { return hw_; }

  // Hashes one message under `count` engines in a single interleaved
  // pass (the "one key, N hash functions" shape of Key-Write translate:
  // h1(key) plus h0(0..N-1, key) all read the same bytes). Equivalent
  // to engines[i]->compute(msg) for each i.
  static void compute_multi(const Crc32* const* engines, std::size_t count,
                            ByteSpan msg, std::uint32_t* out);

 private:
  std::uint32_t update_sliced(std::uint32_t state, const std::uint8_t* p,
                              std::size_t n) const;

  // table_[0] is the classic byte-at-a-time table; tables 1..7 extend
  // each entry 1..7 zero bytes further so eight bytes fold per step.
  std::array<std::array<std::uint32_t, 256>, 8> table_{};
  std::uint32_t poly_;
  std::uint32_t init_;
  std::uint32_t xor_out_;
  bool hw_ = false;
};

// One-time runtime probe for CPU CRC32C support (SSE4.2 / ARMv8 CRC).
// Always false when compiled with DTA_DISABLE_HW_CRC.
bool cpu_has_hw_crc32c();

// Polynomial catalogue. kSlotPolys are used for the N redundancy slot
// indexes (h0(0,·) .. h0(7,·)); kChecksumPoly is h1; kValuePoly is the
// Postcarding value encoder g; kHopPolys are the per-hop checksum
// functions checksum(x, i).
inline constexpr std::uint32_t kChecksumPoly = 0xEDB88320u;  // CRC-32 (IEEE)
inline constexpr std::uint32_t kValuePoly = 0x82F63B78u;     // CRC-32C
// Collector-shard selector. A polynomial distinct from the
// slot/checksum/hop set so that shard placement is uncorrelated with
// in-shard slot placement (a correlated pair would load shards
// unevenly). Reflected representation, like every entry here.
inline constexpr std::uint32_t kShardPoly = 0xC8DF352Fu;  // CRC-32/AUTOSAR
inline constexpr std::array<std::uint32_t, 8> kSlotPolys = {
    0xEB31D82Eu,  // CRC-32K (Koopman)
    0xD5828281u,  // CRC-32Q (reflected)
    0x992C1A4Cu,  // CRC-32K2
    0xBA0DC66Bu,  // CRC-32 (alt, from Koopman's tables)
    0x0A833982u,
    0x8F6E37A0u,
    0xC0A0A0D5u,
    0x30171145u,
};
inline constexpr std::array<std::uint32_t, 8> kHopPolys = {
    0xAE689191u, 0xCF4A6218u, 0x9D198A24u, 0xF8C9A2AAu,
    0xB8FDB1E7u, 0x86B0C9C1u, 0xFB3EE248u, 0x93D2C9B4u,
};

// Shared, lazily constructed engines (construction builds tables; these
// helpers avoid rebuilding them per call). slot_crc()/hop_crc() enforce
// their `< 8` contract: an out-of-range index aborts with a diagnostic
// instead of silently wrapping (wrap would alias two "independent" hash
// functions — the wire decoder and dtalib validation reject redundancy
// > 8, so an out-of-range index here is a program bug, not bad input).
const Crc32& checksum_crc();                // h1
const Crc32& value_crc();                   // g
const Crc32& slot_crc(unsigned replica);    // h0(replica, ·), replica < 8
const Crc32& hop_crc(unsigned hop);         // checksum(·, hop), hop < 8
const Crc32& shard_crc();                   // collector-shard selector

// Stable shard index for a telemetry key: CRC of the key bytes modulo
// the shard count. Every component that routes by key (ingest pipeline,
// query frontend) must agree on this function.
std::uint32_t shard_of(ByteSpan key, std::uint32_t num_shards);

}  // namespace dta::common
