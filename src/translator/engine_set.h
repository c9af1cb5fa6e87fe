// The translator's four per-primitive engines as one set (paper §5.2,
// Figure 6).
//
// The collector advertises where each primitive's structure lives in
// its CM accept (§5.3), and the set builds one engine per advertised
// region. Both transports translate through it: translator::Translator
// in front of the RoCE wire, and each CollectorShard in front of its
// direct-execution queue pair. So a report becomes the same verbs on
// both, and the Append engine's running totals are the event-cursor
// heads on both.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dta/wire.h"
#include "rdma/cm.h"
#include "translator/append_engine.h"
#include "translator/keyincrement_engine.h"
#include "translator/keywrite_engine.h"
#include "translator/postcard_cache.h"

namespace dta::translator {

// Aggregated view of an engine set's counters. One addable struct, so
// the runtime and cluster tiers can sum it across shards and hosts
// instead of callers poking each engine. Disabled primitives count
// zeros. Read behind a flush barrier.
struct TranslationStats {
  std::uint64_t keywrite_reports = 0;
  std::uint64_t keywrite_writes = 0;
  std::uint64_t truncated_values = 0;
  std::uint64_t keyincrement_reports = 0;
  std::uint64_t fetch_adds = 0;
  std::uint64_t postcards_in = 0;
  std::uint64_t postcard_writes = 0;
  std::uint64_t append_entries_in = 0;
  std::uint64_t append_writes = 0;
  std::uint64_t append_bytes_written = 0;
  std::uint64_t append_dropped_bad_list = 0;

  TranslationStats& operator+=(const TranslationStats& o);
};

class EngineSet {
 public:
  // What translate() did with one report: its primitive, and the
  // telemetry key a secondary index should record (null for Append,
  // which has no key, and for a primitive the collector did not
  // advertise, whose report emits nothing).
  struct Translated {
    proto::PrimitiveOp op = proto::PrimitiveOp::kNack;
    const proto::TelemetryKey* key = nullptr;
  };

  // No engines: every report translates to nothing.
  EngineSet() = default;
  // One engine per region `accept` advertises. `postcard_cache_slots`
  // sizes the postcard cache; `append_batch_size` is Algorithm 3's B.
  EngineSet(const rdma::ConnectAccept& accept,
            std::uint32_t postcard_cache_slots,
            std::uint32_t append_batch_size);

  // Appends the verbs of one report to `out`. The key points into
  // `parsed`.
  Translated translate(const proto::ParsedDta& parsed,
                       std::vector<RdmaOp>& out);

  // Drains the postcard cache rows into `out`.
  void flush_postcards(std::vector<RdmaOp>& out) {
    if (postcarding_) postcarding_->flush_all(out);
  }
  // Emits every partial Append batch into `out`.
  void flush_appends(std::vector<RdmaOp>& out) {
    if (append_) append_->flush_all(out);
  }

  TranslationStats stats() const;

  // Entries the Append engine has emitted per list: the event-cursor
  // heads, once a flush has delivered every emitted op. Empty without
  // an Append engine.
  const std::vector<std::uint64_t>& append_heads() const;

  // Engine-level counters beyond stats() (postcard emissions, Append
  // batching); null when the primitive is not advertised.
  const PostcardCache* postcarding() const { return postcarding_.get(); }
  const AppendEngine* append() const { return append_.get(); }

 private:
  std::unique_ptr<KeyWriteEngine> keywrite_;
  std::unique_ptr<KeyIncrementEngine> keyincrement_;
  std::unique_ptr<PostcardCache> postcarding_;
  std::unique_ptr<AppendEngine> append_;
};

}  // namespace dta::translator
