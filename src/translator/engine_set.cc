#include "translator/engine_set.h"

namespace dta::translator {

TranslationStats& TranslationStats::operator+=(const TranslationStats& o) {
  keywrite_reports += o.keywrite_reports;
  keywrite_writes += o.keywrite_writes;
  truncated_values += o.truncated_values;
  keyincrement_reports += o.keyincrement_reports;
  fetch_adds += o.fetch_adds;
  postcards_in += o.postcards_in;
  postcard_writes += o.postcard_writes;
  append_entries_in += o.append_entries_in;
  append_writes += o.append_writes;
  append_bytes_written += o.append_bytes_written;
  append_dropped_bad_list += o.append_dropped_bad_list;
  return *this;
}

EngineSet::EngineSet(const rdma::ConnectAccept& accept,
                     std::uint32_t postcard_cache_slots,
                     std::uint32_t append_batch_size) {
  for (const auto& region : accept.regions) {
    switch (region.kind) {
      case rdma::RegionKind::kKeyWrite:
        keywrite_ = std::make_unique<KeyWriteEngine>(
            KeyWriteGeometry::from_advert(region));
        break;
      case rdma::RegionKind::kKeyIncrement:
        keyincrement_ = std::make_unique<KeyIncrementEngine>(
            KeyIncrementGeometry::from_advert(region));
        break;
      case rdma::RegionKind::kPostcarding:
        postcarding_ = std::make_unique<PostcardCache>(
            PostcardingGeometry::from_advert(region), postcard_cache_slots);
        break;
      case rdma::RegionKind::kAppend:
        append_ = std::make_unique<AppendEngine>(
            AppendGeometry::from_advert(region), append_batch_size);
        break;
    }
  }
}

EngineSet::Translated EngineSet::translate(const proto::ParsedDta& parsed,
                                           std::vector<RdmaOp>& out) {
  // Dispatch on the report variant itself: the header opcode is wire
  // metadata and may not be populated on the direct (in-process) path.
  const bool immediate = parsed.header.immediate;
  if (const auto* kw = std::get_if<proto::KeyWriteReport>(&parsed.report)) {
    if (!keywrite_) return {proto::PrimitiveOp::kKeyWrite, nullptr};
    keywrite_->translate(*kw, immediate, out);
    return {proto::PrimitiveOp::kKeyWrite, &kw->key};
  }
  if (const auto* ki = std::get_if<proto::KeyIncrementReport>(&parsed.report)) {
    if (!keyincrement_) return {proto::PrimitiveOp::kKeyIncrement, nullptr};
    keyincrement_->translate(*ki, out);
    return {proto::PrimitiveOp::kKeyIncrement, &ki->key};
  }
  if (const auto* pc = std::get_if<proto::PostcardReport>(&parsed.report)) {
    if (!postcarding_) return {proto::PrimitiveOp::kPostcard, nullptr};
    postcarding_->ingest(*pc, out);
    return {proto::PrimitiveOp::kPostcard, &pc->key};
  }
  if (const auto* ap = std::get_if<proto::AppendReport>(&parsed.report)) {
    if (append_) append_->ingest(*ap, immediate, out);
    return {proto::PrimitiveOp::kAppend, nullptr};
  }
  // NACKs terminate at reporters, not translators.
  return {};
}

TranslationStats EngineSet::stats() const {
  TranslationStats out;
  if (keywrite_) {
    const auto& s = keywrite_->stats();
    out.keywrite_reports = s.reports;
    out.keywrite_writes = s.writes_emitted;
    out.truncated_values = s.truncated_values;
  }
  if (keyincrement_) {
    const auto& s = keyincrement_->stats();
    out.keyincrement_reports = s.reports;
    out.fetch_adds = s.fetch_adds_emitted;
  }
  if (postcarding_) {
    const auto& s = postcarding_->stats();
    out.postcards_in = s.postcards_in;
    out.postcard_writes = s.writes_emitted;
  }
  if (append_) {
    const auto& s = append_->stats();
    out.append_entries_in = s.entries_in;
    out.append_writes = s.writes_emitted;
    out.append_bytes_written = s.bytes_written;
    out.append_dropped_bad_list = s.dropped_bad_list;
  }
  return out;
}

const std::vector<std::uint64_t>& EngineSet::append_heads() const {
  static const std::vector<std::uint64_t> kNone;
  return append_ ? append_->emitted() : kNone;
}

}  // namespace dta::translator
