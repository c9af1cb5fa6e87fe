#include "translator/append_engine.h"

#include <cassert>

namespace dta::translator {

AppendGeometry AppendGeometry::from_advert(const rdma::RegionAdvert& advert) {
  AppendGeometry g;
  g.base_va = advert.base_va;
  g.rkey = advert.rkey;
  g.entry_bytes = advert.param1;
  g.entries_per_list = advert.param2 & 0xFFFFFFFFull;
  g.num_lists = static_cast<std::uint32_t>(advert.param2 >> 32);
  return g;
}

AppendEngine::AppendEngine(AppendGeometry geometry, std::uint32_t batch_size)
    : geometry_(geometry),
      batch_size_(batch_size == 0 ? 1 : batch_size),
      lists_(geometry.num_lists),
      emitted_(geometry.num_lists, 0) {
  assert(geometry_.entries_per_list % batch_size_ == 0 &&
         "list length must be a multiple of the batch size");
}

void AppendEngine::emit_batch(std::uint32_t list, ListState& st,
                              bool immediate, std::vector<RdmaOp>& out) {
  if (st.batched == 0) return;

  RdmaOp op;
  op.kind = RdmaOp::Kind::kWrite;
  op.remote_va =
      geometry_.list_base(list) + st.head_entry * geometry_.entry_bytes;
  op.rkey = geometry_.rkey;
  op.payload.assign(st.batch.begin(), st.batch.end());
  if (immediate) op.immediate = list;
  stats_.bytes_written += op.payload.size();
  out.push_back(std::move(op));
  ++stats_.writes_emitted;

  emitted_[list] += st.batched;
  st.head_entry += st.batched;
  if (st.head_entry >= geometry_.entries_per_list) st.head_entry = 0;
  // The register keeps its block for the next batch.
  st.batch.clear();
  st.batched = 0;
}

void AppendEngine::ingest(const proto::AppendReport& report, bool immediate,
                          std::vector<RdmaOp>& out) {
  if (report.list_id >= geometry_.num_lists ||
      report.entry_size != geometry_.entry_bytes) {
    stats_.dropped_bad_list += report.entries.size();
    return;
  }
  ListState& st = lists_[report.list_id];

  for (const auto& entry : report.entries) {
    ++stats_.entries_in;
    st.batch.insert(st.batch.end(), entry.begin(), entry.end());
    st.batch.resize((st.batched + 1) * geometry_.entry_bytes, 0);
    ++st.batched;
    // Also emit at the ring end: after a flush emitted a short batch the
    // head is no longer batch-aligned, and a full batch from there would
    // cross into the next list.
    if (st.batched == batch_size_ ||
        st.head_entry + st.batched == geometry_.entries_per_list) {
      emit_batch(report.list_id, st, immediate, out);
    }
  }
}

void AppendEngine::flush_all(std::vector<RdmaOp>& out) {
  for (std::uint32_t list = 0; list < lists_.size(); ++list) {
    emit_batch(list, lists_[list], /*immediate=*/false, out);
  }
}

}  // namespace dta::translator
