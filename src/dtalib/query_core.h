// Shared query-resolution core — the merge and range helpers every
// Backend resolves with.
//
// ClusterBackend (client.cc) and FabricBackend (fabric_backend.cc)
// pin different snapshot topologies, but the value
// semantics must be identical: one replica-merge per primitive, and one
// range resolver. Keeping the helpers here —
// instead of duplicating them per backend — is what lets the
// conformance kit demand byte-equality across backends: there is only
// one resolution path to be equal to.
//
// Internal namespace: these are building blocks for Backend
// implementations, not client API. Applications go through
// dta::Client's handles and query builders.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "collector/shard_index.h"
#include "dtalib/byte_view.h"
#include "dtalib/client.h"
#include "dtalib/query.h"

namespace dta::internal {

using SnapshotPtr = Backend::SnapshotPtr;

// Best-vote merge across replica snapshots (one snapshot per candidate
// host). A conflict anywhere without a hit anywhere is reported as
// kConflict — the caller can tell ambiguity from absence.
//
// This is the zero-copy core: each snapshot's vote resolves to a span
// into that snapshot's memory (no candidate is ever copied), and the
// winner comes back as a ByteView holding the winning snapshot's pin.
// merge_keywrite() is the copy mode layered on top. Like merge_counter,
// it hashes the key once (translator::key_hashes) and then runs the
// read step in each snapshot — the two steps resolve_range splits
// across a group of keys.
Expected<ByteView> merge_keywrite_view(const std::vector<SnapshotPtr>& snaps,
                                       const proto::TelemetryKey& key,
                                       const QueryOptions& opts);
Expected<common::Bytes> merge_keywrite(const std::vector<SnapshotPtr>& snaps,
                                       const proto::TelemetryKey& key,
                                       const QueryOptions& opts);

// The batch get: entry i is merge_keywrite_view(sets[i], keys[i], opts)
// where that is ok, nullopt otherwise. Keys resolve through the group
// step resolve_range runs (its resolve step below), so a batch's slot
// misses overlap instead of each vote waiting for its own.
std::vector<std::optional<ByteView>> merge_keywrite_many(
    const std::vector<std::vector<SnapshotPtr>>& sets,
    const std::vector<proto::TelemetryKey>& keys, const QueryOptions& opts);

// CMS estimate: min over the N counters within a snapshot, max across
// replica hosts (each replica is a one-sided overestimate of the same
// reports, so the max never undercounts a survivor).
Expected<std::uint64_t> merge_counter(const std::vector<SnapshotPtr>& snaps,
                                      const proto::TelemetryKey& key,
                                      const QueryOptions& opts);

// Chunk-vote path decode; replica hosts must agree (-> kConflict).
Expected<std::vector<std::uint32_t>> merge_path(
    const std::vector<SnapshotPtr>& snaps, const proto::TelemetryKey& key,
    const QueryOptions& opts);

// --- range-query core --------------------------------------------------------
// Backends share everything but snapshot topology: candidates come out
// of the per-shard secondary indexes (already generation-matched to the
// pinned snapshots), then every candidate resolves through the SAME
// vote the point-get path uses, against the SAME pinned snapshots —
// which is what makes indexed results byte-identical to a scan over the
// key catalog.

// The canonical-key invariant of proto::TelemetryKey: kOutOfRange for
// length > 16, kInvalidArgument for a nonzero byte past length. `what`
// names the field in the message. Every report key, query key and range
// bound passes through it before reaching a router or an index.
Status check_canonical_key(const char* what, const proto::TelemetryKey& key);

// Also checks each present bound (.from/.to/.after) with
// check_canonical_key.
Status range_precheck(const Backend& backend, const RangeSpec& spec,
                      const QueryOptions& opts);

// One pinned index version per (host, shard) a range query reads.
using IndexVersions =
    std::vector<std::shared_ptr<const collector::ShardIndexVersion>>;

// The range query every Backend runs, costing what it returns rather
// than what the window holds:
//   seek    — one forward cursor per index, each seeking `from` through
//             the version's fence array;
//   merge   — the cursors merged in key order, a key held by several
//             indexes (replica hosts) taken once, filtered to the
//             primitive and past an exclusive .after();
//   resolve — candidates taken 16 at a time: each key's checksum and N
//             slot hashes computed once, its slot lines prefetched in
//             every snapshot of its set, then the point-get vote run
//             over each (the step merge_keywrite_many runs too).
// The merge stops at `limit` resolved entries plus the one candidate
// past them that proves `truncated`. `sets[i]` is the snapshot set of
// every key found in `indexes[i]`: the snapshots a point get of such a
// key reads (its shard's, on each host whose reads it resolves over).
// Reports reach a shard's index by the same host and shard hashes a
// point get routes by, so the index a key sits in names its set and
// nothing is rehashed per candidate. Equal, entry for entry, to
// scan_range_candidates over collect_range_candidates with
// resolve_range_entry on the key's point-get snapshots.
RangeResult resolve_range(const IndexVersions& indexes,
                          const std::vector<std::vector<SnapshotPtr>>& sets,
                          const RangeSpec& spec, const QueryOptions& opts);

// The reference path resolve_range is held to (and the steps the
// pipeline bench times one by one):

// The sorted, deduplicated union of every index's candidates within the
// spec's bounds, filtered to the primitive the range enumerates: the
// resolver's merge run with no limit.
std::vector<proto::TelemetryKey> collect_range_candidates(
    const IndexVersions& indexes, const RangeSpec& spec);

// One candidate through the point-lookup merge. nullopt = the key is in
// the index but not in the pinned snapshots (an index generation ahead
// of the snapshot, or a checksum evicted by a collision) — range
// queries skip it, exactly like a scan would miss it.
std::optional<RangeEntry> resolve_range_entry(
    const std::vector<SnapshotPtr>& snaps, const proto::TelemetryKey& key,
    const RangeSpec& spec, const QueryOptions& opts);

// Walks the sorted candidates through `resolve` (key ->
// optional<RangeEntry>), honouring the limit: stopping with candidates
// left marks the result truncated and hands back a resume cursor.
RangeResult scan_range_candidates(
    const std::vector<proto::TelemetryKey>& candidates, std::uint64_t limit,
    const std::function<std::optional<RangeEntry>(const proto::TelemetryKey&)>&
        resolve);

}  // namespace dta::internal
