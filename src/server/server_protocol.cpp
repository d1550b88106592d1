#include "server/server_protocol.hpp"

#include <optional>
#include <utility>

#include "common/error.hpp"
#include "snapshot/snapshot.hpp"

namespace vixnoc {

namespace {

constexpr const char kBatchSection[] = "vixd_batch";
constexpr const char kStatsSection[] = "vixd_stats";
constexpr const char kShutdownSection[] = "vixd_shutdown";
constexpr const char kBatchReplySection[] = "vixd_breply";
constexpr const char kStatsReplySection[] = "vixd_dstats";
constexpr const char kByeSection[] = "vixd_bye";

/// Order-sensitive fold of a batch's per-point result keys, stamped into
/// batch request/reply containers.
std::uint64_t FoldKeys(const std::vector<std::uint64_t>& keys) {
  return Fnv1a64(keys.data(), keys.size() * sizeof(std::uint64_t));
}

std::string EncodeControl(const char* section) {
  SnapshotWriter w;
  w.BeginSection(section);
  w.EndSection();
  return w.Finish(ControlFrameFingerprint());
}

void RequireControlFingerprint(const SnapshotReader& r, const char* section) {
  VIXNOC_REQUIRE(r.fingerprint() == ControlFrameFingerprint(),
                 "'%s' frame fingerprint %016llx is not the control "
                 "fingerprint",
                 section, static_cast<unsigned long long>(r.fingerprint()));
}

/// Opens, closes (so trailing payload bytes are refused) and authenticates
/// a payload-free control section.
void ReadControl(SnapshotReader& r, const char* section) {
  r.OpenSection(section);
  r.CloseSection();
  RequireControlFingerprint(r, section);
}

}  // namespace

std::uint64_t ControlFrameFingerprint() {
  static const std::uint64_t fp = [] {
    const char tag[] = "vixd_control";
    return Fnv1a64(tag, sizeof(tag) - 1);
  }();
  return fp;
}

std::string ToString(RequestKind kind) {
  switch (kind) {
    case RequestKind::kPoint:
      return "point";
    case RequestKind::kBatch:
      return "batch";
    case RequestKind::kStats:
      return "stats";
    case RequestKind::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

std::string EncodeBatchRequest(const std::vector<NetworkSimConfig>& configs) {
  SnapshotWriter w;
  w.BeginSection(kBatchSection);
  w.U64(configs.size());
  std::vector<std::uint64_t> keys;
  keys.reserve(configs.size());
  for (const NetworkSimConfig& c : configs) {
    SaveNetworkSimConfig(w, c);
    keys.push_back(NetworkSimResultKey(c));
  }
  w.EndSection();
  return w.Finish(FoldKeys(keys));
}

std::string EncodeStatsRequest() { return EncodeControl(kStatsSection); }

std::string EncodeShutdownRequest() { return EncodeControl(kShutdownSection); }

Request DecodeRequest(const std::string& payload) {
  SnapshotReader r(payload);
  Request out;
  if (std::optional<NetworkSimConfig> config = LoadPointRequest(r)) {
    out.kind = RequestKind::kPoint;
    out.configs.push_back(std::move(*config));
    return out;
  }
  if (r.HasSection(kBatchSection)) {
    out.kind = RequestKind::kBatch;
    r.OpenSection(kBatchSection);
    const std::size_t count = r.Count(kMinEncodedConfigBytes);
    std::vector<std::uint64_t> keys;
    keys.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      out.configs.push_back(LoadNetworkSimConfig(r));
      keys.push_back(NetworkSimResultKey(out.configs.back()));
    }
    r.CloseSection();
    VIXNOC_REQUIRE(r.fingerprint() == FoldKeys(keys),
                   "batch request fingerprint does not match its configs");
    return out;
  }
  if (r.HasSection(kStatsSection)) {
    out.kind = RequestKind::kStats;
    ReadControl(r, kStatsSection);
    return out;
  }
  if (r.HasSection(kShutdownSection)) {
    out.kind = RequestKind::kShutdown;
    ReadControl(r, kShutdownSection);
    return out;
  }
  VIXNOC_REQUIRE(false, "frame is not a recognized vixnocd request");
  return out;  // unreachable
}

std::string EncodeBatchReply(const std::vector<PointReply>& replies) {
  SnapshotWriter w;
  w.BeginSection(kBatchReplySection);
  w.U64(replies.size());
  std::vector<std::uint64_t> keys;
  keys.reserve(replies.size());
  for (const PointReply& r : replies) {
    SavePointReply(w, r);
    keys.push_back(r.result_key);
  }
  w.EndSection();
  return w.Finish(FoldKeys(keys));
}

std::vector<PointReply> DecodeBatchReply(const std::string& payload) {
  SnapshotReader r(payload);
  r.OpenSection(kBatchReplySection);
  const std::size_t count = r.Count(kMinEncodedReplyBytes);
  std::vector<PointReply> out;
  std::vector<std::uint64_t> keys;
  out.reserve(count);
  keys.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(LoadPointReply(r));
    keys.push_back(out.back().result_key);
  }
  r.CloseSection();
  VIXNOC_REQUIRE(r.fingerprint() == FoldKeys(keys),
                 "batch reply container fingerprint does not match its "
                 "per-point keys");
  return out;
}

std::string EncodeStatsReply(const DaemonStats& s) {
  SnapshotWriter w;
  w.BeginSection(kStatsReplySection);
  w.U64(s.requests);
  w.U64(s.point_requests);
  w.U64(s.batch_requests);
  w.U64(s.points_served);
  w.U64(s.store_hits);
  w.U64(s.computed_points);
  w.U64(s.coalesced_points);
  w.U64(s.retry_after_replies);
  w.U64(s.error_replies);
  w.U64(s.inflight);
  w.U64(s.connections_accepted);
  w.U64(s.active_connections);
  w.U64(s.store_entries_written);
  w.U64(s.store_bytes_written);
  w.U64(s.store_defective);
  w.U64(s.store_gc_evicted);
  w.EndSection();
  return w.Finish(ControlFrameFingerprint());
}

DaemonStats DecodeStatsReply(const std::string& payload) {
  SnapshotReader r(payload);
  r.OpenSection(kStatsReplySection);
  DaemonStats s;
  s.requests = r.U64();
  s.point_requests = r.U64();
  s.batch_requests = r.U64();
  s.points_served = r.U64();
  s.store_hits = r.U64();
  s.computed_points = r.U64();
  s.coalesced_points = r.U64();
  s.retry_after_replies = r.U64();
  s.error_replies = r.U64();
  s.inflight = r.U64();
  s.connections_accepted = r.U64();
  s.active_connections = r.U64();
  s.store_entries_written = r.U64();
  s.store_bytes_written = r.U64();
  s.store_defective = r.U64();
  s.store_gc_evicted = r.U64();
  r.CloseSection();
  RequireControlFingerprint(r, kStatsReplySection);
  return s;
}

std::string EncodeShutdownReply() { return EncodeControl(kByeSection); }

void DecodeShutdownReply(const std::string& payload) {
  SnapshotReader r(payload);
  ReadControl(r, kByeSection);
}

}  // namespace vixnoc
