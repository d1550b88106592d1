// Wire protocol between vixnoc_client and the vixnocd daemon.
//
// The daemon speaks the point protocol of exec/exec_protocol.hpp — the
// same "vixd_point" request and "vixd_reply" reply, encoded by the same
// functions, that the sweep worker speaks — plus its own batch and
// control frames, defined here. Every payload is a length-prefixed
// snapshot container, and one fingerprint rule covers every frame that
// carries points: the container's fingerprint slot holds the result key
// (NetworkSimResultKey: evolution fingerprint + observation knobs), or the
// order-sensitive fold of the per-point keys for a batch. Control frames
// carry no point and are stamped with ControlFrameFingerprint.
//
//   point    := section "vixd_point"    { config }            fp = result key
//   batch    := section "vixd_batch"    { count, configs... } fp = key fold
//   stats    := section "vixd_stats"    {}                    fp = control
//   shutdown := section "vixd_shutdown" {}                    fp = control
//
//   reply(point)    := section "vixd_reply"   { status, source, retry_after,
//                                               message, key [, result] }
//   reply(batch)    := section "vixd_breply"  { count, replies... }
//   reply(stats)    := section "vixd_dstats"  { counters... }
//   reply(shutdown) := section "vixd_bye"     {}
//
// Clients verify the reply key against the config they asked about; the
// daemon verifies request payloads the same way. Configs carrying live
// factory callbacks cannot cross the socket.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exec/exec_protocol.hpp"
#include "sim/network_sim.hpp"

namespace vixnoc {

/// Container fingerprint for payload-free control frames (stats/shutdown).
std::uint64_t ControlFrameFingerprint();

enum class RequestKind : std::uint8_t {
  kPoint,
  kBatch,
  kStats,
  kShutdown,
};

std::string ToString(RequestKind kind);

/// A decoded client request. configs holds one entry for kPoint, any
/// number for kBatch, none for control kinds.
struct Request {
  RequestKind kind = RequestKind::kStats;
  std::vector<NetworkSimConfig> configs;
};

std::string EncodeBatchRequest(const std::vector<NetworkSimConfig>& configs);
std::string EncodeStatsRequest();
std::string EncodeShutdownRequest();

/// Decodes any request frame payload, validating the container fingerprint
/// against the recomputed result key(s), or against ControlFrameFingerprint
/// for control frames. Throws SimError on malformed or unrecognized
/// payloads.
Request DecodeRequest(const std::string& payload);

std::string EncodeBatchReply(const std::vector<PointReply>& replies);
std::vector<PointReply> DecodeBatchReply(const std::string& payload);

/// Daemon-side counters served by the stats request. The store_* fields
/// mirror the underlying ResultStore's own stats.
struct DaemonStats {
  std::uint64_t requests = 0;
  std::uint64_t point_requests = 0;
  std::uint64_t batch_requests = 0;
  std::uint64_t points_served = 0;
  std::uint64_t store_hits = 0;
  std::uint64_t computed_points = 0;
  std::uint64_t coalesced_points = 0;
  std::uint64_t retry_after_replies = 0;
  std::uint64_t error_replies = 0;
  std::uint64_t inflight = 0;  ///< snapshot at reply time
  std::uint64_t connections_accepted = 0;
  std::uint64_t active_connections = 0;  ///< snapshot at reply time
  std::uint64_t store_entries_written = 0;
  std::uint64_t store_bytes_written = 0;
  std::uint64_t store_defective = 0;
  std::uint64_t store_gc_evicted = 0;
};

std::string EncodeStatsReply(const DaemonStats& stats);
DaemonStats DecodeStatsReply(const std::string& payload);  ///< throws SimError

std::string EncodeShutdownReply();
/// Throws SimError when the payload is not an authentic shutdown
/// acknowledgment.
void DecodeShutdownReply(const std::string& payload);

}  // namespace vixnoc
