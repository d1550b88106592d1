// The point protocol: the one codec for "simulate this config" and "here
// is its result", spoken by the SweepCoordinator to vixnoc_sweep_worker
// (over the worker's stdin/stdout) and by vixnoc_client to the vixnocd
// daemon (over a Unix socket, server/server_protocol.hpp).
//
// Every frame payload is a snapshot container (snapshot/snapshot.hpp) —
// magic, version and per-section checksums come for free, so a torn or
// corrupted frame is detected by the normal SnapshotReader validation —
// and the container's fingerprint slot carries NetworkSimResultKey of the
// point in both directions: the receiver of a request recomputes the key
// from the decoded config, and the receiver of a reply compares it with
// the key of the config it asked about.
//
//   frame   := length u64 LE, payload bytes (a snapshot container)
//   request := section "vixd_point" { config }
//              [+ section "exec" { index u64, attempt u32 }]   fp = key
//   reply   := section "vixd_reply" { status, source, retry_after,
//                                     message, key [, result] } fp = key
//
// The optional "exec" section carries the coordinator's dispatch metadata
// for the worker's failure-injection hooks; the daemon never opens it.
//
// Framing I/O is deliberately non-throwing on the read side: every way a
// frame can fail to arrive (clean EOF at a frame boundary, a short frame
// from a dying worker, a wall-clock deadline, an I/O error) is a
// *classification input* for the coordinator, not an exception.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "sim/network_sim.hpp"

namespace vixnoc {

class SnapshotReader;
class SnapshotWriter;

/// Serializes every wire-transportable NetworkSimConfig field. Throws
/// SimError when the config cannot cross a process boundary: a
/// topology_factory or routing_factory is a live std::function and has no
/// serialized form (the coordinator runs such points in-process instead).
void SaveNetworkSimConfig(SnapshotWriter& w, const NetworkSimConfig& c);
NetworkSimConfig LoadNetworkSimConfig(SnapshotReader& r);

/// Lower bound on SaveNetworkSimConfig's output: its fixed-width fields
/// alone take ~260 bytes. Decoders bound a config count with it.
inline constexpr std::size_t kMinEncodedConfigBytes = 256;

/// Dispatch metadata of a worker's point request, read only by the
/// worker's VIXNOC_TEST_*_POINT hooks: the point's submission index and
/// its subprocess attempt (0 = the first), so a "crash on attempts < n"
/// hook can exercise retry-then-succeed paths.
struct ExecTag {
  std::uint64_t index = 0;
  std::uint32_t attempt = 0;
};

/// Encodes a point request; `tag`, when given, rides in the "exec"
/// section. Throws SimError for a config that cannot cross a process
/// boundary (see SaveNetworkSimConfig).
std::string EncodePointRequest(const NetworkSimConfig& config,
                               const ExecTag* tag = nullptr);
/// Reads the point request held by `r`, or nullopt when `r` holds another
/// frame kind. Throws SimError on a malformed config or a container
/// fingerprint that is not the config's result key. `tag`, when given,
/// receives the "exec" section (zeroed when the request carries none).
std::optional<NetworkSimConfig> LoadPointRequest(SnapshotReader& r,
                                                 ExecTag* tag = nullptr);

/// How a served point was satisfied.
enum class ServeStatus : std::uint8_t {
  kOk,          ///< result holds the point's NetworkSimResult
  kRetryAfter,  ///< daemon at capacity (or draining); retry after the hint
  kError,       ///< invalid request; message explains
};

enum class ServeSource : std::uint8_t {
  kNone,       ///< not served (retry-after / error)
  kStore,      ///< hit in the content-addressed result store
  kComputed,   ///< this request triggered the simulation
  kCoalesced,  ///< joined another request's in-flight simulation
};

std::string ToString(ServeStatus status);
std::string ToString(ServeSource source);

struct PointReply {
  ServeStatus status = ServeStatus::kError;
  ServeSource source = ServeSource::kNone;
  double retry_after_seconds = 0.0;
  std::string message;
  /// NetworkSimResultKey of the config this reply answers; receivers
  /// verify it against their own recomputation.
  std::uint64_t result_key = 0;
  NetworkSimResult result;  ///< valid only when status == kOk
};

/// One reply record without its container, for frames that carry many
/// (the daemon's batch reply).
void SavePointReply(SnapshotWriter& w, const PointReply& reply);
PointReply LoadPointReply(SnapshotReader& r);

/// Lower bound on SavePointReply's output (a reply without a result).
inline constexpr std::size_t kMinEncodedReplyBytes = 1 + 1 + 8 + 8 + 8 + 1;

std::string EncodePointReply(const PointReply& reply);
PointReply DecodePointReply(const std::string& payload);  ///< throws SimError

/// Is this payload a point reply (vs another frame kind)? Lets a client
/// surface a daemon-side decode error (sent as an error PointReply) for
/// any request kind.
bool IsPointReply(const std::string& payload);

/// Outcome of reading one frame from a file descriptor.
struct FrameRead {
  enum class Status {
    kOk,       ///< payload holds a complete frame
    kEof,      ///< clean end-of-stream at a frame boundary
    kShort,    ///< stream ended mid-frame (worker died while writing)
    kTimeout,  ///< deadline expired before the frame completed
    kError,    ///< hard I/O error (detail holds errno text)
  };
  Status status = Status::kError;
  std::string payload;
  std::string detail;  ///< human-readable cause for non-kOk statuses
};

/// Reads one length-prefixed frame. `timeout_seconds` bounds the wall
/// clock for the *whole* frame (negative = block forever); the fd does not
/// need to be non-blocking — readiness is polled before every read.
FrameRead ReadFrame(int fd, double timeout_seconds);

/// Writes one length-prefixed frame, retrying short writes. Returns false
/// on failure (e.g. EPIPE from a dead peer) with `*error` describing why.
/// Callers must have SIGPIPE blocked (BlockSigpipe) or ignored so a dead
/// peer surfaces as EPIPE instead of killing the process.
bool WriteFrame(int fd, const std::string& payload, std::string* error);

/// Blocks SIGPIPE on the calling thread (WriteFrame's precondition).
void BlockSigpipe();

/// Hard upper bound on an accepted frame payload (a garbage length prefix
/// must not drive a multi-gigabyte allocation).
inline constexpr std::uint64_t kMaxFrameBytes = 1ull << 30;

}  // namespace vixnoc
