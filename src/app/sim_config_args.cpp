#include "app/sim_config_args.hpp"

#include <cstdio>
#include <utility>

#include "common/types.hpp"
#include "routing/registry.hpp"
#include "store/result_store.hpp"
#include "traffic/patterns.hpp"

namespace vixnoc {

bool SimConfigFromArgs(const ArgMap& args, NetworkSimConfig* config) {
  if (!ParseTopologyKind(args.GetString("topology", "mesh"),
                         &config->topology) ||
      !ParseAllocScheme(args.GetString("scheme", "vix"), &config->scheme) ||
      !ParsePatternKind(args.GetString("pattern", "uniform"),
                        &config->pattern)) {
    std::fprintf(stderr, "unrecognized topology/scheme/pattern name\n");
    return false;
  }
  config->routing = args.GetString("routing", "dor");
  if (!IsRegisteredRouting(config->routing)) {
    std::fprintf(stderr, "routing=%s is not a registered plugin (%s)\n",
                 config->routing.c_str(),
                 RegisteredRoutingNamesJoined().c_str());
    return false;
  }
  config->hotspot_node =
      static_cast<NodeId>(args.GetInt("hotspot", kInvalidNode));
  config->incast_fanin = static_cast<int>(args.GetInt("fanin", 0));
  config->num_vcs = static_cast<int>(args.GetInt("vcs", 6));
  config->buffer_depth = static_cast<int>(args.GetInt("depth", 5));
  config->packet_size = static_cast<int>(args.GetInt("packet", 4));
  config->injection_rate = args.GetDouble("rate", 0.1);
  config->seed = static_cast<std::uint64_t>(args.GetInt("seed", 1));
  config->warmup = static_cast<Cycle>(args.GetInt("warmup", 5'000));
  config->measure = static_cast<Cycle>(args.GetInt("measure", 15'000));
  config->drain = static_cast<Cycle>(args.GetInt("drain", 2'000));
  config->pipeline_stages = static_cast<int>(args.GetInt("pipeline", 3));
  return true;
}

std::vector<NetworkSimConfig> RateGrid(NetworkSimConfig config) {
  std::vector<NetworkSimConfig> points;
  for (double rate = 0.02; rate <= config.MaxInjectionRate() + 1e-9;
       rate += 0.01) {
    config.injection_rate = rate;
    points.push_back(config);
  }
  return points;
}

bool SweepOptionsFromArgs(ArgMap& args, SweepOptions* options) {
  options->threads = static_cast<int>(args.GetInt("threads", 0));
  options->checkpoint = args.GetString("checkpoint", "");
  const std::string isolate = args.GetString("isolate", "thread");
  options->point_timeout = args.GetDouble("point_timeout", 0.0);
  options->retries = static_cast<int>(args.GetInt("retries", 2));
  options->server = args.GetString("server", "");
  if (isolate != "thread" && isolate != "process") {
    std::fprintf(stderr, "isolate=%s is not 'thread' or 'process'\n",
                 isolate.c_str());
    return false;
  }
  options->isolate_process = isolate == "process";
  if (options->threads < 0 || options->retries < 0 ||
      options->point_timeout < 0) {
    std::fprintf(stderr,
                 "threads=, retries= and point_timeout= must not be "
                 "negative\n");
    return false;
  }
  if (!options->server.empty() &&
      (!options->checkpoint.empty() || options->isolate_process)) {
    std::fprintf(stderr,
                 "server= is mutually exclusive with checkpoint= and "
                 "isolate=process (the daemon owns its own store)\n");
    return false;
  }
  return true;
}

SweepExecutor::SweepExecutor(const SweepOptions& options,
                             double connect_timeout_seconds)
    : options_(options) {
  if (!options_.server.empty()) {
    client_ = std::make_unique<SimClient>(options_.server,
                                          connect_timeout_seconds);
    return;
  }
  std::shared_ptr<ResultStore> store;
  if (!options_.checkpoint.empty()) {
    store = std::make_shared<ResultStore>(options_.checkpoint);
  }
  if (options_.isolate_process) {
    ExecPolicy policy;
    policy.num_workers = options_.threads;
    policy.point_timeout_seconds = options_.point_timeout;
    policy.max_retries = options_.retries;
    policy.cache = std::move(store);
    coordinator_ = std::make_unique<SweepCoordinator>(std::move(policy));
  } else {
    runner_ = std::make_unique<SweepRunner>(options_.threads);
    runner_->SetCache(std::move(store));
  }
}

int SweepExecutor::threads() const {
  if (runner_ != nullptr) return runner_->num_threads();
  if (coordinator_ != nullptr) return coordinator_->policy().num_workers;
  return options_.threads;
}

SweepExecResult SweepExecutor::Run(
    const std::vector<NetworkSimConfig>& points) {
  if (coordinator_ != nullptr) return coordinator_->Run(points);
  SweepExecResult out;
  if (runner_ != nullptr) {
    out.results = runner_->Run(points);
    RecordRunnerSources(*runner_, &out);
    return out;
  }
  out.results.resize(points.size());
  out.points.resize(points.size());
  std::vector<PointReply> replies = client_->Batch(points);
  for (std::size_t i = 0; i < points.size(); ++i) {
    // Daemon-at-capacity slots are re-asked individually with the
    // daemon's own backoff hint.
    while (replies[i].status == ServeStatus::kRetryAfter &&
           out.retries < 10'000) {  // else: daemon permanently saturated
      ++out.retries;
      replies[i] = client_->PointWithRetry(points[i]);
    }
    PointReply& reply = replies[i];
    ExecStatus& st = out.points[i];
    if (reply.status != ServeStatus::kOk) {
      ++out.exhausted_points;
      st.failure_detail = reply.message;
      out.results[i].outcome.status = SimStatus::kExecFailure;
      out.results[i].outcome.message = "daemon: " + reply.message;
      continue;
    }
    out.results[i] = std::move(reply.result);
    st.from_cache = reply.source == ServeSource::kStore;
    st.deduped = reply.source == ServeSource::kCoalesced;
    out.cached_points += st.from_cache;
    out.deduped_points += st.deduped;
  }
  return out;
}

}  // namespace vixnoc
