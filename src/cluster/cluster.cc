#include "src/cluster/cluster.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "src/media/sources.h"
#include "src/obs/span.h"
#include "src/util/time.h"

namespace vafs {
namespace cluster {

namespace {

// Viewer tags carry the cluster-wide viewer id into per-node traces.
std::string ViewerUser(uint64_t viewer) { return "viewer-" + std::to_string(viewer); }

// Salt separating routing-decision trace ids from the per-round id space
// (obs::RoundTraceId). One routing span tree per viewer placement.
constexpr uint64_t kRouteTraceSalt = 0x524f555445ULL;  // "ROUTE"

}  // namespace

const char* NodeStateName(NodeState state) {
  switch (state) {
    case NodeState::kUp:
      return "up";
    case NodeState::kDead:
      return "dead";
    case NodeState::kRecovering:
      return "recovering";
  }
  return "?";
}

StorageNode::StorageNode(int id, const FileSystemConfig& config)
    : id_(id), auditor_(obs::AuditorOptions{.round_time_slack = 0.05}) {
  FileSystemConfig node_config = config;
  // The coordinator admits viewers through OpenSession, so every node runs
  // the session layer; it reads per-node SLO rollups, so every node runs
  // telemetry.
  node_config.telemetry.enabled = true;
  node_config.sessions.enabled = true;
  // Node identity is woven into the node's trace/span ids, so cluster-wide
  // span streams never collide across nodes.
  node_config.telemetry.node_id = id;
  user_tee_.Add(&auditor_);
  if (config.scheduler.trace != nullptr) {
    relay_.shared = config.scheduler.trace;
    user_tee_.Add(&relay_);
  }
  node_config.scheduler.trace = &user_tee_;
  fs_ = std::make_unique<MultimediaFileSystem>(node_config);
}

void StorageNode::RunEpoch(SimTime until) {
  relay_.holding = true;
  fs_->simulator().RunUntil(until);
  relay_.holding = false;
}

void StorageNode::FlushShared() { relay_.held.FlushTo(relay_.shared); }

ClusterCoordinator::ClusterCoordinator(ClusterOptions options)
    : options_(std::move(options)),
      trace_log_(0),
      repair_tokens_(options_.repair_token_burst) {
  tee_.Add(&trace_log_);
  tee_.Add(&metrics_sink_);
  tee_.Add(&auditor_);
  if (options_.trace != nullptr) {
    tee_.Add(options_.trace);
  }
  if (options_.node_config.scheduler.worker_pool == nullptr) {
    // One pool for the whole cluster; the node epoch tasks run on it.
    owned_pool_ = std::make_unique<WorkerPool>(WorkerPool::WorkersFromEnv());
    options_.node_config.scheduler.worker_pool = owned_pool_.get();
  }
  const int count = std::max(options_.nodes, 1);
  nodes_.reserve(static_cast<size_t>(count));
  for (int id = 0; id < count; ++id) {
    nodes_.push_back(std::make_unique<StorageNode>(id, options_.node_config));
  }
  routed_load_.assign(static_cast<size_t>(count), 0);
}

SimTime ClusterCoordinator::EpochUsec() const { return SecondsToUsec(options_.epoch_sec); }

SimTime ClusterCoordinator::BoundUsec() const {
  return static_cast<SimTime>(std::max<int64_t>(options_.failover_bound_epochs, 1)) * EpochUsec();
}

void ClusterCoordinator::Emit(obs::TraceEvent event) {
  event.time = now_;
  tee_.OnEvent(event);
}

Status ClusterCoordinator::AddTitle(int64_t title, uint64_t seed, double duration_sec, bool hot) {
  if (titles_.find(title) != titles_.end()) {
    return Status(ErrorCode::kAlreadyExists,
                  "title " + std::to_string(title) + " already placed");
  }
  if (duration_sec <= 0.0) {
    return Status(ErrorCode::kInvalidArgument, "title duration must be positive");
  }
  Title entry;
  entry.seed = seed;
  entry.duration_sec = duration_sec;
  entry.hot = hot;
  entry.target_replicas =
      std::clamp<int64_t>(hot ? options_.hot_replicas : options_.cold_replicas, 1,
                          static_cast<int64_t>(nodes_.size()));
  Title& placed = titles_[title] = entry;

  // Replicas land on the nodes hosting the fewest replicas today (ties to
  // the lowest id), so the library spreads evenly and hot titles never
  // double up on one node.
  std::vector<int64_t> hosted(nodes_.size(), 0);
  for (const auto& [id, existing] : titles_) {
    for (const auto& [node_id, rope] : existing.replicas) {
      ++hosted[static_cast<size_t>(node_id)];
    }
  }
  for (int64_t r = 0; r < placed.target_replicas; ++r) {
    int best = -1;
    for (int id = 0; id < static_cast<int>(nodes_.size()); ++id) {
      if (nodes_[static_cast<size_t>(id)]->state() != NodeState::kUp ||
          placed.replicas.find(id) != placed.replicas.end()) {
        continue;
      }
      if (best < 0 || hosted[static_cast<size_t>(id)] < hosted[static_cast<size_t>(best)]) {
        best = id;
      }
    }
    if (best < 0) {
      break;  // fewer up nodes than the replication target
    }
    if (Status recorded = RecordReplica(&placed, best); !recorded.ok()) {
      return recorded;
    }
    ++hosted[static_cast<size_t>(best)];
  }
  if (placed.replicas.empty()) {
    titles_.erase(title);
    return Status(ErrorCode::kNoSpace, "no up node could host the title");
  }
  return Status::Ok();
}

Status ClusterCoordinator::RecordReplica(Title* title, int node_id) {
  MultimediaFileSystem& fs = nodes_[static_cast<size_t>(node_id)]->fs();
  VideoSource source(options_.media, title->seed);
  Result<MultimediaFileSystem::RecordResult> recorded =
      fs.Record("cluster", &source, nullptr, title->duration_sec);
  if (!recorded.ok()) {
    return recorded.status();
  }
  title->replicas[node_id] = recorded->rope;
  if (title->blocks == 0) {
    Result<const Rope*> rope = fs.rope_server().Find(recorded->rope);
    if (rope.ok()) {
      const Track& track = (*rope)->TrackFor(Medium::kVideo);
      const int64_t granularity = std::max<int64_t>(track.granularity, 1);
      title->blocks = (track.TotalUnits() + granularity - 1) / granularity;
    }
    title->blocks = std::max<int64_t>(title->blocks, 1);
    title->block_sec = title->duration_sec / static_cast<double>(title->blocks);
  }
  return Status::Ok();
}

Result<RopeId> ClusterCoordinator::ReplicaRope(int64_t title, int node_id) const {
  const auto title_it = titles_.find(title);
  if (title_it == titles_.end()) {
    return Status(ErrorCode::kNotFound, "unknown title " + std::to_string(title));
  }
  const auto replica = title_it->second.replicas.find(node_id);
  if (replica == title_it->second.replicas.end()) {
    return Status(ErrorCode::kNotFound, "node " + std::to_string(node_id) +
                                            " holds no replica of title " + std::to_string(title));
  }
  return replica->second;
}

int64_t ClusterCoordinator::LiveReplicas(int64_t title) const {
  const auto title_it = titles_.find(title);
  if (title_it == titles_.end()) {
    return 0;
  }
  int64_t live = 0;
  for (const auto& [node_id, rope] : title_it->second.replicas) {
    if (nodes_[static_cast<size_t>(node_id)]->state() == NodeState::kUp) {
      ++live;
    }
  }
  return live;
}

Status ClusterCoordinator::CheckpointAll() {
  for (const std::unique_ptr<StorageNode>& node : nodes_) {
    if (node->state() != NodeState::kUp) {
      continue;
    }
    if (Status committed = node->fs().Checkpoint(); !committed.ok()) {
      return committed;
    }
  }
  return Status::Ok();
}

std::vector<int> ClusterCoordinator::RouteCandidates(const Title& title) const {
  std::vector<int> candidates;
  for (const auto& [node_id, rope] : title.replicas) {
    if (nodes_[static_cast<size_t>(node_id)]->state() == NodeState::kUp) {
      candidates.push_back(node_id);
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(), [this](int a, int b) {
    const int64_t load_a = routed_load_[static_cast<size_t>(a)];
    const int64_t load_b = routed_load_[static_cast<size_t>(b)];
    return load_a != load_b ? load_a < load_b : a < b;
  });
  return candidates;
}

void ClusterCoordinator::Run(const std::vector<sim::WorkloadArrival>& arrivals,
                             const std::vector<sim::WorkloadOptions::NodeFailure>& failures,
                             double until_sec) {
  size_t next_death = deaths_.size();
  for (const sim::WorkloadOptions::NodeFailure& failure : failures) {
    if (failure.node < 0 || failure.node >= static_cast<int64_t>(nodes_.size())) {
      continue;
    }
    Death death;
    death.node = static_cast<int>(failure.node);
    death.kill_sec = failure.time_sec;
    death.restart_sec =
        failure.restart_after_sec < 0.0 ? -1.0 : failure.time_sec + failure.restart_after_sec;
    deaths_.push_back(death);
  }
  std::stable_sort(deaths_.begin() + static_cast<int64_t>(next_death), deaths_.end(),
                   [](const Death& a, const Death& b) {
                     return a.kill_sec != b.kill_sec ? a.kill_sec < b.kill_sec : a.node < b.node;
                   });

  size_t next_arrival = 0;
  const SimTime until = SecondsToUsec(until_sec);
  while (now_ < until) {
    RunWindow(arrivals, &next_arrival, &next_death);
    now_ += EpochUsec();
    ProcessBoundary();
  }
}

void ClusterCoordinator::RunWindow(const std::vector<sim::WorkloadArrival>& arrivals,
                                   size_t* next_arrival, size_t* next_death) {
  const SimTime window_end = now_ + EpochUsec();
  const double window_end_sec = static_cast<double>(window_end) / 1e6;

  // Kills land at their exact instant inside the window: the node's disk
  // stops answering mid-round and its streams degrade to skip-on-time
  // until the coordinator notices at the boundary.
  while (*next_death < deaths_.size() && deaths_[*next_death].kill_sec < window_end_sec) {
    const Death& death = deaths_[*next_death];
    ++*next_death;
    StorageNode* node = nodes_[static_cast<size_t>(death.node)].get();
    Disk* disk = &node->fs().disk();
    node->fs().simulator().ScheduleAt(SecondsToUsec(death.kill_sec),
                                      [disk]() { disk->set_failed(true); });
  }

  // Arrivals are routed at the window start (deterministic view of node
  // state) and admitted at their exact arrival instant on the owner.
  const size_t first_new = viewers_.size();
  while (*next_arrival < arrivals.size() &&
         arrivals[*next_arrival].time_sec < window_end_sec) {
    const sim::WorkloadArrival& arrival = arrivals[*next_arrival];
    ++*next_arrival;
    ViewerRecord viewer;
    viewer.id = next_viewer_++;
    viewer.priority = static_cast<int64_t>(viewer.id);
    viewer.title = arrival.title;
    viewers_.push_back(viewer);
    ViewerRecord& record = viewers_.back();

    const auto title_it = titles_.find(arrival.title);
    if (title_it == titles_.end()) {
      record.state = ViewerRecord::State::kRejected;
      continue;
    }
    const std::vector<int> candidates = RouteCandidates(title_it->second);
    if (candidates.empty()) {
      record.state = ViewerRecord::State::kRejected;  // every replica is down
      continue;
    }
    const int node_id = candidates.front();
    ++routed_load_[static_cast<size_t>(node_id)];
    if (options_.node_config.telemetry.spans) {
      // Routing decision as a root span: the viewer's journey starts here,
      // before the chosen node's round spans pick the stream up.
      obs::TraceEvent route;
      route.kind = obs::TraceEventKind::kSpan;
      route.trace_id = obs::MixIds(kRouteTraceSalt, record.id);
      route.span_id = obs::RootSpanId(route.trace_id);
      route.span_stage = static_cast<int64_t>(obs::SpanStage::kRoute);
      route.node = node_id;
      route.session = record.id;
      route.detail = "arrival";
      Emit(route);
    }
    record.node = node_id;
    record.state = ViewerRecord::State::kPending;
    record.start_sec = 0.0;
    record.duration_sec = title_it->second.duration_sec;
    record.end_sec = title_it->second.duration_sec;

    StorageNode* node = nodes_[static_cast<size_t>(node_id)].get();
    const RopeId rope = title_it->second.replicas.at(node_id);
    const double duration = title_it->second.duration_sec;
    // The callback runs inside the node's epoch task, so it writes only its
    // own record (viewers_ does not grow while tasks run).
    const size_t index = viewers_.size() - 1;
    node->fs().simulator().ScheduleAt(
        SecondsToUsec(arrival.time_sec), [this, node, rope, duration, index]() {
          ViewerRecord& pending = viewers_[index];
          Result<SessionTicket> ticket = node->fs().OpenSession(
              ViewerUser(pending.id), rope, Medium::kVideo, TimeInterval{0.0, duration});
          if (ticket.ok()) {
            pending.ticket = *ticket;
            pending.state = ViewerRecord::State::kViewing;
            pending.open_sec = static_cast<double>(node->fs().simulator().Now()) / 1e6;
          } else {
            pending.state = ViewerRecord::State::kRejected;
          }
        });
  }

  // Between boundaries the nodes share nothing: one task per node, joined
  // here. A one-worker pool runs them inline in node order.
  std::vector<WorkerPool::Task> tasks;
  tasks.reserve(nodes_.size());
  for (const std::unique_ptr<StorageNode>& node : nodes_) {
    StorageNode* target = node.get();
    tasks.push_back([target, window_end] { target->RunEpoch(window_end); });
  }
  options_.node_config.scheduler.worker_pool->RunAll(std::move(tasks));

  // Barrier passed: the shared sink sees the node streams in node order,
  // exactly as a sequential advance would have emitted them.
  for (const std::unique_ptr<StorageNode>& node : nodes_) {
    node->FlushShared();
  }
  for (size_t i = first_new; i < viewers_.size(); ++i) {
    if (viewers_[i].state == ViewerRecord::State::kViewing) {
      ++census_.admitted;
    } else if (viewers_[i].state == ViewerRecord::State::kRejected) {
      ++census_.rejected;
    }
  }
}

void ClusterCoordinator::ProcessBoundary() {
  for (Death& death : deaths_) {
    if (!death.detected && SecondsToUsec(death.kill_sec) <= now_) {
      DetectDeath(&death);
    }
  }
  TryFailovers();
  for (Death& death : deaths_) {
    if (death.detected && !death.restarted && death.restart_sec >= 0.0 &&
        SecondsToUsec(death.restart_sec) <= now_) {
      TryRestart(&death);
    }
    if (death.restarted && !death.reconciled) {
      ReconcileStep(&death);
    }
  }
  RunRepairs();
  SweepFinished();
}

void ClusterCoordinator::DetectDeath(Death* death) {
  death->detected = true;
  StorageNode* node = nodes_[static_cast<size_t>(death->node)].get();
  if (node->state() != NodeState::kUp) {
    return;  // killed again while already down
  }
  node->set_state(NodeState::kDead);
  ++census_.nodes_killed;
  node->fs().disk().set_failed(true);  // the exact-time event already fired

  // Classify every viewer the coordinator routed there BEFORE fencing:
  // riders share their leader's request, and once the first Stop() retires
  // it the others would misread the stopped stream as a completed one.
  int64_t orphaned = 0;
  std::vector<ViewerRecord*> fenced;
  for (ViewerRecord& viewer : viewers_) {
    if (viewer.node != death->node || viewer.state != ViewerRecord::State::kViewing) {
      continue;
    }
    fenced.push_back(&viewer);
    Result<RequestStats> stats = node->fs().Stats(viewer.ticket.request);
    const double playhead = viewer.start_sec + (NowSec() - viewer.open_sec);
    if ((stats.ok() && stats->completed) || playhead >= viewer.end_sec) {
      viewer.state = ViewerRecord::State::kFinished;
      ++census_.finished;
      continue;
    }
    viewer.state = ViewerRecord::State::kPending;
    viewer.kill_sec = death->kill_sec;
    pending_failover_.push_back(viewer.id);
    ++orphaned;
  }
  for (ViewerRecord* viewer : fenced) {
    if (viewer->ticket.patch_request != 0) {
      (void)node->fs().Stop(viewer->ticket.patch_request);
    }
    (void)node->fs().Stop(viewer->ticket.request);  // shared leaders: first stop wins
  }

  // Every title with a replica on the dead node is now (possibly) under
  // its target; repair decides against live counts when tokens allow.
  for (const auto& [title_id, title] : titles_) {
    if (title.replicas.find(death->node) == title.replicas.end()) {
      continue;
    }
    if (std::find(repair_queue_.begin(), repair_queue_.end(), title_id) == repair_queue_.end()) {
      repair_queue_.push_back(title_id);
    }
  }

  obs::TraceEvent event;
  event.kind = obs::TraceEventKind::kNodeDown;
  event.node = death->node;
  event.blocks = orphaned;
  event.detail = "node " + std::to_string(death->node) + " declared dead; " +
                 std::to_string(orphaned) + " viewers to fail over";
  Emit(event);
}

void ClusterCoordinator::TryFailovers() {
  if (pending_failover_.empty()) {
    return;
  }
  // Highest priority (earliest arrival) first: when survivors cannot
  // absorb everyone, the viewers left to shed are the lowest-priority.
  std::sort(pending_failover_.begin(), pending_failover_.end());
  std::vector<uint64_t> still_pending;
  for (const uint64_t viewer_id : pending_failover_) {
    ViewerRecord& viewer = viewers_[static_cast<size_t>(viewer_id - 1)];
    if (viewer.state != ViewerRecord::State::kPending) {
      continue;
    }
    const Title& title = titles_.at(viewer.title);
    // The playback clock kept running through the outage (the dead node
    // skipped on time); resume at the playhead, not where the disk died.
    const double playhead = viewer.start_sec + (NowSec() - viewer.open_sec);
    if (playhead >= viewer.end_sec - 0.5 * title.block_sec) {
      viewer.state = ViewerRecord::State::kFinished;  // window ran out
      ++census_.finished;
      continue;
    }
    bool resumed = false;
    for (const int node_id : RouteCandidates(title)) {
      StorageNode* node = nodes_[static_cast<size_t>(node_id)].get();
      Result<SessionTicket> ticket =
          node->fs().OpenSession(ViewerUser(viewer.id), title.replicas.at(node_id),
                                 Medium::kVideo, TimeInterval{playhead, viewer.end_sec - playhead});
      if (!ticket.ok()) {
        continue;  // this survivor's Eq. 17 budget is full; try the next
      }
      const int from = viewer.node;
      viewer.node = node_id;
      viewer.ticket = *ticket;
      viewer.open_sec = NowSec();
      viewer.start_sec = playhead;
      viewer.duration_sec = viewer.end_sec - playhead;
      viewer.state = ViewerRecord::State::kViewing;
      if (viewer.failovers++ == 0) {
        ++census_.failed_over;
      }
      ++routed_load_[static_cast<size_t>(node_id)];
      if (options_.node_config.telemetry.spans) {
        // Re-routing decision: a child of the viewer's original routing
        // span, ordinal = how many times this viewer has moved.
        obs::TraceEvent route;
        route.kind = obs::TraceEventKind::kSpan;
        route.trace_id = obs::MixIds(kRouteTraceSalt, viewer.id);
        route.span_id = obs::ChildSpanId(obs::RootSpanId(route.trace_id), obs::SpanStage::kRoute,
                                         static_cast<uint64_t>(viewer.failovers));
        route.parent_span = obs::RootSpanId(route.trace_id);
        route.span_stage = static_cast<int64_t>(obs::SpanStage::kRoute);
        route.node = node_id;
        route.session = viewer.id;
        route.detail = "failover";
        Emit(route);
      }
      obs::TraceEvent event;
      event.kind = obs::TraceEventKind::kFailover;
      event.node = node_id;
      event.session = viewer.id;
      event.request = ticket->request;
      event.duration = now_ - SecondsToUsec(viewer.kill_sec);
      event.round_budget = BoundUsec();
      event.detail = "viewer " + std::to_string(viewer.id) + " resumed on node " +
                     std::to_string(node_id) + " (from node " + std::to_string(from) +
                     ") at t=" + std::to_string(playhead) + "s";
      Emit(event);
      resumed = true;
      break;
    }
    if (resumed) {
      continue;
    }
    // No survivor had room. Retry at the next boundary only if that
    // attempt can still land inside the stamped bound; otherwise shed
    // explicitly now — a viewer never dies silently.
    if (now_ + EpochUsec() - SecondsToUsec(viewer.kill_sec) > BoundUsec()) {
      viewer.state = ViewerRecord::State::kShed;
      ++census_.shed;
      obs::TraceEvent event;
      event.kind = obs::TraceEventKind::kShedLoad;
      event.node = viewer.node;
      event.session = viewer.id;
      event.round_budget = BoundUsec();
      event.detail = "viewer " + std::to_string(viewer.id) +
                     " shed: no survivor capacity within the failover bound";
      Emit(event);
    } else {
      still_pending.push_back(viewer_id);
    }
  }
  pending_failover_ = std::move(still_pending);
}

void ClusterCoordinator::TryRestart(Death* death) {
  death->restarted = true;
  StorageNode* node = nodes_[static_cast<size_t>(death->node)].get();
  node->fs().disk().set_failed(false);
  if (Status recovered = node->fs().Recover(); !recovered.ok()) {
    // Unrecoverable image: the node stays dead and repair re-replicates
    // around it.
    death->reconciled = true;
    return;
  }
  // Journal replayed; walk the catalog before readmitting the node.
  node->set_state(NodeState::kRecovering);
}

void ClusterCoordinator::ReconcileStep(Death* death) {
  StorageNode* node = nodes_[static_cast<size_t>(death->node)].get();
  if (node->state() != NodeState::kRecovering) {
    death->reconciled = true;
    return;
  }
  // The coordinator's title map iterates in recording order; each epoch
  // verifies the next slice of the node's replicas against its recovered
  // catalog, so readmission cost is bounded per epoch.
  int64_t walked = 0;
  int64_t cursor = 0;
  for (auto it = titles_.begin();
       it != titles_.end() && walked < options_.reconcile_titles_per_epoch; ++it, ++cursor) {
    if (cursor < death->reconcile_cursor) {
      continue;
    }
    death->reconcile_cursor = cursor + 1;
    ++walked;
    Title& title = it->second;
    const auto replica = title.replicas.find(death->node);
    if (replica == title.replicas.end()) {
      continue;
    }
    bool verified = false;
    Result<const Rope*> rope = node->fs().rope_server().Find(replica->second);
    if (rope.ok()) {
      const Track& track = (*rope)->TrackFor(Medium::kVideo);
      verified = !track.empty() && track.rate > 0.0 &&
                 std::abs(track.DurationSec() - title.duration_sec) <=
                     title.block_sec + 1e-9;
    }
    if (verified) {
      ++death->verified;
    } else {
      // The recovered image cannot substantiate this replica: drop it and
      // let background repair restore the count.
      title.replicas.erase(replica);
      ++death->dropped;
      if (std::find(repair_queue_.begin(), repair_queue_.end(), it->first) ==
          repair_queue_.end()) {
        repair_queue_.push_back(it->first);
      }
    }
  }
  if (death->reconcile_cursor < static_cast<int64_t>(titles_.size())) {
    return;  // more slices next epoch
  }
  death->reconciled = true;
  node->set_state(NodeState::kUp);
  ++census_.nodes_restarted;
  obs::TraceEvent event;
  event.kind = obs::TraceEventKind::kNodeUp;
  event.node = death->node;
  event.blocks = death->verified;
  event.detail = "node " + std::to_string(death->node) + " readmitted: " +
                 std::to_string(death->verified) + " replicas verified, " +
                 std::to_string(death->dropped) + " dropped to repair";
  Emit(event);
}

void ClusterCoordinator::RunRepairs() {
  repair_tokens_ = std::min(options_.repair_token_burst,
                            repair_tokens_ + options_.repair_tokens_per_epoch);
  while (!repair_queue_.empty()) {
    const int64_t title_id = repair_queue_.front();
    Title& title = titles_.at(title_id);
    int64_t live = 0;
    for (const auto& [node_id, rope] : title.replicas) {
      if (nodes_[static_cast<size_t>(node_id)]->state() == NodeState::kUp) {
        ++live;
      }
    }
    if (live >= title.target_replicas) {
      repair_queue_.pop_front();  // a restart brought the replica back
      repair_progress_ = 0;
      continue;
    }
    // Target: the up node not already holding the title with the fewest
    // hosted replicas (ties to the lowest id).
    std::vector<int64_t> hosted(nodes_.size(), 0);
    for (const auto& [id, existing] : titles_) {
      for (const auto& [node_id, rope] : existing.replicas) {
        ++hosted[static_cast<size_t>(node_id)];
      }
    }
    int target = -1;
    for (int id = 0; id < static_cast<int>(nodes_.size()); ++id) {
      if (nodes_[static_cast<size_t>(id)]->state() != NodeState::kUp ||
          title.replicas.find(id) != title.replicas.end()) {
        continue;
      }
      if (target < 0 || hosted[static_cast<size_t>(id)] < hosted[static_cast<size_t>(target)]) {
        target = id;
      }
    }
    if (target < 0) {
      break;  // no survivor can host it; retry after a restart
    }
    // Pay the copy down block by block from the bucket: a title larger
    // than one epoch's repair bandwidth completes over several epochs, so
    // recovery traffic per round stays bounded and never eats a live
    // stream's round budget.
    const int64_t paid = std::min(title.blocks - repair_progress_, repair_tokens_);
    repair_tokens_ -= paid;
    repair_progress_ += paid;
    if (repair_progress_ < title.blocks) {
      break;  // bucket drained: resume paying at the next boundary
    }
    repair_progress_ = 0;
    // The copy itself is a deterministic re-record of the seeded source.
    if (Status copied = RecordReplica(&title, target); !copied.ok()) {
      ++census_.repair_failures;
      repair_queue_.pop_front();
      continue;
    }
    ++census_.re_replications;
    census_.repair_blocks += title.blocks;
    obs::TraceEvent event;
    event.kind = obs::TraceEventKind::kReReplicate;
    event.node = target;
    event.blocks = title.blocks;
    event.detail = "title " + std::to_string(title_id) + " re-replicated to node " +
                   std::to_string(target) + " (" + std::to_string(live + 1) + "/" +
                   std::to_string(title.target_replicas) + " live)";
    Emit(event);
    if (live + 1 >= title.target_replicas) {
      repair_queue_.pop_front();
    }
  }
}

void ClusterCoordinator::SweepFinished() {
  std::fill(routed_load_.begin(), routed_load_.end(), 0);
  for (ViewerRecord& viewer : viewers_) {
    if (viewer.state != ViewerRecord::State::kViewing) {
      continue;
    }
    StorageNode* node = nodes_[static_cast<size_t>(viewer.node)].get();
    Result<RequestStats> stats = node->fs().Stats(viewer.ticket.request);
    const bool stream_done = stats.ok() && stats->completed;
    // Degraded riders deliver a prefix and fall silent; their playback
    // window still expires on the clock.
    const bool window_over = NowSec() >= viewer.open_sec + viewer.duration_sec + options_.epoch_sec;
    if (stream_done || window_over || !stats.ok()) {
      viewer.state = ViewerRecord::State::kFinished;
      ++census_.finished;
      continue;
    }
    ++routed_load_[static_cast<size_t>(viewer.node)];
  }
}

bool ClusterCoordinator::AuditsClean() const {
  if (!auditor_.Clean()) {
    return false;
  }
  for (const std::unique_ptr<StorageNode>& node : nodes_) {
    if (!node->auditor().Clean()) {
      return false;
    }
  }
  return true;
}

std::string ClusterCoordinator::AuditReport() const {
  std::string report;
  if (!auditor_.Clean()) {
    report += "cluster:\n" + auditor_.Report();
  }
  for (const std::unique_ptr<StorageNode>& node : nodes_) {
    if (!node->auditor().Clean()) {
      report += "node " + std::to_string(node->id()) + ":\n" + node->auditor().Report();
    }
  }
  return report.empty() ? "clean" : report;
}

std::string ClusterCoordinator::ClusterSloJson() const {
  std::string json = "{\"version\":1,\"kind\":\"vafs.slo.cluster\",\"nodes\":[";
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (i > 0) {
      json += ",";
    }
    json += "{\"node\":" + std::to_string(nodes_[i]->id()) + ",\"state\":\"" +
            NodeStateName(nodes_[i]->state()) + "\",\"slo\":" +
            nodes_[i]->fs().SloSnapshot().ToJson();
    const obs::CriticalPathAnalyzer* critical_path = nodes_[i]->fs().critical_path();
    if (critical_path != nullptr && !critical_path->rounds().empty()) {
      json += ",\"critical_path\":{\"rounds\":" + std::to_string(critical_path->rounds().size()) +
              ",\"anomalies\":" + std::to_string(critical_path->anomalies()) + "}";
    }
    json += "}";
  }
  json += "]}";
  return json;
}

std::string ClusterCoordinator::Signature() const {
  std::string signature;
  for (const obs::TraceEvent& event : trace_log_.events()) {
    signature += obs::TraceEventSummary(event);
    signature += '\n';
  }
  for (const std::unique_ptr<StorageNode>& node : nodes_) {
    const obs::SloReport report = node->fs().SloSnapshot();
    signature += "node " + std::to_string(node->id()) + ": state=" +
                 NodeStateName(node->state()) + " rounds=" + std::to_string(report.rounds_total) +
                 " streams=" + std::to_string(report.streams.size()) + "\n";
  }
  for (const ViewerRecord& viewer : viewers_) {
    signature += "viewer " + std::to_string(viewer.id) + ": title=" +
                 std::to_string(viewer.title) + " node=" + std::to_string(viewer.node) +
                 " state=" + std::to_string(static_cast<int>(viewer.state)) +
                 " failovers=" + std::to_string(viewer.failovers) + "\n";
  }
  signature += "census admitted=" + std::to_string(census_.admitted) +
               " rejected=" + std::to_string(census_.rejected) +
               " finished=" + std::to_string(census_.finished) +
               " failed_over=" + std::to_string(census_.failed_over) +
               " shed=" + std::to_string(census_.shed) +
               " repairs=" + std::to_string(census_.re_replications) + "\n";
  return signature;
}

}  // namespace cluster
}  // namespace vafs
