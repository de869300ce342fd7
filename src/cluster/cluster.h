// Fault-tolerant scale-out: vaFS sharded across storage nodes.
//
// One MultimediaFileSystem is one spindle's worth of service: its Eq. 17
// ceiling caps admitted streams no matter how popular the library gets.
// This module scales that out the way a video server farm would: every
// StorageNode owns a full vaFS stack (disk, admission, scheduler, session
// layer, journal, telemetry), and a ClusterCoordinator places titles
// across nodes, routes viewers to replica holders, and — the robustness
// headline — keeps viewers alive through node loss:
//
//  - PLACEMENT: hot titles (the Zipf head a flash crowd will point at)
//    are recorded on `hot_replicas` nodes, cold titles on `cold_replicas`,
//    spread to the least-loaded nodes. Replication is by deterministic
//    re-record: every title is a seeded synthetic source, so each replica
//    is regenerated bit-identically rather than copied over a network we
//    do not model.
//  - ROUTING: a viewer goes to the up replica holder with the fewest
//    routed viewers (ties to the lowest node id), and is admitted there
//    through the node's own session layer — batching and patching against
//    that node's other viewers, under that node's Eq. 17 budget.
//  - FAILOVER: the coordinator advances all nodes in lockstep epochs.
//    A node killed mid-epoch keeps "serving" until the next epoch
//    boundary — its streams degrade to skip-on-time against the failed
//    disk (PR 2 fault semantics) — where the coordinator declares it dead
//    (kNodeDown), fences its requests, and re-admits its viewers on
//    surviving replicas at their playback position (the session layer's
//    mid-title start_block path). Re-admission is attempted highest
//    priority first at each boundary while the interruption still fits
//    the stamped bound of `failover_bound_epochs` epochs; a viewer no
//    surviving node can absorb inside the bound is explicitly shed
//    (kShedLoad) — never silently dropped. Every kFailover event stamps
//    its realized interruption and the bound, and the cluster's
//    ContinuityAuditor flags any failover that exceeded it.
//  - REPAIR: titles that lost a replica queue for background
//    re-replication, paid for from a token bucket refilled with
//    `repair_tokens_per_epoch` blocks each epoch — repair traffic is
//    bounded per epoch and runs off the round path, so it never eats a
//    live stream's Eq. 11 budget.
//  - RESTART: a killed node with a scheduled restart powers back up,
//    replays its own intent journal through MultimediaFileSystem::
//    Recover() (PR 3 machinery, per node), and the coordinator walks its
//    catalog title-by-title in recording order, dropping replicas the
//    recovered image cannot substantiate, before readmitting the node
//    (kNodeUp) to the routing tables.
//
// Parallel epochs and determinism: between two boundaries the nodes share
// nothing, so each epoch runs as one WorkerPool task per node, joined at
// the boundary. A task touches only its own node: its simulator, its
// viewers' ViewerRecords and a private buffer standing in for the shared
// template sink (node_config.scheduler.trace). After the join the
// coordinator flushes those buffers in node order, counts the window's
// admissions, and makes every cross-node decision on its own thread in
// fixed node order. The shared sink therefore sees the sequential event
// stream byte for byte, and a seeded cluster run (arrivals + failure
// schedule) replays identically for any worker count. Node epochs are the
// pool's only caller: nothing a node runs inside its task (rounds,
// checkpoints, recovery) calls into the pool, so a task never waits on the
// barrier it runs under.

#ifndef VAFS_SRC_CLUSTER_CLUSTER_H_
#define VAFS_SRC_CLUSTER_CLUSTER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/media/media.h"
#include "src/obs/auditor.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/workload.h"
#include "src/util/worker_pool.h"
#include "src/vafs/file_system.h"

namespace vafs {
namespace cluster {

struct ClusterOptions {
  int nodes = 1;
  // Per-node stack template; each node gets its own copy. The session
  // layer is forced on because routing admits through OpenSession;
  // telemetry is forced on only for the per-node SLO rollups.
  // Its scheduler.worker_pool runs the per-node epoch tasks and is shared
  // by every node; when null, the coordinator builds one pool from
  // VAFS_WORKERS. Its scheduler.trace is shared by every node too, and
  // receives the node event streams in node order.
  FileSystemConfig node_config;
  // Profile of every clustered title (titles are seeded synthetic video).
  MediaProfile media;
  // Coordinator control-loop period. Failure detection, failover,
  // restart reconciliation and repair all happen at epoch boundaries.
  double epoch_sec = 0.25;
  int64_t hot_replicas = 2;
  int64_t cold_replicas = 1;
  // A failed-over viewer must resume within this many epochs of its
  // node's death; the bound is stamped on every kFailover event and
  // checked by the cluster auditor.
  int64_t failover_bound_epochs = 2;
  // Repair token bucket: blocks of re-replication bandwidth granted per
  // epoch, and the bucket's burst capacity.
  int64_t repair_tokens_per_epoch = 64;
  int64_t repair_token_burst = 512;
  // A restarted node reconciles its recovered catalog against the
  // coordinator's this many titles per epoch (kRecovering); it rejoins
  // the routing tables only once the walk completes.
  int64_t reconcile_titles_per_epoch = 8;
  // Optional extra sink on the cluster event tee (alongside the owned
  // log, auditor and metrics fold). Must outlive the coordinator.
  obs::TraceSink* trace = nullptr;
};

// Node lifecycle: kUp --kill--> kDead --journal replay--> kRecovering
// --catalog reconciled--> kUp. (A network partition is modeled the same
// as a kill: the node is fenced and its viewers failed over; on heal its
// intact catalog reconciles clean and it rejoins. The disk keeps its
// platters either way.)
enum class NodeState { kUp, kDead, kRecovering };

const char* NodeStateName(NodeState state);

// One vaFS stack plus its cluster-side lifecycle state. The node owns a
// strict ContinuityAuditor riding its telemetry tee, so every node's
// round trace is checked independently.
class StorageNode {
 public:
  StorageNode(int id, const FileSystemConfig& config);
  // Epoch tasks and the node's tee hold its address.
  StorageNode(const StorageNode&) = delete;
  StorageNode& operator=(const StorageNode&) = delete;

  int id() const { return id_; }
  NodeState state() const { return state_; }
  void set_state(NodeState state) { state_ = state; }
  MultimediaFileSystem& fs() { return *fs_; }
  const MultimediaFileSystem& fs() const { return *fs_; }
  obs::ContinuityAuditor& auditor() { return auditor_; }
  const obs::ContinuityAuditor& auditor() const { return auditor_; }

  // Advances the node's simulator to `until` (one epoch task). What the
  // node forwards to the shared template sink meanwhile is held in a
  // private buffer, so concurrent tasks never touch the shared sink.
  void RunEpoch(SimTime until);
  // Replays the held events into the shared sink (coordinator thread,
  // after the join).
  void FlushShared();

 private:
  // Forwards to the shared template sink, or into `held` while an epoch
  // task runs.
  struct SharedRelay : obs::TraceSink {
    void OnEvent(const obs::TraceEvent& event) override {
      if (holding) {
        held.OnEvent(event);
      } else {
        shared->OnEvent(event);
      }
    }
    obs::TraceSink* shared = nullptr;
    obs::BufferedTraceSink held;
    bool holding = false;
  };

  int id_;
  NodeState state_ = NodeState::kUp;
  obs::ContinuityAuditor auditor_;
  SharedRelay relay_;
  obs::TeeSink user_tee_;  // auditor + relay to the template-supplied sink
  std::unique_ptr<MultimediaFileSystem> fs_;
};

// One admitted viewer's life across the cluster.
struct ViewerRecord {
  enum class State {
    kViewing,   // admitted, stream live on `node`
    kFinished,  // playback window ran out (possibly with a degraded tail)
    kPending,   // node died; awaiting a failover slot within the bound
    kShed,      // no survivor could absorb it inside the bound
    kRejected,  // admission refused at arrival (no slot, or no replica up)
  };
  uint64_t id = 0;
  int64_t title = 0;
  int node = -1;
  // Arrival order doubles as priority: earlier viewers are failed over
  // first and shed last.
  int64_t priority = 0;
  double open_sec = 0.0;      // when the current stream was admitted
  double start_sec = 0.0;     // title position the current stream begins at
  double duration_sec = 0.0;  // remaining playback of the current stream
  double end_sec = 0.0;       // title position playback completes at
  SessionTicket ticket;
  State state = State::kViewing;
  double kill_sec = -1.0;  // when its node died with the stream live
  int failovers = 0;       // times this viewer resumed on another node
};

// Cluster-lifetime rollup, for benches and vafs_top.
struct ClusterCensus {
  int64_t admitted = 0;
  int64_t rejected = 0;
  int64_t finished = 0;
  int64_t failed_over = 0;  // viewers that resumed on a replica (>= once)
  int64_t shed = 0;
  int64_t nodes_killed = 0;
  int64_t nodes_restarted = 0;
  int64_t re_replications = 0;
  int64_t repair_blocks = 0;
  int64_t repair_failures = 0;
};

class ClusterCoordinator {
 public:
  explicit ClusterCoordinator(ClusterOptions options);

  // RECORD routing: places `title` on hot_replicas (hot) or cold_replicas
  // (cold) least-loaded nodes and records the seeded source on each.
  Status AddTitle(int64_t title, uint64_t seed, double duration_sec, bool hot);

  // Commits every node's catalog (image + fresh journal generation).
  Status CheckpointAll();

  // Drives the cluster to `until_sec` in lockstep epochs, feeding the
  // arrival trace (each arrival is one viewer of its title, full length)
  // and the failure schedule. May be called repeatedly to extend a run.
  void Run(const std::vector<sim::WorkloadArrival>& arrivals,
           const std::vector<sim::WorkloadOptions::NodeFailure>& failures, double until_sec);

  int nodes() const { return static_cast<int>(nodes_.size()); }
  StorageNode& node(int id) { return *nodes_[static_cast<size_t>(id)]; }
  const StorageNode& node(int id) const { return *nodes_[static_cast<size_t>(id)]; }

  const std::vector<ViewerRecord>& viewers() const { return viewers_; }
  // The rope id `title` carries on `node_id` (kNotFound when that node
  // holds no replica).
  Result<RopeId> ReplicaRope(int64_t title, int node_id) const;
  // Replicas of `title` currently on up nodes.
  int64_t LiveReplicas(int64_t title) const;
  const ClusterCensus& census() const { return census_; }
  const ClusterOptions& options() const { return options_; }

  // Cluster-level telemetry (node events, failovers, repair).
  obs::TraceLog& trace_log() { return trace_log_; }
  obs::MetricsRegistry& metrics() { return metrics_; }
  // True when the cluster auditor and every node's auditor are clean.
  bool AuditsClean() const;
  std::string AuditReport() const;

  // Per-node SLO rollup: {"version":1,"kind":"vafs.slo.cluster",
  // "nodes":[{"node":..,"state":..,"slo":<SloReport>},..]} — the shape
  // tools/check_slo.py accepts alongside flat single-node reports.
  std::string ClusterSloJson() const;

  // Determinism digest: every cluster event plus per-node and per-viewer
  // end state. Two runs of one seed must produce identical signatures for
  // any VAFS_WORKERS.
  std::string Signature() const;

 private:
  struct Title {
    uint64_t seed = 0;
    double duration_sec = 0.0;
    bool hot = false;
    int64_t target_replicas = 1;
    int64_t blocks = 0;      // video blocks (repair cost per replica)
    double block_sec = 0.0;  // playback time of one block
    std::map<int, RopeId> replicas;  // node id -> that node's rope
  };
  struct Death {
    int node = -1;
    double kill_sec = 0.0;
    double restart_sec = -1.0;  // < 0: stays dead
    bool detected = false;
    bool restarted = false;   // journal replayed; reconcile walk running
    bool reconciled = false;  // walk done; node readmitted (kNodeUp)
    int64_t reconcile_cursor = 0;  // titles walked so far
    int64_t verified = 0;
    int64_t dropped = 0;
  };

  SimTime EpochUsec() const;
  SimTime BoundUsec() const;
  double NowSec() const { return static_cast<double>(now_) / 1e6; }
  void Emit(obs::TraceEvent event);
  // Up replica holders of `title`, least-routed-load first (ties by id).
  std::vector<int> RouteCandidates(const Title& title) const;
  Status RecordReplica(Title* title, int node_id);
  // One control-loop boundary at now_: detect deaths, fail over, restart
  // and reconcile, repair, sweep finished viewers.
  void ProcessBoundary();
  void DetectDeath(Death* death);
  void TryFailovers();
  void TryRestart(Death* death);
  // Verifies up to reconcile_titles_per_epoch of the restarted node's
  // replicas per boundary; readmits the node when the walk completes.
  void ReconcileStep(Death* death);
  void RunRepairs();
  void SweepFinished();
  // Schedules arrivals and kills landing in [now_, now_ + epoch) on their
  // nodes' simulators, advances every node to the window end (one pool
  // task per node), then flushes the nodes' held shared-sink events in
  // node order and counts the window's admissions.
  void RunWindow(const std::vector<sim::WorkloadArrival>& arrivals, size_t* next_arrival,
                 size_t* next_death);

  // The pool the node epochs run on: node_config.scheduler.worker_pool,
  // or owned_pool_ when the embedder supplied none. Declared before nodes_
  // so it outlives them.
  std::unique_ptr<WorkerPool> owned_pool_;
  ClusterOptions options_;
  obs::TraceLog trace_log_;
  obs::MetricsRegistry metrics_;
  obs::MetricsSink metrics_sink_{&metrics_};
  obs::ContinuityAuditor auditor_;
  obs::TeeSink tee_;
  std::vector<std::unique_ptr<StorageNode>> nodes_;
  std::map<int64_t, Title> titles_;
  std::vector<ViewerRecord> viewers_;
  std::vector<Death> deaths_;  // every death ever scheduled (stable order)
  std::vector<uint64_t> pending_failover_;  // viewer ids awaiting a slot
  std::deque<int64_t> repair_queue_;        // titles under their target
  std::vector<int64_t> routed_load_;        // per node: viewers routed there
  ClusterCensus census_;
  int64_t repair_tokens_ = 0;
  int64_t repair_progress_ = 0;  // blocks already paid toward the queue head
  uint64_t next_viewer_ = 1;
  SimTime now_ = 0;  // last processed epoch boundary
};

}  // namespace cluster
}  // namespace vafs

#endif  // VAFS_SRC_CLUSTER_CLUSTER_H_
