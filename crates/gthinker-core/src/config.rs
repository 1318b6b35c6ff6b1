//! Job configuration and result/statistics types.

use crate::metrics::MetricsSnapshot;
use gthinker_graph::ids::WorkerId;
use gthinker_net::fault::FaultConfig;
use gthinker_net::router::LinkConfig;
use gthinker_store::cache::{CacheConfig, CacheSnapshot};
use std::path::PathBuf;
use std::time::Duration;

/// Configuration for one G-thinker job.
#[derive(Clone, Debug)]
pub struct JobConfig {
    /// Number of simulated worker machines.
    pub num_workers: usize,
    /// Comper (mining) threads per worker.
    pub compers_per_worker: usize,
    /// Network model between workers.
    pub link: LinkConfig,
    /// Remote-vertex cache configuration (`c_cache`, `α`, buckets, δ).
    pub cache: CacheConfig,
    /// Task-batch size `C` (paper default 150). `Q_task` holds `3C`.
    pub task_batch: usize,
    /// Gate `D` on `|T_task| + |B_task|` as a multiple of `C` (paper:
    /// `D = 8C` → factor 8).
    pub pending_factor: usize,
    /// Vertex pull requests per network message.
    pub request_batch: usize,
    /// Aggregator / progress synchronization period (paper default 1 s;
    /// the simulator defaults lower so short jobs still sync).
    pub sync_interval: Duration,
    /// Directory for spilled task batches (a per-job subdirectory is
    /// created inside).
    pub spill_dir: PathBuf,
    /// Enable work stealing between workers.
    pub work_stealing: bool,
    /// Enable intra-worker stealing: an idle comper refilling its
    /// `Q_task` may take the newest half of the largest sibling queue
    /// (between spilled files and fresh spawns in the refill priority).
    pub intra_steal: bool,
    /// Threads per worker serving inbound `VertexRequest` traffic, so
    /// adjacency-list cloning overlaps with response installation on
    /// the receiver thread. Clamped to at least 1.
    pub responders_per_worker: usize,
    /// Suspend the job (writing a checkpoint) after this long; used by
    /// the fault-tolerance path and tests.
    pub suspend_after: Option<Duration>,
    /// Directory checkpoints are written to when suspending.
    pub checkpoint_dir: Option<PathBuf>,
    /// When set, `ComputeEnv::emit` streams records to one
    /// `part-<worker>.out` file per worker in this directory (the
    /// paper's workers commit outputs to HDFS).
    pub output_dir: Option<PathBuf>,
    /// Capacity of each worker's scheduler/cache event ring (events
    /// kept, overwrite-oldest). 0 — the default — disables event
    /// recording entirely; the CLI sets it when `--trace-out` is given.
    pub trace_capacity: usize,
    /// Fault injection on the simulated interconnect (drops, dups,
    /// reorder jitter, latency spikes, scheduled crashes). Disabled by
    /// default; the chaos tests turn it on.
    pub fault: FaultConfig,
    /// Checkpoint cadence for `run_job_with_recovery`: the job suspends
    /// and writes an epoch this often. `None` (the default) means no
    /// periodic checkpoints — recovery falls back to rerunning from
    /// scratch.
    pub checkpoint_interval: Option<Duration>,
    /// How long the master waits without hearing from a worker before
    /// declaring it crashed (`JobOutcome::Failed`). `None` — the
    /// default — disables detection; `run_job_with_recovery` enables it
    /// (as does an armed crash schedule, so a killed worker cannot hang
    /// the job).
    pub heartbeat_timeout: Option<Duration>,
    /// Straggler splitting: when set, a task's `compute()` loop yields
    /// after this many extension steps (iterations that asked to
    /// proceed), re-enqueueing the task's remaining subtree so other
    /// compers — or remote thieves — can pick it up. UDFs can also read
    /// the budget via `ComputeEnv::compute_budget` to split their own
    /// search-tree state into fresh tasks. `None` (the default) never
    /// preempts a task.
    pub compute_budget: Option<u64>,
    /// Cluster telemetry streaming: when set, every worker pushes a
    /// compact metrics snapshot (no events) to the master this often,
    /// feeding the master's live cluster view (`--status`, the
    /// Prometheus exposition endpoint). `None` — the default — sends
    /// only the final end-of-job report on multi-worker runs, so the
    /// hot path is unchanged.
    pub report_interval: Option<Duration>,
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig {
            num_workers: 1,
            compers_per_worker: std::thread::available_parallelism().map_or(4, |n| n.get().min(8)),
            link: LinkConfig::INSTANT,
            cache: CacheConfig::default(),
            task_batch: gthinker_task::queue::DEFAULT_BATCH,
            pending_factor: 8,
            request_batch: gthinker_net::batch::DEFAULT_REQUEST_BATCH,
            sync_interval: Duration::from_millis(20),
            spill_dir: std::env::temp_dir().join("gthinker-spill"),
            work_stealing: true,
            intra_steal: true,
            responders_per_worker: 2,
            suspend_after: None,
            checkpoint_dir: None,
            output_dir: None,
            trace_capacity: 0,
            fault: FaultConfig::default(),
            checkpoint_interval: None,
            heartbeat_timeout: None,
            compute_budget: None,
            report_interval: None,
        }
    }
}

impl JobConfig {
    /// Convenience: a single-machine job with `compers` threads.
    pub fn single_machine(compers: usize) -> Self {
        JobConfig { num_workers: 1, compers_per_worker: compers, ..Default::default() }
    }

    /// Convenience: a simulated cluster of `workers` × `compers` with a
    /// GigE-like interconnect.
    pub fn cluster(workers: usize, compers: usize) -> Self {
        JobConfig {
            num_workers: workers,
            compers_per_worker: compers,
            link: LinkConfig::gige(),
            ..Default::default()
        }
    }

    /// The pending gate `D = pending_factor × C`.
    pub fn pending_limit(&self) -> usize {
        self.pending_factor * self.task_batch
    }
}

/// Per-worker statistics gathered during a job.
#[derive(Clone, Debug, Default)]
pub struct WorkerStats {
    /// Tasks whose `compute()` finished (returned `false`).
    pub tasks_finished: u64,
    /// Total `compute()` invocations (iterations).
    pub compute_calls: u64,
    /// Cache statistics (hits, shared waits, misses, evictions, GC
    /// passes) as a named snapshot.
    pub cache: CacheSnapshot,
    /// Bytes sent over the simulated network.
    pub net_bytes_sent: u64,
    /// Bytes received.
    pub net_bytes_received: u64,
    /// Bytes of task batches spilled to disk.
    pub spill_bytes: u64,
    /// Peak observed memory estimate (local table + cache + in-memory
    /// task subgraphs), in bytes.
    pub peak_mem_bytes: u64,
    /// Total time compers spent idle (no task to run), summed across
    /// compers.
    pub idle_time: Duration,
    /// Total time compers spent inside `compute()`.
    pub compute_time: Duration,
    /// Records emitted to this worker's output sink.
    pub output_records: u64,
    /// Intra-worker steal operations performed by this worker's compers.
    pub steals: u64,
    /// Tasks moved by intra-worker steals.
    pub stolen_tasks: u64,
    /// Times a comper parked on the scheduler event count.
    pub parks: u64,
    /// Parks that ended in an event wakeup rather than the fallback
    /// timeout.
    pub wakeups: u64,
    /// Vertices served to remote pull requests by the responder pool.
    pub responses_served: u64,
    /// Responder queue depth at job end (request batches dispatched but
    /// not yet served). A true gauge — 0 on a clean completion, since
    /// responders drain fully before the worker's threads join.
    pub responder_backlog: u64,
    /// Peak responder queue depth (request batches awaiting service).
    pub responder_peak_backlog: u64,
    /// Vertex pulls re-requested after their R-table deadline expired
    /// (loss tolerance; equals the cache's `retries` counter).
    pub pull_retries: u64,
    /// Cluster-wide steal batches this worker shipped to a remote thief
    /// (master-brokered; counted once per sealed batch at the victim).
    pub remote_steals: u64,
    /// Tasks moved off this worker by cluster-wide steals.
    pub remote_stolen_tasks: u64,
    /// Framed bytes of steal batches sent (resends counted again, since
    /// they really cross the wire again).
    pub steal_batch_bytes: u64,
    /// Times a task voluntarily yielded mid-compute: framework budget
    /// preemptions plus UDF `note_split` events.
    pub yields: u64,
    /// Tasks created by splitting: 1 per framework re-enqueue, `n` per
    /// UDF split that fanned a straggler into `n` fresh tasks.
    pub split_tasks: u64,
    /// Data-plane messages the fault-injected wire dropped on this
    /// worker's sends (0 with fault injection off).
    pub net_msgs_dropped: u64,
    /// Data-plane messages the fault-injected wire duplicated.
    pub net_msgs_duplicated: u64,
    /// Data-plane messages the fault-injected wire delayed (reorder
    /// jitter or latency spike).
    pub net_msgs_delayed: u64,
    /// Trace events lost to the event ring's overwrite-oldest
    /// recycling. Nonzero means the exported timeline is truncated —
    /// raise `trace_capacity` to keep more.
    pub trace_events_dropped: u64,
    /// Recovery rounds this worker's process went through (crash of any
    /// peer → abort-to-checkpoint → resume). 0 on a fault-free run.
    pub recoveries: u64,
    /// Transport-level peer-death events this worker's endpoint
    /// observed (socket EOF/reset surfaced as `PeerDown`). Always 0 on
    /// the sim backend.
    pub peer_down_events: u64,
    /// Times this worker's process re-joined an existing TCP mesh with
    /// a bumped generation (i.e. it was respawned after a crash).
    pub rejoins: u64,
    /// Checkpoint epoch the final (successful) attempt resumed from, or
    /// -1 when it started fresh.
    pub resumed_epoch: i64,
}

/// Why a job returned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobOutcome {
    /// Ran to completion; the aggregate is final.
    Completed,
    /// Suspended after `suspend_after`; a checkpoint was written and
    /// the job can be resumed with `resume_job`.
    Suspended {
        /// Checkpoint directory.
        checkpoint: PathBuf,
    },
    /// A worker stopped responding (crashed) and the master's heartbeat
    /// timeout fired; partial results are unreliable and the job should
    /// be rerun from the latest checkpoint (`run_job_with_recovery`
    /// does this automatically).
    Failed {
        /// The worker that went silent.
        worker: WorkerId,
    },
}

/// The result of a job.
#[derive(Clone, Debug)]
pub struct JobResult<G> {
    /// Final (or at-suspension) global aggregate.
    pub global: G,
    /// Wall-clock runtime.
    pub elapsed: Duration,
    /// Completion or suspension.
    pub outcome: JobOutcome,
    /// Per-worker statistics.
    pub workers: Vec<WorkerStats>,
    /// Full end-of-run metrics: per-comper latency histograms, named
    /// counters and (when `trace_capacity > 0`) the event timelines.
    /// Empty histograms when the `metrics` feature is disabled.
    pub metrics: MetricsSnapshot,
}

impl<G> JobResult<G> {
    /// Maximum per-worker peak memory (the paper's "peak VM memory,
    /// maximum over machines").
    pub fn peak_mem_bytes(&self) -> u64 {
        self.workers.iter().map(|w| w.peak_mem_bytes).max().unwrap_or(0)
    }

    /// Total network bytes sent by all workers.
    pub fn total_net_bytes(&self) -> u64 {
        self.workers.iter().map(|w| w.net_bytes_sent).sum()
    }

    /// Total tasks finished across workers.
    pub fn total_tasks(&self) -> u64 {
        self.workers.iter().map(|w| w.tasks_finished).sum()
    }

    /// Total bytes ever spilled to disk (the paper reports this as
    /// negligible).
    pub fn total_spill_bytes(&self) -> u64 {
        self.workers.iter().map(|w| w.spill_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_paper() {
        let c = JobConfig::default();
        assert_eq!(c.task_batch, 150);
        assert_eq!(c.pending_limit(), 1200, "D = 8C");
        assert_eq!(c.cache.capacity, 2_000_000);
        assert!((c.cache.alpha - 0.2).abs() < 1e-9);
        assert!(c.intra_steal, "intra-worker stealing is on by default");
        assert!(c.responders_per_worker >= 1);
    }

    #[test]
    fn cluster_config_uses_latency() {
        let c = JobConfig::cluster(4, 2);
        assert_eq!(c.num_workers, 4);
        assert_eq!(c.compers_per_worker, 2);
        assert!(!c.link.is_instant());
        let s = JobConfig::single_machine(3);
        assert!(s.link.is_instant());
    }

    #[test]
    fn result_accessors_aggregate_worker_stats() {
        let r = JobResult {
            global: (),
            elapsed: Duration::ZERO,
            outcome: JobOutcome::Completed,
            workers: vec![
                WorkerStats {
                    peak_mem_bytes: 10,
                    net_bytes_sent: 5,
                    tasks_finished: 2,
                    ..Default::default()
                },
                WorkerStats {
                    peak_mem_bytes: 30,
                    net_bytes_sent: 7,
                    tasks_finished: 3,
                    ..Default::default()
                },
            ],
            metrics: MetricsSnapshot::default(),
        };
        assert_eq!(r.peak_mem_bytes(), 30);
        assert_eq!(r.total_net_bytes(), 12);
        assert_eq!(r.total_tasks(), 5);
    }
}
