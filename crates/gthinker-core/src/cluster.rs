//! Multi-process job execution over the TCP backend.
//!
//! [`run_worker_process`] (and its plain shorthand
//! [`run_worker_process_source_on`]) is the per-process counterpart of
//! [`crate::job::run_job`]: every OS process in the cluster calls it
//! with the **same** graph, config and [`ClusterManifest`], plus its own
//! worker ID. Each process loads and trims the graph, hash-partitions
//! it identically (the partitioner is deterministic), keeps only its
//! own partition, joins the TCP rendezvous, and then runs the exact
//! same worker main loop the sim backend runs — master logic included
//! on worker 0. When the master's termination protocol fires, its
//! Terminate broadcast shuts every process down gracefully.
//!
//! Differences from the in-process runner, by design:
//!
//! * The master's [`JobResult::workers`] holds only **its own**
//!   [`WorkerStats`] — remote stats live in the remote processes, which
//!   each get theirs back as [`ClusterRole::Worker`]. The master's
//!   [`JobResult::metrics`], however, covers the **whole cluster**:
//!   every process ships a final `MetricsReport` (sealed snapshot with
//!   its event ring) over the control plane just before its final
//!   aggregator sync, and the master splices the reports — remote event
//!   timelines shifted onto its own clock by each worker's ping/pong
//!   offset estimate — into one cluster-wide snapshot.
//! * `config.link` is ignored: the real network provides the latency.
//! * Fault injection is fully supported: drops/dups/delays are seeded
//!   identically on every process by [`gthinker_net::FaultConfig`], and
//!   a crash schedule *really kills the process* (`process::abort`) at
//!   the same logical trigger the sim backend uses.
//!
//! # Crash recovery ([`run_worker_process`] with [`RecoveryOptions`])
//!
//! The recovery runner wraps the per-process job in an attempt loop —
//! the multi-process counterpart of [`crate::job::run_job_with_recovery`]:
//!
//! 1. Every process rendezvouses through a **persistent**
//!    [`MeshAcceptor`], so a later re-rendezvous reuses the same
//!    listener; a respawned worker dials in with a **bumped generation**
//!    and survivors accept the rejoin (stale-generation hellos are
//!    rejected at the socket).
//! 2. The master broadcasts a [`Message::Resume`] decision right after
//!    each rendezvous: whether to resume, from which validated epoch,
//!    and the authoritative attempt number (which names the next
//!    epoch's checkpoint directory on the shared filesystem — the
//!    paper's HDFS analog, [`JobConfig::checkpoint_dir`]).
//! 3. The job runs one segment (bounded by `checkpoint_interval`).
//!    Worker death is detected event-style — a closed socket surfaces
//!    as `PeerDown` at the master — with the heartbeat window as the
//!    backstop; the master then broadcasts `Abort`, every survivor
//!    shuts down cleanly and loops back to step 1, waiting (bounded by
//!    `connect_timeout`, with backoff on refused dials) for the
//!    replacement to join.

use crate::api::App;
use crate::checkpoint::{self, Manifest};
use crate::config::{JobConfig, JobOutcome, JobResult, WorkerStats};
use crate::job::GraphSource;
use crate::job::{
    build_locals, build_worker, new_job_dir, restore_shard, worker_main, Global, Partial,
    RecoveryReport, WorkerOutcome, DEFAULT_HEARTBEAT,
};
use crate::metrics::{ClusterTelemetry, MetricsRegistry, MetricsSnapshot};
use gthinker_graph::ids::WorkerId;
use gthinker_graph::partition::HashPartitioner;
use gthinker_net::message::Message;
use gthinker_net::tcp::{ClusterManifest, MeshAcceptor, TcpTransport};
use gthinker_net::transport::Transport;
use std::io;
use std::net::TcpListener;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What this process was in the cluster, with the payload it gets back.
// Returned once per process at job end; variant size is irrelevant.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum ClusterRole<G> {
    /// Worker 0: the full job result — its own [`WorkerStats`], plus
    /// cluster-wide [`JobResult::metrics`] merged from every worker's
    /// final report.
    Master(JobResult<G>),
    /// Any other worker: its own statistics and its own final metrics
    /// snapshot (for worker-local exports; the cluster-wide view lives
    /// at the master).
    Worker(WorkerStats, MetricsSnapshot),
}

/// Observer hook handed the master's live [`ClusterTelemetry`] before
/// the job starts (status lines, scrape endpoints). Fires on worker 0
/// only — the master is the only process that aggregates reports.
pub type TelemetryHook = Box<dyn FnOnce(Arc<ClusterTelemetry>)>;

/// Runs this process's worker of a multi-process job on a pre-bound
/// `listener` (bind `manifest.addr(me)`, or see
/// [`ClusterManifest::loopback`]), blocking until the master's
/// termination (or failure) protocol shuts it down. `connect_timeout`
/// bounds the cluster rendezvous, not the job. A process handed a
/// memory-mapped compressed graph opens its own mapping (maps are
/// per-process) and serves its partition lazily from it.
///
/// [`run_worker_process`] with neither recovery nor a telemetry hook.
pub fn run_worker_process_source_on<'a, A: App>(
    app: Arc<A>,
    source: impl Into<GraphSource<'a>>,
    config: &JobConfig,
    manifest: &ClusterManifest,
    me: WorkerId,
    connect_timeout: Duration,
    listener: TcpListener,
) -> io::Result<ClusterRole<Global<A>>> {
    run_worker_process(app, source, config, manifest, me, connect_timeout, listener, None, None)
        .map(|(role, _)| role)
}

/// Runs this process's worker of a multi-process job (see
/// [`run_worker_process_source_on`]), optionally crash-surviving and
/// optionally observed.
///
/// * `recovery: Some(opts)` runs the job in checkpointed segments: a
///   dead peer triggers an abort-to-checkpoint broadcast instead of job
///   failure, and every process (the survivors plus the respawned
///   replacement, which passes a bumped [`RecoveryOptions::generation`])
///   re-rendezvouses and resumes from the last epoch the master
///   validated. Requires [`JobConfig::checkpoint_dir`] — a directory
///   visible to every process (the paper's HDFS analog) that epochs are
///   written under. The returned [`RecoveryReport`] is `Some` exactly
///   when recovery was on.
/// * `on_telemetry` is handed the master's live [`ClusterTelemetry`]
///   before the job starts — the hook for `--status` progress lines and
///   the `--telemetry-addr` scrape endpoint.
///
/// A `me` outside the manifest, or a manifest whose size disagrees with
/// `config.num_workers`, is an `InvalidInput` error raised before any
/// partitioning or dialing.
#[allow(clippy::too_many_arguments)]
pub fn run_worker_process<'a, A: App>(
    app: Arc<A>,
    source: impl Into<GraphSource<'a>>,
    config: &JobConfig,
    manifest: &ClusterManifest,
    me: WorkerId,
    connect_timeout: Duration,
    listener: TcpListener,
    recovery: Option<RecoveryOptions>,
    on_telemetry: Option<TelemetryHook>,
) -> io::Result<(ClusterRole<Global<A>>, Option<RecoveryReport>)> {
    assert!(config.num_workers >= 1);
    assert!(config.compers_per_worker >= 1);
    if config.num_workers != manifest.num_workers() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "config says {} workers but the manifest lists {}",
                config.num_workers,
                manifest.num_workers()
            ),
        ));
    }
    if me.index() >= manifest.num_workers() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("worker {me} not in a {}-worker manifest", manifest.num_workers()),
        ));
    }
    let source = source.into();
    match recovery {
        Some(opts) => run_cluster_recovering(
            app,
            source,
            config,
            manifest,
            me,
            connect_timeout,
            listener,
            opts,
            on_telemetry,
        )
        .map(|(role, report)| (role, Some(report))),
        None => run_cluster_once(
            app,
            source,
            config,
            manifest,
            me,
            connect_timeout,
            listener,
            on_telemetry,
        )
        .map(|role| (role, None)),
    }
}

#[allow(clippy::too_many_arguments)]
fn run_cluster_once<A: App>(
    app: Arc<A>,
    source: GraphSource<'_>,
    config: &JobConfig,
    manifest: &ClusterManifest,
    me: WorkerId,
    connect_timeout: Duration,
    listener: TcpListener,
    on_telemetry: Option<TelemetryHook>,
) -> io::Result<ClusterRole<Global<A>>> {
    let start = Instant::now();

    // Same pipeline as the in-process runner: trim, then partition
    // deterministically — every process computes identical ownership,
    // and this one keeps only its own part (or, on a mapped source,
    // its own member list over the shared file).
    let partitioner = HashPartitioner::new(config.num_workers as u16);
    let (mut locals, label_table) = build_locals(&app, &source, partitioner, &[me.index()]);
    let local = locals.pop().expect("one local table requested");

    // Rendezvous before building worker state, so a peer that never
    // shows up fails fast instead of after graph setup work.
    let mut transport =
        TcpTransport::connect_on(manifest, me, config.fault.clone(), connect_timeout, listener)?;
    let net = transport.take_endpoint(me);

    let job_dir = new_job_dir(config);
    let shared =
        build_worker(&app, config, &label_table, partitioner, me.index(), local, net, &job_dir)?;

    // Every cluster process ships a final metrics report to the master
    // just before its final aggregator sync; the master merges them
    // into the cluster-wide view below.
    shared.remote_report.store(true, Ordering::Relaxed);
    let telemetry = Arc::new(ClusterTelemetry::new(config.num_workers));
    if me == WorkerId(0) {
        let _ = shared.telemetry.set(Arc::clone(&telemetry));
        if let Some(hook) = on_telemetry {
            hook(Arc::clone(&telemetry));
        }
    }

    // The worker main loop is byte-for-byte the sim backend's: compers,
    // receiver, responders, GC, periodic ticks, master logic on 0.
    let registry = MetricsRegistry::new(vec![Arc::clone(&shared)], start);
    let (stats, outcome, io_error) = worker_main(Arc::clone(&shared), None);

    let _ = std::fs::remove_dir_all(&job_dir);
    if let Some(msg) = shared.failure.lock().take() {
        panic!("{msg}");
    }
    if let Some(e) = io_error {
        return Err(e);
    }

    if me == WorkerId(0) {
        let (global, job_outcome) =
            outcome.expect("master worker returns the job outcome").into_job_outcome();
        let metrics = assemble_cluster_metrics(&telemetry, &registry, me, config.num_workers);
        Ok(ClusterRole::Master(JobResult {
            global,
            elapsed: start.elapsed(),
            outcome: job_outcome,
            workers: vec![stats],
            metrics,
        }))
    } else {
        Ok(ClusterRole::Worker(stats, registry.final_snapshot()))
    }
}

/// Cluster-wide metrics at the master: this process's own final
/// snapshot plus every remote worker's final report, each remote event
/// timeline shifted onto the master's clock by the worker's ping/pong
/// offset estimate. A worker whose report never arrived (it crashed)
/// appears as an all-zero entry so the indices stay aligned.
fn assemble_cluster_metrics<A: App>(
    telemetry: &Arc<ClusterTelemetry>,
    registry: &MetricsRegistry<A>,
    me: WorkerId,
    num_workers: usize,
) -> MetricsSnapshot {
    let own = registry.final_snapshot();
    let elapsed = own.elapsed;
    let own_snap = own.workers.into_iter().next().expect("one local worker");
    telemetry.publish(me.index(), own_snap.clone(), true);
    let finals = telemetry.final_snapshots();
    let workers = (0..num_workers)
        .map(|w| match finals[w].clone() {
            Some(mut f) => {
                gthinker_metrics::trace::shift_events(&mut f.events, f.clock_offset_nanos);
                f
            }
            None => Default::default(),
        })
        .collect();
    MetricsSnapshot { elapsed, workers }
}

/// Knobs for crash recovery in [`run_worker_process`].
#[derive(Clone, Copy, Debug)]
pub struct RecoveryOptions {
    /// Recovery rounds (abort-to-checkpoint) tolerated before the job
    /// is abandoned with an error.
    pub max_recoveries: u32,
    /// This process's rejoin generation: 0 on a first launch, `g + 1`
    /// when a supervisor respawns it after generation `g` died. Peers
    /// accept the bumped hello and reject frames from the dead
    /// generation's sockets.
    pub generation: u32,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions { max_recoveries: 8, generation: 0 }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_cluster_recovering<A: App>(
    app: Arc<A>,
    source: GraphSource<'_>,
    config: &JobConfig,
    manifest: &ClusterManifest,
    me: WorkerId,
    connect_timeout: Duration,
    listener: TcpListener,
    opts: RecoveryOptions,
    mut on_telemetry: Option<TelemetryHook>,
) -> io::Result<(ClusterRole<Global<A>>, RecoveryReport)> {
    let Some(base) = config.checkpoint_dir.clone() else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "cluster recovery needs JobConfig::checkpoint_dir — a directory every \
             process can reach (the paper's HDFS), holding the epoch checkpoints",
        ));
    };
    let start = Instant::now();
    let n = config.num_workers;
    let mut cfg = config.clone();
    // A killed worker must never hang the survivors: the heartbeat
    // backstop is always armed in recovery mode (peer-down events
    // usually beat it by a wide margin).
    cfg.heartbeat_timeout = cfg.heartbeat_timeout.or(Some(DEFAULT_HEARTBEAT));
    let mut interval = cfg.checkpoint_interval;
    let partitioner = HashPartitioner::new(n as u16);

    // The acceptor outlives every attempt: a re-rendezvous (ours or a
    // respawned peer's) runs through the same listener, and its
    // per-peer generation ledger is what rejects stale hellos.
    let acceptor = MeshAcceptor::new(listener, me, n)?;
    let telemetry = Arc::new(ClusterTelemetry::new(n));
    let mut report = RecoveryReport::default();
    // Master bookkeeping: the last epoch that validated end-to-end.
    let mut last_good: Option<(u64, std::path::PathBuf)> = None;
    let mut attempt: u64 = 0;
    let rejoins: u64 = if opts.generation > 0 { 1 } else { 0 };

    loop {
        // (1) Rendezvous. Survivors' links to a dead peer are gone, so
        // this blocks (dials backing off through connection-refused)
        // until the replacement binds and joins — bounded by
        // `connect_timeout`, after which the whole cluster errors out.
        let mut transport = TcpTransport::connect_via(
            &acceptor,
            manifest,
            me,
            cfg.fault.clone(),
            connect_timeout,
            opts.generation,
        )?;
        let net = transport.take_endpoint(me);

        // (2) Resume decision. The master is authoritative for both the
        // epoch to restore and the attempt number (which names the next
        // epoch's directory identically on every process).
        let (resume, epoch, this_attempt) = if me == WorkerId(0) {
            let (resume, epoch) = match &last_good {
                Some((e, _)) => (true, *e),
                None => (false, 0),
            };
            for w in 1..n {
                net.send(WorkerId(w as u16), Message::Resume { resume, epoch, attempt });
            }
            (resume, epoch, attempt)
        } else {
            let deadline = Instant::now() + connect_timeout;
            // Faster peers may start mining before our decision
            // arrives; their early data-plane traffic (vertex pulls,
            // steal batches — all reorder-tolerant) is stashed and
            // re-injected below.
            let mut stash = Vec::new();
            let decision = loop {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!(
                            "worker {me} rendezvoused but got no resume decision from the \
                             master within {connect_timeout:?}"
                        ),
                    ));
                }
                match net.recv_timeout(remaining) {
                    Some(Message::Resume { resume, epoch, attempt: a }) => {
                        break (resume, epoch, a)
                    }
                    Some(other) => stash.push(other),
                    None => {}
                }
            };
            for m in stash {
                net.requeue(m);
            }
            decision
        };

        // (3) Per-attempt segment config: checkpoint into a fresh epoch
        // directory; the master suspends the segment after `interval`.
        let mut seg = cfg.clone();
        seg.suspend_after = interval;
        let epoch_dir = base.join(format!("epoch-{this_attempt}"));
        seg.checkpoint_dir = Some(epoch_dir.clone());

        // (4) Build this attempt's worker state (the local table is
        // rebuilt — partitioning is deterministic, so ownership never
        // moves between attempts).
        let (mut locals, label_table) = build_locals(&app, &source, partitioner, &[me.index()]);
        let local = locals.pop().expect("one local table requested");
        let job_dir = new_job_dir(&seg);
        let shared =
            build_worker(&app, &seg, &label_table, partitioner, me.index(), local, net, &job_dir)?;
        shared.remote_report.store(true, Ordering::Relaxed);
        shared.abort_on_failure.store(true, Ordering::Relaxed);
        shared.recoveries.store(report.recoveries as u64, Ordering::Relaxed);
        shared.rejoins.store(rejoins, Ordering::Relaxed);
        if me == WorkerId(0) {
            let _ = shared.telemetry.set(Arc::clone(&telemetry));
            if let Some(hook) = on_telemetry.take() {
                hook(Arc::clone(&telemetry));
            }
        }

        // (5) Restore from the agreed epoch (same shard-restore path as
        // the sim runner's resume).
        let resume_global = if resume {
            let cp = base.join(format!("epoch-{epoch}"));
            let m: Manifest<Global<A>> = checkpoint::read_manifest(&cp)?;
            let shard = checkpoint::read_shard::<A::Context, Partial<A>>(&cp, me.index())?;
            restore_shard(&shared, shard)?;
            shared.agg.set_global(m.global.clone());
            shared.resumed_epoch.store(epoch as i64, Ordering::Relaxed);
            Some(m.global)
        } else {
            None
        };

        // (6) Run the segment — byte-for-byte the normal cluster job.
        let registry = MetricsRegistry::new(vec![Arc::clone(&shared)], start);
        let (stats, outcome, io_error) = worker_main(Arc::clone(&shared), resume_global);
        let _ = std::fs::remove_dir_all(&job_dir);
        if let Some(msg) = shared.failure.lock().take() {
            panic!("{msg}");
        }
        if let Some(e) = io_error {
            return Err(e);
        }

        if me == WorkerId(0) {
            let outcome = outcome.expect("master worker returns the job outcome");
            match outcome {
                WorkerOutcome::Completed(global) => {
                    let metrics = assemble_cluster_metrics(&telemetry, &registry, me, n);
                    if let Some((_, old)) = last_good.take() {
                        let _ = std::fs::remove_dir_all(old);
                    }
                    let _ = std::fs::remove_dir_all(&epoch_dir);
                    return Ok((
                        ClusterRole::Master(JobResult {
                            global,
                            elapsed: start.elapsed(),
                            outcome: JobOutcome::Completed,
                            workers: vec![stats],
                            metrics,
                        }),
                        report,
                    ));
                }
                WorkerOutcome::Suspended(_global, dir) => {
                    // Only an epoch that validates end-to-end — every
                    // shard plus the manifest, CRCs intact — may become
                    // the recovery point.
                    match checkpoint::validate::<A::Context, Partial<A>, Global<A>>(&dir, n) {
                        Ok(()) => {
                            report.checkpoints += 1;
                            if let Some((_, old)) = last_good.replace((this_attempt, dir)) {
                                let _ = std::fs::remove_dir_all(old);
                            }
                        }
                        Err(_) => {
                            let _ = std::fs::remove_dir_all(&dir);
                        }
                    }
                    // Conservative master-local cadence backoff: if this
                    // segment finished no local task, the interval is
                    // likely shorter than the restore cost.
                    if stats.tasks_finished == 0 {
                        if let Some(i) = interval.as_mut() {
                            *i *= 2;
                        }
                    }
                }
                WorkerOutcome::Failed(_global, w) => {
                    report.recoveries += 1;
                    report.failed_workers.push(w);
                    // The failed attempt's epoch is incomplete; remove
                    // it so nothing ever resumes from it.
                    let _ = std::fs::remove_dir_all(&epoch_dir);
                    if report.recoveries > opts.max_recoveries {
                        return Err(io::Error::other(format!(
                            "worker {} crashed and the cluster failed {} times; giving up \
                             (survivors will time out at their next rendezvous)",
                            w.index(),
                            report.recoveries
                        )));
                    }
                }
            }
        } else {
            let aborted = shared.aborted.load(Ordering::SeqCst);
            let suspended = shared.suspend.load(Ordering::SeqCst);
            if aborted {
                report.recoveries += 1;
                if report.recoveries > opts.max_recoveries {
                    return Err(io::Error::other(format!(
                        "worker {me} saw {} recovery rounds; giving up",
                        report.recoveries
                    )));
                }
            } else if !suspended {
                // A clean Terminate: the job completed.
                return Ok((ClusterRole::Worker(stats, registry.final_snapshot()), report));
            }
            // Aborted or suspended: loop back to the rendezvous.
        }
        attempt = this_attempt + 1;
        drop(transport);
    }
}
