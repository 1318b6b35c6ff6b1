//! The job runner: wires graph, workers, threads and the master
//! together; entry points [`run_job`] and [`resume_job`].

use crate::agg::Aggregator;
use crate::api::App;
use crate::checkpoint::{self, Manifest, WorkerShard};
use crate::comper::comper_loop;
use crate::config::{JobConfig, JobOutcome, JobResult, WorkerStats};
use crate::master::MasterState;
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::worker::{
    gc_loop, receiver_loop, responder_loop, worker_tick, ResponderRing, WorkerShared,
};
use gthinker_graph::compressed::CompressedGraph;
use gthinker_graph::graph::Graph;
use gthinker_graph::ids::{Label, VertexId, WorkerId};
use gthinker_graph::partition::HashPartitioner;
use gthinker_graph::store::AdjacencyStore;
use gthinker_graph::trim::{trim_graph, Trimmer};
use gthinker_net::message::Message;
use gthinker_net::router::Router;
use gthinker_net::transport::{NetEndpoint, Transport};
use gthinker_store::cache::VertexCache;
use gthinker_store::local::LocalTable;
use gthinker_task::codec::to_bytes;
use gthinker_task::spill::SpillManager;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub(crate) type Global<A> = <<A as App>::Agg as Aggregator>::Global;
pub(crate) type Partial<A> = <<A as App>::Agg as Aggregator>::Partial;

/// Where a job reads its graph from.
///
/// The storage backend is invisible above the worker's `T_local`: the
/// six miners, the cache, trimming and partitioning all behave
/// identically over either variant (the differential suite in
/// `tests/storage_equivalence.rs` pins this down result-for-result).
#[derive(Clone)]
pub enum GraphSource<'a> {
    /// An in-RAM graph: trimmed up front, each worker's partition
    /// materialized into an eager local table (the classic path).
    InMemory(&'a Graph),
    /// A memory-mapped compressed graph (`.gtc`, built by
    /// `gthinker-cli graph build`): every worker shares the mapping,
    /// decodes `Γ(v)` lazily per lookup, and applies the job's trimmer
    /// at decode time — resident memory stays near the bitset + page
    /// cache instead of a full adjacency copy.
    Mapped(Arc<CompressedGraph>),
}

impl<'a> From<&'a Graph> for GraphSource<'a> {
    fn from(g: &'a Graph) -> Self {
        GraphSource::InMemory(g)
    }
}

impl From<Arc<CompressedGraph>> for GraphSource<'static> {
    fn from(c: Arc<CompressedGraph>) -> Self {
        GraphSource::Mapped(c)
    }
}

/// Runs an application over `source` — an in-RAM `&Graph` or a
/// memory-mapped [`GraphSource::Mapped`] compressed graph — with the
/// given configuration, blocking until completion (or suspension if
/// `config.suspend_after` fires first).
pub fn run_job<'a, A: App>(
    app: Arc<A>,
    source: impl Into<GraphSource<'a>>,
    config: &JobConfig,
) -> io::Result<JobResult<Global<A>>> {
    run_inner(app, source.into(), config, None, None)
}

/// A point-in-time view of a running job: the projection of a
/// [`MetricsSnapshot`] returned by [`MetricsSnapshot::progress`]. This
/// is the paper's "periodically synchronize job status to monitor
/// progress" made visible to the embedding application (e.g. the
/// current total in triangle counting).
#[derive(Clone, Debug)]
pub struct ProgressSnapshot {
    /// Time since the job started.
    pub elapsed: std::time::Duration,
    /// Tasks finished so far, across all workers.
    pub tasks_finished: u64,
    /// Estimated remaining load in tasks (queued + spilled + unspawned).
    pub remaining: u64,
    /// Cache hits / misses so far.
    pub cache_hits: u64,
    /// Cache misses (actual network pulls) so far.
    pub cache_misses: u64,
    /// Bytes sent over the simulated network so far.
    pub net_bytes: u64,
    /// Workers currently quiescent.
    pub quiescent_workers: usize,
}

/// Like [`run_job`], but invokes `observer` with a full
/// [`MetricsSnapshot`] (counters, cache stats, per-comper latency
/// histograms) every `config.sync_interval` until the job ends; call
/// [`MetricsSnapshot::progress`] for the compact [`ProgressSnapshot`].
pub fn run_job_observed<'a, A: App>(
    app: Arc<A>,
    source: impl Into<GraphSource<'a>>,
    config: &JobConfig,
    observer: impl FnMut(&MetricsSnapshot) + Send + 'static,
) -> io::Result<JobResult<Global<A>>> {
    run_inner(app, source.into(), config, None, Some(Box::new(observer)))
}

type Observer = Box<dyn FnMut(&MetricsSnapshot) + Send>;

/// Resumes a suspended job from the checkpoint directory written when
/// it suspended. Topology (worker count) must match the original run.
/// The source may differ in kind from the original run's (in-RAM vs
/// mapped): a checkpoint holds only tasks, aggregator state and the
/// spawn pointer — never adjacency.
pub fn resume_job<'a, A: App>(
    app: Arc<A>,
    source: impl Into<GraphSource<'a>>,
    config: &JobConfig,
    checkpoint: &std::path::Path,
) -> io::Result<JobResult<Global<A>>> {
    let resume = read_resume::<A>(config, checkpoint)?;
    run_inner(app, source.into(), config, Some(resume), None)
}

/// Reads a suspended job's manifest and every worker's shard.
fn read_resume<A: App>(config: &JobConfig, checkpoint: &std::path::Path) -> io::Result<Resume<A>> {
    let manifest: Manifest<Global<A>> = checkpoint::read_manifest(checkpoint)?;
    if manifest.num_workers as usize != config.num_workers {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "checkpoint {} was taken with {} workers, cannot resume with {}",
                checkpoint.display(),
                manifest.num_workers,
                config.num_workers
            ),
        ));
    }
    let mut shards = Vec::with_capacity(config.num_workers);
    for w in 0..config.num_workers {
        shards.push(checkpoint::read_shard::<A::Context, Partial<A>>(checkpoint, w)?);
    }
    Ok((manifest, shards))
}

type Resume<A> = (Manifest<Global<A>>, Vec<WorkerShard<<A as App>::Context, Partial<A>>>);

/// What [`run_job_with_recovery`] did to finish the job.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Times a crashed worker was detected and the job rerun.
    pub recoveries: u32,
    /// Valid checkpoint epochs written along the way.
    pub checkpoints: u32,
    /// The worker declared dead at each recovery, in order.
    pub failed_workers: Vec<WorkerId>,
}

/// Like [`run_job`], but survives worker crashes: the job runs in
/// segments of `config.checkpoint_interval`, each segment ending in a
/// validated checkpoint epoch, and when the master's heartbeat declares
/// a worker dead ([`JobOutcome::Failed`]) the job is rerun from the
/// last epoch that validates (or from scratch if none does yet). Gives
/// up with an error after `max_recoveries` reruns.
///
/// With `checkpoint_interval == None` the job never suspends — a crash
/// simply reruns it from the start. Recovery composes with the
/// memory-mapped storage backend exactly as it does with the in-RAM one.
pub fn run_job_with_recovery<'a, A: App>(
    app: Arc<A>,
    source: impl Into<GraphSource<'a>>,
    config: &JobConfig,
    max_recoveries: u32,
) -> io::Result<(JobResult<Global<A>>, RecoveryReport)> {
    let source = source.into();
    let (base, auto_base) = match &config.checkpoint_dir {
        Some(dir) => (dir.clone(), false),
        None => {
            let id = JOB_SEQ.fetch_add(1, Ordering::Relaxed);
            (
                std::env::temp_dir().join(format!("gthinker-recovery-{}-{id}", std::process::id())),
                true,
            )
        }
    };
    let mut cfg = config.clone();
    cfg.heartbeat_timeout = cfg.heartbeat_timeout.or(Some(DEFAULT_HEARTBEAT));
    let mut interval = cfg.checkpoint_interval;
    let mut report = RecoveryReport::default();
    let mut last_good: Option<PathBuf> = None;
    let mut epoch = 0u32;
    loop {
        let mut seg = cfg.clone();
        seg.suspend_after = interval;
        let epoch_dir = base.join(format!("epoch-{epoch}"));
        seg.checkpoint_dir = Some(epoch_dir.clone());
        epoch += 1;
        let resume = match &last_good {
            Some(cp) => Some(read_resume::<A>(&seg, cp)?),
            None => None,
        };
        let mut result = run_inner(Arc::clone(&app), source.clone(), &seg, resume, None)?;
        match result.outcome {
            JobOutcome::Completed => {
                if let Some(old) = last_good.take() {
                    let _ = std::fs::remove_dir_all(old);
                }
                if auto_base {
                    let _ = std::fs::remove_dir_all(&base);
                }
                // Parity with the cluster runner, where each process
                // counts its own recovery rounds in its stats.
                for w in &mut result.workers {
                    w.recoveries = report.recoveries as u64;
                }
                return Ok((result, report));
            }
            JobOutcome::Suspended { ref checkpoint } => {
                // Only a checkpoint that validates end-to-end (manifest
                // + every shard, CRCs intact, topology matching) may
                // become the recovery point.
                match checkpoint::validate::<A::Context, Partial<A>, Global<A>>(
                    checkpoint,
                    cfg.num_workers,
                ) {
                    Ok(()) => {
                        report.checkpoints += 1;
                        if let Some(old) = last_good.replace(checkpoint.clone()) {
                            let _ = std::fs::remove_dir_all(old);
                        }
                    }
                    Err(_) => {
                        let _ = std::fs::remove_dir_all(checkpoint);
                    }
                }
                // A segment that checkpointed without finishing a single
                // task would loop forever at this cadence; back off.
                if result.total_tasks() == 0 {
                    if let Some(i) = interval.as_mut() {
                        *i *= 2;
                    }
                }
            }
            JobOutcome::Failed { worker } => {
                report.recoveries += 1;
                report.failed_workers.push(worker);
                let _ = std::fs::remove_dir_all(&epoch_dir);
                if report.recoveries > max_recoveries {
                    return Err(io::Error::other(format!(
                        "worker {} crashed and the job failed {} times; giving up",
                        worker.index(),
                        report.recoveries
                    )));
                }
                // An injected crash schedule fires once per job run —
                // and counts messages from zero again on a rerun, which
                // would kill the same worker at the same point forever.
                // The fault it models has happened; clear it.
                cfg.fault.crash = None;
            }
        }
    }
}

fn run_inner<A: App>(
    app: Arc<A>,
    source: GraphSource<'_>,
    config: &JobConfig,
    resume: Option<Resume<A>>,
    observer: Option<Observer>,
) -> io::Result<JobResult<Global<A>>> {
    assert!(config.num_workers >= 1);
    assert!(config.compers_per_worker >= 1);
    let start = Instant::now();

    let partitioner = HashPartitioner::new(config.num_workers as u16);
    let every_worker: Vec<usize> = (0..config.num_workers).collect();
    let (locals, label_table) = build_locals(&app, &source, partitioner, &every_worker);

    // The in-process job always runs on the sim backend; worker code
    // only ever sees the Transport/NetEndpoint traits, which is what
    // makes `cluster::run_worker_process` the same job over TCP.
    let mut router = Router::with_faults(config.num_workers, config.link, config.fault.clone());
    let handles: Vec<Box<dyn NetEndpoint>> =
        Transport::hosted(&router).into_iter().map(|w| router.take_endpoint(w)).collect();

    let job_dir = new_job_dir(config);

    let (resume_manifest, mut resume_shards) = match resume {
        Some((m, s)) => (Some(m), s.into_iter()),
        None => (None, Vec::new().into_iter()),
    };

    // Build per-worker shared state.
    let mut workers: Vec<Arc<WorkerShared<A>>> = Vec::with_capacity(config.num_workers);
    for (w, (local, net)) in locals.into_iter().zip(handles).enumerate() {
        let shared =
            build_worker(&app, config, &label_table, partitioner, w, local, net, &job_dir)?;
        if let Some(shard) = resume_shards.next() {
            restore_shard(&shared, shard)?;
        }
        workers.push(shared);
    }

    // Seed the global snapshot everywhere on resume.
    if let Some(m) = &resume_manifest {
        for shared in &workers {
            shared.agg.set_global(m.global.clone());
        }
    }

    // The registry reads every worker's atomics/histograms lock-free;
    // one instance feeds the observer thread, another takes the final
    // snapshot after the join below.
    let registry = MetricsRegistry::new(workers.iter().map(Arc::clone).collect(), start);

    // Observer thread: samples the registry until the workers report
    // done. The channel doubles as the sampling timer (recv_timeout)
    // and as the shutdown wakeup, so no sleep-polling is involved.
    let observer_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let (observer_wake_tx, observer_wake_rx) = crossbeam::channel::unbounded::<()>();
    let observer_thread = observer.map(|mut obs| {
        let registry = MetricsRegistry::new(workers.iter().map(Arc::clone).collect(), start);
        let stop = Arc::clone(&observer_stop);
        let wake = observer_wake_rx;
        let interval = config.sync_interval;
        std::thread::Builder::new()
            .name("job-observer".into())
            .spawn(move || loop {
                let _ = wake.recv_timeout(interval);
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                obs(&registry.snapshot());
            })
            .expect("spawn observer")
    });

    let results: Vec<std::thread::JoinHandle<WorkerExit<A>>> = workers
        .iter()
        .enumerate()
        .map(|(w, shared)| {
            let shared = Arc::clone(shared);
            let resume_global = resume_manifest.as_ref().map(|m| m.global.clone());
            std::thread::Builder::new()
                .name(format!("worker-{w}"))
                .spawn(move || worker_main(shared, resume_global))
                .expect("spawn worker thread")
        })
        .collect();

    let mut stats = Vec::with_capacity(config.num_workers);
    let mut outcome: Option<WorkerOutcome<A>> = None;
    let mut io_error: Option<io::Error> = None;
    for handle in results {
        let (s, o, e) = handle.join().expect("worker thread panicked");
        stats.push(s);
        if o.is_some() {
            outcome = o;
        }
        if io_error.is_none() {
            io_error = e;
        }
    }
    observer_stop.store(true, Ordering::SeqCst);
    let _ = observer_wake_tx.send(());
    if let Some(t) = observer_thread {
        t.join().expect("observer panicked");
    }
    drop(router);
    // Best-effort cleanup of the job's spill directory.
    let _ = std::fs::remove_dir_all(&job_dir);

    // Propagate the first UDF panic (after the orderly shutdown above)
    // so the caller sees the application's own message.
    for shared in &workers {
        if let Some(msg) = shared.failure.lock().take() {
            panic!("{msg}");
        }
    }
    // First checkpoint/output I/O error wins, after the orderly
    // shutdown (so no thread is left dangling behind the `?`).
    if let Some(e) = io_error {
        return Err(e);
    }

    let (global, job_outcome) =
        outcome.expect("master worker returns the job outcome").into_job_outcome();
    let metrics = registry.final_snapshot();
    Ok(JobResult {
        global,
        elapsed: start.elapsed(),
        outcome: job_outcome,
        workers: stats,
        metrics,
    })
}

static JOB_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh spill directory for one job of this process.
pub(crate) fn new_job_dir(config: &JobConfig) -> PathBuf {
    let job_id = JOB_SEQ.fetch_add(1, Ordering::Relaxed);
    config.spill_dir.join(format!("job-{}-{}", std::process::id(), job_id))
}

/// Builds the local tables for the requested `workers` (all of them in
/// the sim runner, just one in a cluster process) plus the replicated
/// label table, from either graph source.
///
/// Both sources produce identical partitions: ownership is hash-by-ID
/// only, members are listed in ascending ID order (the order
/// [`gthinker_graph::partition::HashPartitioner::split`] emits), and
/// trimming — applied up front on the in-RAM path, at decode time on
/// the mapped path — is a per-vertex rewrite that cannot observe the
/// difference.
pub(crate) fn build_locals<A: App>(
    app: &Arc<A>,
    source: &GraphSource<'_>,
    partitioner: HashPartitioner,
    workers: &[usize],
) -> (Vec<LocalTable>, Option<Arc<Vec<Label>>>) {
    match source {
        GraphSource::InMemory(graph) => {
            // Trim once after loading (§IV item 7).
            let trimmed;
            let graph: &Graph = match app.trimmer() {
                Some(t) => {
                    trimmed = trim_graph(graph, t.as_ref());
                    &trimmed
                }
                None => graph,
            };
            // Labels are replicated to every worker (2 bytes/vertex).
            let label_table = graph.labels().map(|l| Arc::new(l.to_vec()));
            let mut parts = partitioner.split(graph);
            let locals = workers
                .iter()
                .map(|&w| {
                    let part = std::mem::take(&mut parts[w]);
                    let labels: Vec<(VertexId, Label)> = if graph.is_labeled() {
                        part.iter().map(|(v, _)| (*v, graph.label(*v).expect("labeled"))).collect()
                    } else {
                        Vec::new()
                    };
                    LocalTable::with_labels(part, labels)
                })
                .collect();
            (locals, label_table)
        }
        GraphSource::Mapped(store) => {
            let trimmer: Option<Arc<dyn Trimmer>> = app.trimmer().map(Arc::from);
            let label_table = store.labels().map(Arc::new);
            let locals = workers
                .iter()
                .map(|&w| {
                    let members: Vec<VertexId> = (0..store.num_vertices() as u32)
                        .map(VertexId)
                        .filter(|&v| partitioner.owner(v).index() == w)
                        .collect();
                    let shared: Arc<dyn AdjacencyStore> = Arc::<CompressedGraph>::clone(store);
                    LocalTable::lazy(shared, trimmer.clone(), members)
                })
                .collect();
            (locals, label_table)
        }
    }
}

/// Builds one worker's shared state from its local table and its
/// interconnect endpoint. Used by [`run_inner`] (all workers, sim
/// backend) and by [`crate::cluster::run_worker_process`] (one worker,
/// TCP backend).
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_worker<A: App>(
    app: &Arc<A>,
    config: &JobConfig,
    label_table: &Option<Arc<Vec<Label>>>,
    partitioner: HashPartitioner,
    w: usize,
    local: LocalTable,
    net: Box<dyn NetEndpoint>,
    job_dir: &Path,
) -> io::Result<Arc<WorkerShared<A>>> {
    let cache = VertexCache::new(config.cache.clone());
    let spill = SpillManager::new(job_dir.join(format!("worker-{w}")))?;
    let output = match config.output_dir.as_ref() {
        Some(dir) => Some(Arc::new(crate::output::OutputSink::create(dir, w)?)),
        None => None,
    };
    Ok(WorkerShared::new(
        WorkerId(w as u16),
        Arc::clone(app),
        config.clone(),
        local,
        cache,
        spill,
        net,
        partitioner,
        label_table.clone(),
        output,
    ))
}

/// Restores one worker's checkpoint shard into its freshly built state:
/// spawn pointer, aggregator partial, and the shard's tasks. Restored
/// tasks go through `L_file` so compers pick them up with the normal
/// refill priority.
pub(crate) fn restore_shard<A: App>(
    shared: &WorkerShared<A>,
    shard: WorkerShard<A::Context, Partial<A>>,
) -> io::Result<()> {
    shared.local.reset_spawn_pointer(shard.spawn_position as usize);
    shared.agg.set_partial(shard.partial);
    for chunk in shard.tasks.chunks(shared.config.task_batch.max(1)) {
        shared.spill.spill(chunk)?;
    }
    Ok(())
}

pub(crate) enum WorkerOutcome<A: App> {
    Completed(Global<A>),
    Suspended(Global<A>, PathBuf),
    /// The master's heartbeat declared a worker dead; the global is
    /// whatever had been merged when the job was torn down.
    Failed(Global<A>, WorkerId),
}

impl<A: App> WorkerOutcome<A> {
    /// The master's outcome as the caller-facing `(global, outcome)`.
    pub(crate) fn into_job_outcome(self) -> (Global<A>, JobOutcome) {
        match self {
            WorkerOutcome::Completed(g) => (g, JobOutcome::Completed),
            WorkerOutcome::Suspended(g, dir) => (g, JobOutcome::Suspended { checkpoint: dir }),
            WorkerOutcome::Failed(g, w) => (g, JobOutcome::Failed { worker: w }),
        }
    }
}

/// What each worker's main thread hands back to [`run_inner`]: stats,
/// the job outcome (master only), and the first checkpoint/output I/O
/// error hit during shutdown (reported instead of panicking, after all
/// threads have joined).
pub(crate) type WorkerExit<A> = (WorkerStats, Option<WorkerOutcome<A>>, Option<io::Error>);

/// Failure-detection window used when the caller enabled recovery (or
/// armed a crash schedule) without picking an explicit
/// [`JobConfig::heartbeat_timeout`].
pub(crate) const DEFAULT_HEARTBEAT: std::time::Duration = std::time::Duration::from_secs(2);

/// One worker's main thread: spawns the receiver/GC/comper threads,
/// runs the periodic tick (plus master logic on worker 0), coordinates
/// shutdown or suspension, and returns its statistics.
pub(crate) fn worker_main<A: App>(
    shared: Arc<WorkerShared<A>>,
    resume_global: Option<Global<A>>,
) -> WorkerExit<A> {
    let is_master = shared.me == WorkerId(0);
    let (ctrl_tx, ctrl_rx) = crossbeam::channel::unbounded();

    // Responder pool (one channel per responder; the receiver
    // round-robins request batches over them and, by dropping the ring
    // on exit, hangs them up — so responders always drain fully before
    // the join below).
    let respond_n = shared.config.responders_per_worker.max(1);
    let mut responder_txs = Vec::with_capacity(respond_n);
    let responders: Vec<_> = (0..respond_n)
        .map(|r| {
            let (tx, rx) = crossbeam::channel::unbounded();
            responder_txs.push(tx);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("respond-{}-{r}", shared.me))
                .spawn(move || responder_loop(&shared, rx, r))
                .expect("spawn responder")
        })
        .collect();

    let receiver = {
        let shared = Arc::clone(&shared);
        let ring = ResponderRing::new(responder_txs);
        std::thread::Builder::new()
            .name(format!("recv-{}", shared.me))
            .spawn(move || receiver_loop(&shared, ctrl_tx, ring))
            .expect("spawn receiver")
    };
    let gc = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name(format!("gc-{}", shared.me))
            .spawn(move || gc_loop(&shared))
            .expect("spawn gc")
    };
    let compers: Vec<_> = (0..shared.config.compers_per_worker)
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("comper-{}-{i}", shared.me))
                .spawn(move || comper_loop(shared, i))
                .expect("spawn comper")
        })
        .collect();

    // Failure detection is armed explicitly, or implicitly whenever a
    // crash schedule is — a killed worker must not hang the job.
    let heartbeat = shared
        .config
        .heartbeat_timeout
        .or_else(|| shared.config.fault.crash.as_ref().map(|_| DEFAULT_HEARTBEAT));
    let mut master = is_master.then(|| {
        let mut m = MasterState::new(Arc::clone(&shared), ctrl_rx, heartbeat);
        // On resume, the checkpointed global is the starting point for
        // all further merges (e.g. the best clique found pre-suspend).
        if let Some(g) = resume_global.clone() {
            m.set_global(g);
        }
        m
    });
    let deadline = shared.config.suspend_after.map(|d| Instant::now() + d);

    // Periodic synchronization loop. The event-count wait replaces the
    // old `thread::sleep`: the sync interval is the fallback cadence,
    // and `wake_all` (stop/suspend) cuts the wait short so shutdown
    // latency is not bounded by the tick period.
    let mut was_idle = false;
    let mut abort_broadcast = false;
    loop {
        let key = shared.tick_events.listen();
        if !shared.stopping() {
            shared.tick_events.wait(key, shared.config.sync_interval);
        }
        let idle = worker_tick(&shared, WorkerId(0));
        // Mark quiescence edges in the timeline (sampled at tick
        // granularity; a sub-tick dip into and out of quiescence is
        // invisible here, as in the paper's periodic sync).
        if idle != was_idle {
            was_idle = idle;
            if shared.metrics.ring.enabled() {
                shared.metrics.ring.push(gthinker_metrics::Event {
                    ts: gthinker_metrics::now_nanos(),
                    dur: 0,
                    tid: gthinker_metrics::TID_MAIN,
                    arg: 0,
                    kind: if idle {
                        gthinker_metrics::EventKind::QuiesceEnter
                    } else {
                        gthinker_metrics::EventKind::QuiesceExit
                    },
                });
            }
        }
        // A UDF panic on this worker aborts the whole job: tell every
        // other worker to stop, then go through the normal shutdown
        // path (final syncs keep the master's collection loop sound).
        if shared.failure.lock().is_some() {
            abort_broadcast = true;
            shared.net.broadcast(&Message::Terminate);
            shared.done.store(true, Ordering::SeqCst);
            shared.wake_all();
        }
        if let Some(m) = master.as_mut() {
            let decided = m.tick();
            if !decided {
                if let Some(dl) = deadline {
                    if Instant::now() >= dl {
                        // Idempotent: the actual broadcast is deferred
                        // inside the master until no steal batch is in
                        // flight anywhere (exactly-once across epochs).
                        m.request_suspend();
                    }
                }
            }
        }
        if shared.stopping() {
            break;
        }
    }
    // A panicking comper records the failure and flips `done` itself;
    // both stores can land between this iteration's failure check and
    // the stop check above, exiting the loop with the abort broadcast
    // never sent — stranding every peer (they never quiesce, and the
    // master waits in `collect_finals` forever). The failure is
    // recorded strictly before `done`, so a post-loop re-check cannot
    // miss it.
    if !abort_broadcast && !shared.crashed.load(Ordering::SeqCst) && shared.failure.lock().is_some()
    {
        shared.net.broadcast(&Message::Terminate);
    }

    // Compers stop on the flag; wait for them.
    for c in compers {
        c.join().expect("comper panicked");
    }

    let crashed = shared.crashed.load(Ordering::SeqCst);
    let suspended = shared.suspend.load(Ordering::SeqCst);
    let mut outcome = None;
    let mut io_error: Option<io::Error> = None;
    if crashed {
        // A crashed machine does nothing on the way out: no checkpoint
        // shard, no final sync. The master's heartbeat notices the
        // silence and fails the job. (The router refuses crash
        // schedules for worker 0, so the master itself never gets here.)
    } else if suspended {
        // Gather every remaining task: drained queues, ready buffers,
        // pending tables, spilled files.
        let mut tasks: Vec<gthinker_task::task::Task<A::Context>> =
            shared.drained_queues.lock().drain(..).collect();
        for c in &shared.compers {
            tasks.extend(c.buffer.drain());
            tasks.extend(c.pending.drain());
        }
        while let Ok(Some(batch)) = shared.spill.refill::<A::Context>() {
            tasks.extend(batch);
        }
        // Unacked outgoing steal batches still belong to this worker
        // (the thief has provably not applied them: the master defers
        // the suspend broadcast until every worker reports zero
        // in-flight batches, so this ledger is empty on the normal
        // path — draining it is the ownership invariant's backstop).
        for (_, o) in shared.steal_outgoing.lock().drain() {
            let payload = gthinker_net::frame::open(&o.framed).expect("own sealed frame");
            let batch: Vec<gthinker_task::task::Task<A::Context>> =
                gthinker_task::codec::from_bytes(payload).expect("own batch encoding");
            debug_assert_eq!(batch.len() as u64, o.tasks);
            tasks.extend(batch);
        }
        let dir = shared
            .config
            .checkpoint_dir
            .clone()
            .unwrap_or_else(|| std::env::temp_dir().join("gthinker-checkpoint"));
        let shard = WorkerShard {
            spawn_position: shared.local.spawn_position() as u64,
            tasks,
            partial: shared.agg.take_partial(),
        };
        if let Err(e) = checkpoint::write_shard(&dir, shared.me.index(), &shard) {
            // Report instead of panicking; SuspendDone still goes out
            // so the master's collection loop stays live (the epoch is
            // discarded by validation on the recovery side).
            io_error = Some(e);
        }
        shared.net.send(WorkerId(0), Message::SuspendDone { worker: shared.me });
        if let Some(m) = master.as_mut() {
            let global = m.collect_suspends();
            outcome = Some(match m.failed() {
                // A worker died before writing its shard: the epoch is
                // incomplete, so no manifest — surface the failure and
                // let the recovery runner fall back to the last good
                // checkpoint.
                Some(w) => WorkerOutcome::Failed(global, w),
                None => {
                    let manifest = Manifest {
                        num_workers: shared.config.num_workers as u64,
                        global: global.clone(),
                    };
                    if let Err(e) = checkpoint::write_manifest(&dir, &manifest) {
                        io_error.get_or_insert(e);
                    }
                    WorkerOutcome::Suspended(global, dir)
                }
            });
        }
    } else {
        // Final metrics report (carrying the event ring) goes out
        // before the final aggregator sync on the same ordered channel:
        // by the time the master has collected every worker's final
        // sync, it has provably absorbed every final telemetry report.
        if shared.remote_report.load(Ordering::Relaxed) {
            crate::metrics::send_report(&shared, WorkerId(0), true);
        }
        // Final aggregator sync: one per worker, marked final.
        let partial = shared.agg.take_partial();
        shared.net.send(
            WorkerId(0),
            Message::AggregatorSync {
                worker: shared.me,
                payload: to_bytes(&partial),
                is_final: true,
            },
        );
        if let Some(m) = master.as_mut() {
            let global = m.collect_finals();
            outcome = Some(match m.failed() {
                Some(w) => WorkerOutcome::Failed(global, w),
                None => WorkerOutcome::Completed(global),
            });
        }
    }

    // All control traffic this worker cares about has been consumed.
    shared.receiver_stop.store(true, Ordering::SeqCst);
    receiver.join().expect("receiver panicked");
    // The receiver dropped the responder ring on exit; each responder
    // drains its channel and sees the hangup.
    for r in responders {
        r.join().expect("responder panicked");
    }
    gc.join().expect("gc panicked");

    shared.sample_memory();
    if let Some(output) = &shared.output {
        output.flush();
    }
    let stats = WorkerStats {
        tasks_finished: shared.counters.tasks_finished.load(Ordering::Relaxed),
        compute_calls: shared.counters.compute_calls.load(Ordering::Relaxed),
        cache: shared.cache.stats().snapshot(),
        net_bytes_sent: shared.net.stats().bytes_sent.load(Ordering::Relaxed),
        net_bytes_received: shared.net.stats().bytes_received.load(Ordering::Relaxed),
        spill_bytes: shared.spill.bytes_spilled(),
        peak_mem_bytes: shared.peak_mem.load(Ordering::Relaxed),
        idle_time: std::time::Duration::from_nanos(
            shared.counters.idle_nanos.load(Ordering::Relaxed),
        ),
        compute_time: std::time::Duration::from_nanos(
            shared.counters.compute_nanos.load(Ordering::Relaxed),
        ),
        output_records: shared.output.as_ref().map_or(0, |o| o.records()),
        steals: shared.counters.steals.load(Ordering::Relaxed),
        stolen_tasks: shared.counters.stolen_tasks.load(Ordering::Relaxed),
        parks: shared.counters.parks.load(Ordering::Relaxed),
        wakeups: shared.counters.wakeups.load(Ordering::Relaxed),
        responses_served: shared.counters.responses_served.load(Ordering::Relaxed),
        responder_backlog: shared.counters.responder_backlog.load(Ordering::Relaxed),
        responder_peak_backlog: shared.counters.responder_peak_backlog.load(Ordering::Relaxed),
        pull_retries: shared.counters.pull_retries.load(Ordering::Relaxed),
        remote_steals: shared.counters.remote_steals.load(Ordering::Relaxed),
        remote_stolen_tasks: shared.counters.remote_stolen_tasks.load(Ordering::Relaxed),
        steal_batch_bytes: shared.counters.steal_batch_bytes.load(Ordering::Relaxed),
        yields: shared.counters.yields.load(Ordering::Relaxed),
        split_tasks: shared.counters.split_tasks.load(Ordering::Relaxed),
        net_msgs_dropped: shared.net.fault_stats().map_or(0, |f| f.dropped.load(Ordering::Relaxed)),
        net_msgs_duplicated: shared
            .net
            .fault_stats()
            .map_or(0, |f| f.duplicated.load(Ordering::Relaxed)),
        net_msgs_delayed: shared.net.fault_stats().map_or(0, |f| f.delayed.load(Ordering::Relaxed)),
        trace_events_dropped: shared.metrics.ring.dropped(),
        recoveries: shared.recoveries.load(Ordering::Relaxed),
        peer_down_events: shared.net.stats().peer_downs_total(),
        rejoins: shared.rejoins.load(Ordering::Relaxed),
        resumed_epoch: shared.resumed_epoch.load(Ordering::Relaxed),
    };
    (stats, outcome, io_error)
}
