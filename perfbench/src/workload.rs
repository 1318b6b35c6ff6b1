//! The four workloads: input generation (set-up), the serial reference
//! answer, one job through the library's public entry points, and the
//! check of a job's answer against the reference.

use crate::trace::Tracer;
use gthinker_apps::serial::clique::max_clique_above;
use gthinker_apps::serial::triangle::count_triangles;
use gthinker_apps::{MaxCliqueApp, TriangleApp};
use gthinker_core::{
    run_job, run_worker_process_source_on, Aggregator, App, ClusterRole, GraphSource, JobConfig,
    JobOutcome, JobResult, MetricsSnapshot,
};
use gthinker_graph::compressed::{write_compressed, CompressedGraph};
use gthinker_graph::gen;
use gthinker_graph::graph::Graph;
use gthinker_graph::ids::{VertexId, WorkerId};
use gthinker_graph::load::{load_binary_file, write_binary};
use gthinker_graph::order::degeneracy_relabel;
use gthinker_graph::subgraph::Subgraph;
use gthinker_net::tcp::ClusterManifest;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workers per job and compers per worker: mining threads equal the
/// cores of the 2-core reference host.
pub const WORKERS: usize = 2;
pub const COMPERS: usize = 1;

/// `barabasi_albert(TC_N, TC_M)`: the TC graph of `tc-pull` and `tc-cluster`.
const TC_N: usize = 200_000;
const TC_M: usize = 12;
/// `tc-cluster`'s `c_cache`, in vertices: below the ~100k distinct
/// remote vertices each worker pulls, so every job runs GC passes,
/// evicts and pulls some vertices again.
const TC_CLUSTER_CACHE: usize = 60_000;
/// `gnp(MCF_N, MCF_P)`, degeneracy-ordered: the MCF graph.
const MCF_N: usize = 4_000;
const MCF_P: f64 = 0.1;
/// `tiny-jobs` cycles through `TINY_POOL` graphs `gnp(TINY_N, TINY_P)`.
const TINY_POOL: usize = 8;
const TINY_N: usize = 200;
const TINY_P: f64 = 0.05;
/// `tc-cluster`'s `.gtc`, in the run directory.
const GTC_FILE: &str = "tc.gtc";
/// Bound on the TCP rendezvous of one `tc-cluster` job.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(30);

type Global<A> = <<A as App>::Agg as Aggregator>::Global;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TcPull,
    TcCluster,
    McfCompute,
    TinyJobs,
}

impl Workload {
    const ALL: [Workload; 4] =
        [Workload::TcPull, Workload::TcCluster, Workload::McfCompute, Workload::TinyJobs];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TcPull => "tc-pull",
            Workload::TcCluster => "tc-cluster",
            Workload::McfCompute => "mcf-compute",
            Workload::TinyJobs => "tiny-jobs",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Jobs a run makes at least, however short `--seconds` is.
    pub fn min_jobs(self) -> usize {
        match self {
            Workload::TinyJobs => 100,
            _ => 5,
        }
    }

    /// Per-worker event-ring capacity of a traced job: room for every
    /// event the job records, so the ring never drops the job's start.
    pub fn trace_capacity(self) -> usize {
        match self {
            Workload::TcPull | Workload::TcCluster => 1 << 19,
            Workload::McfCompute => 1 << 16,
            Workload::TinyJobs => 1 << 12,
        }
    }

    /// The job configuration: `JobConfig::cluster(2, 1)` defaults, with
    /// spill files under the run's own directory and `tc-cluster`'s
    /// cache capacity set below its working set.
    pub fn config(self, run_dir: &Path, trace_capacity: usize) -> JobConfig {
        let mut cfg = JobConfig::cluster(WORKERS, COMPERS);
        cfg.spill_dir = run_dir.join("spill");
        cfg.trace_capacity = trace_capacity;
        if self == Workload::TcCluster {
            cfg.cache.capacity = TC_CLUSTER_CACHE;
        }
        cfg
    }
}

/// A workload's inputs, as set-up leaves them.
pub struct Setup {
    /// The in-RAM graphs: the ones sim jobs run on, or for `tc-cluster`
    /// the graph its `.gtc` was built from.
    pub graphs: Vec<Graph>,
    /// `tc-cluster`'s mapped `.gtc`.
    pub mapped: Option<Arc<CompressedGraph>>,
    /// Seconds spent in each set-up phase (`graph.gen`, `graph.order`,
    /// `graph.gtc_build`, `graph.gtc_open`).
    pub phases: Vec<(&'static str, f64)>,
}

/// The files job processes read their graph from.
pub struct Inputs {
    /// One binary adjacency file per in-RAM graph.
    pub ram: Vec<PathBuf>,
    /// `tc-cluster`'s `.gtc`.
    pub gtc: Option<PathBuf>,
}

impl Inputs {
    /// The graph file of job number `i`.
    pub fn job(&self, i: usize) -> &Path {
        self.gtc.as_deref().unwrap_or(&self.ram[i % self.ram.len()])
    }
}

/// Writes the in-RAM graphs for the job processes, next to the `.gtc`
/// set-up built. Untimed: this is the benchmark's plumbing.
pub fn write_inputs(s: &Setup, run_dir: &Path) -> io::Result<Inputs> {
    let mut ram = Vec::new();
    for (i, g) in s.graphs.iter().enumerate() {
        let path = run_dir.join(format!("g{i}.bin"));
        write_binary(g, std::fs::File::create(&path)?)?;
        ram.push(path);
    }
    let gtc = s.mapped.as_ref().map(|_| run_dir.join(GTC_FILE));
    Ok(Inputs { ram, gtc })
}

/// A job process's graph: in RAM or mapped.
pub enum Input {
    Ram(Graph),
    Mapped(Arc<CompressedGraph>),
}

impl Input {
    /// Loads the file [`write_inputs`] or set-up wrote.
    pub fn load(path: &Path) -> io::Result<Input> {
        if path.extension().is_some_and(|e| e == "gtc") {
            return Ok(Input::Mapped(Arc::new(CompressedGraph::open(path)?)));
        }
        let g = load_binary_file(path).map_err(|e| io::Error::other(e.to_string()))?;
        Ok(Input::Ram(g))
    }
}

/// Times one set-up phase inside a span of the same name.
fn timed<R>(
    tracer: &Tracer,
    phases: &mut Vec<(&'static str, f64)>,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    let t = Instant::now();
    let r = tracer.span(name, f);
    phases.push((name, t.elapsed().as_secs_f64()));
    r
}

/// Derives the seed of the `i`-th input of a run (splitmix64).
fn sub_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generates the workload's inputs from `seed`.
pub fn setup(w: Workload, seed: u64, run_dir: &Path, tracer: &Tracer) -> io::Result<Setup> {
    let mut phases = Vec::new();
    let mut mapped = None;
    let graphs = match w {
        Workload::TcPull => {
            vec![timed(tracer, &mut phases, "graph.gen", || gen::barabasi_albert(TC_N, TC_M, seed))]
        }
        Workload::TcCluster => {
            let g =
                timed(tracer, &mut phases, "graph.gen", || gen::barabasi_albert(TC_N, TC_M, seed));
            let path = run_dir.join(GTC_FILE);
            timed(tracer, &mut phases, "graph.gtc_build", || write_compressed(&g, &path))?;
            let c = timed(tracer, &mut phases, "graph.gtc_open", || CompressedGraph::open(&path))?;
            mapped = Some(Arc::new(c));
            vec![g]
        }
        Workload::McfCompute => {
            let g = timed(tracer, &mut phases, "graph.gen", || gen::gnp(MCF_N, MCF_P, seed));
            vec![timed(tracer, &mut phases, "graph.order", || degeneracy_relabel(&g).0)]
        }
        Workload::TinyJobs => timed(tracer, &mut phases, "graph.gen", || {
            (0..TINY_POOL as u64).map(|i| gen::gnp(TINY_N, TINY_P, sub_seed(seed, i))).collect()
        }),
    };
    Ok(Setup { graphs, mapped, phases })
}

/// The serial reference answer, one per input graph.
#[derive(Debug)]
pub enum Reference {
    /// Triangle count of each graph.
    Triangles(Vec<u64>),
    /// Maximum clique size.
    CliqueSize(usize),
}

impl std::fmt::Display for Reference {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Reference::Triangles(c) if c.len() == 1 => write!(f, "triangles={}", c[0]),
            Reference::Triangles(c) => write!(f, "triangles={c:?}"),
            Reference::CliqueSize(k) => write!(f, "max_clique={k}"),
        }
    }
}

/// Computes the reference answers serially from the in-RAM graphs.
pub fn reference(w: Workload, s: &Setup) -> Reference {
    match w {
        Workload::McfCompute => {
            let g = &s.graphs[0];
            let mut sg = Subgraph::new();
            for v in g.vertices() {
                sg.add_vertex(v, g.neighbors(v).clone());
            }
            let local = sg.to_local();
            let best = max_clique_above(&local, 0).expect("a non-empty graph has a clique");
            let members = local.to_global(&best);
            assert!(is_clique(g, &members), "the serial reference returned a non-clique");
            Reference::CliqueSize(members.len())
        }
        _ => Reference::Triangles(s.graphs.iter().map(count_triangles).collect()),
    }
}

fn is_clique(g: &Graph, members: &[VertexId]) -> bool {
    let mut sorted = members.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len() == members.len()
        && members
            .iter()
            .enumerate()
            .all(|(i, &u)| members[i + 1..].iter().all(|&v| g.has_edge(u, v)))
}

/// A job's answer.
#[derive(Debug)]
pub enum Answer {
    Triangles(u64),
    Clique(Vec<VertexId>),
}

/// What one job returned.
pub struct JobOut {
    pub answer: Answer,
    pub outcome: JobOutcome,
    /// Cluster-wide metrics (the sim's registry, or the TCP master's
    /// merge of every worker's final report).
    pub metrics: MetricsSnapshot,
    /// `JobResult::peak_mem_bytes`, maximum over all workers.
    pub peak_mem_bytes: u64,
}

/// Runs one job of the workload on `input`, through the library's
/// public entry points.
pub fn run(w: Workload, input: &Input, cfg: &JobConfig) -> io::Result<JobOut> {
    match (w, input) {
        (Workload::TcPull | Workload::TinyJobs, Input::Ram(g)) => {
            sim(TriangleApp, g, cfg, Answer::Triangles)
        }
        (Workload::McfCompute, Input::Ram(g)) => {
            sim(MaxCliqueApp::default(), g, cfg, Answer::Clique)
        }
        (Workload::TcCluster, Input::Mapped(c)) => cluster(TriangleApp, c, cfg, Answer::Triangles),
        _ => Err(io::Error::new(io::ErrorKind::InvalidInput, "wrong graph kind for the workload")),
    }
}

/// Checks job `i`'s answer against the reference.
pub fn check(s: &Setup, reference: &Reference, i: usize, answer: &Answer) -> Result<(), String> {
    match (reference, answer) {
        (Reference::Triangles(counts), Answer::Triangles(got)) => {
            let want = counts[i % counts.len()];
            if *got == want {
                Ok(())
            } else {
                Err(format!("counted {got} triangles, reference {want}"))
            }
        }
        (Reference::CliqueSize(want), Answer::Clique(members)) => {
            if members.len() != *want {
                Err(format!("clique of {} vertices, reference {want}", members.len()))
            } else if !is_clique(&s.graphs[0], members) {
                Err(format!("returned vertices {members:?} are not a clique"))
            } else {
                Ok(())
            }
        }
        _ => Err("answer of the wrong kind".into()),
    }
}

fn sim<A: App>(
    app: A,
    g: &Graph,
    cfg: &JobConfig,
    answer: impl FnOnce(Global<A>) -> Answer,
) -> io::Result<JobOut> {
    let r = run_job(Arc::new(app), g, cfg)?;
    Ok(job_out(r, 0, answer))
}

/// One job on a 2-worker loopback TCP mesh hosted in this process: one
/// thread per worker, each with its own pre-bound port-0 listener.
fn cluster<A: App>(
    app: A,
    mapped: &Arc<CompressedGraph>,
    cfg: &JobConfig,
    answer: impl FnOnce(Global<A>) -> Answer,
) -> io::Result<JobOut>
where
    Global<A>: Send,
{
    let app = Arc::new(app);
    let (manifest, listeners) = ClusterManifest::loopback(WORKERS)?;
    let roles = std::thread::scope(|scope| {
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(w, listener)| {
                let (app, mapped, manifest) = (Arc::clone(&app), Arc::clone(mapped), &manifest);
                scope.spawn(move || {
                    run_worker_process_source_on(
                        app,
                        GraphSource::Mapped(mapped),
                        cfg,
                        manifest,
                        WorkerId(w as u16),
                        CONNECT_TIMEOUT,
                        listener,
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect::<Vec<_>>()
    });
    let mut master = None;
    let mut peak = 0;
    for role in roles {
        match role {
            Err(_) => return Err(io::Error::other("a worker thread panicked")),
            Ok(Err(e)) => return Err(e),
            Ok(Ok(ClusterRole::Master(r))) => master = Some(r),
            Ok(Ok(ClusterRole::Worker(stats, _))) => peak = peak.max(stats.peak_mem_bytes),
        }
    }
    let master = master.ok_or_else(|| io::Error::other("no worker returned the master role"))?;
    Ok(job_out(master, peak, answer))
}

fn job_out<G>(r: JobResult<G>, other_peak: u64, answer: impl FnOnce(G) -> Answer) -> JobOut {
    JobOut {
        peak_mem_bytes: r.peak_mem_bytes().max(other_peak),
        outcome: r.outcome,
        metrics: r.metrics,
        answer: answer(r.global),
    }
}
