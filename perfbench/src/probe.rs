//! `graph`-layer probes of the traced run: the benchmark's own timed
//! calls into the graph crate's public functions, on the workload's
//! (first) input graph.

use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{Setup, WORKERS};
use gthinker_graph::compressed::{write_compressed, CompressedGraph};
use gthinker_graph::ids::VertexId;
use gthinker_graph::order::degeneracy_relabel;
use gthinker_graph::partition::HashPartitioner;
use gthinker_graph::store::AdjacencyStore;
use gthinker_graph::trim::{trim_graph, GreaterIdTrimmer};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repeats of a probe: at least this many, and until this much time.
const MIN_REPS: usize = 3;
const MIN_PROBE_TIME: Duration = Duration::from_millis(50);

fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Median seconds of `f` over repeated calls.
fn repeated(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut xs = Vec::new();
    while xs.len() < MIN_REPS || start.elapsed() < MIN_PROBE_TIME {
        xs.push(secs(&mut f));
    }
    median(&xs)
}

/// Nanoseconds per vertex of one `AdjacencyStore::adjacency` sweep.
fn sweep_ns_per_vertex(store: &dyn AdjacencyStore) -> f64 {
    let n = store.num_vertices();
    let s = repeated(|| {
        let degrees: usize = (0..n as u32).map(|v| store.adjacency(VertexId(v)).degree()).sum();
        black_box(degrees);
    });
    s * 1e9 / n.max(1) as f64
}

/// The `graph.*` ledger entries. Set-up phases the workload already
/// ran (`phases`, medians over its set-ups) are reused; the rest are
/// timed here.
pub fn graph(
    tracer: &Tracer,
    s: &Setup,
    phases: &BTreeMap<&'static str, f64>,
    run_dir: &Path,
) -> io::Result<BTreeMap<&'static str, f64>> {
    let g = &s.graphs[0];
    let mut l = BTreeMap::new();
    l.insert("graph.gen_s", phases["graph.gen"]);
    let order = match phases.get("graph.order") {
        Some(&t) => t,
        None => tracer.span("graph.order", || secs(|| drop(degeneracy_relabel(g)))),
    };
    l.insert("graph.order_s", order);
    let mapped = match &s.mapped {
        Some(m) => {
            l.insert("graph.gtc_build_s", phases["graph.gtc_build"]);
            l.insert("graph.gtc_open_s", phases["graph.gtc_open"]);
            Arc::clone(m)
        }
        None => {
            let path = run_dir.join("probe.gtc");
            let t = Instant::now();
            tracer.span("graph.gtc_build", || write_compressed(g, &path))?;
            l.insert("graph.gtc_build_s", t.elapsed().as_secs_f64());
            let t = Instant::now();
            let c = tracer.span("graph.gtc_open", || CompressedGraph::open(&path))?;
            l.insert("graph.gtc_open_s", t.elapsed().as_secs_f64());
            Arc::new(c)
        }
    };
    let trim_partition = tracer.span("graph.trim_partition", || {
        repeated(|| {
            let trimmed = trim_graph(g, &GreaterIdTrimmer);
            black_box(HashPartitioner::new(WORKERS as u16).split(&trimmed));
        })
    });
    l.insert("graph.trim_partition_s", trim_partition);
    let decode = tracer.span("graph.decode_sweep", || sweep_ns_per_vertex(&*mapped));
    l.insert("graph.decode_ns_per_vertex", decode);
    let csr = tracer.span("graph.csr_sweep", || sweep_ns_per_vertex(g));
    l.insert("graph.csr_ns_per_vertex", csr);
    Ok(l)
}
