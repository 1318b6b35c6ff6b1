//! Integration tests for the metrics registry: full snapshots from a
//! live job, lossless histogram merging, and the event timeline.

use gthinker_core::prelude::*;
use gthinker_core::run_job_observed;
use gthinker_graph::gen;
use std::sync::Arc;
use std::time::Duration;

struct Sum;
impl Aggregator for Sum {
    type Item = u64;
    type Partial = u64;
    type Global = u64;
    fn init_partial(&self) -> u64 {
        0
    }
    fn init_global(&self) -> u64 {
        0
    }
    fn aggregate(&self, p: &mut u64, item: u64) {
        *p += item;
    }
    fn merge(&self, g: &mut u64, p: &u64) {
        *g += *p;
    }
}

/// Edge counter that pulls, so cache/network/responder paths all run.
struct EdgeCount;
impl App for EdgeCount {
    type Context = ();
    type Agg = Sum;
    fn make_aggregator(&self) -> Sum {
        Sum
    }
    fn task_spawn(&self, v: VertexId, adj: &AdjList, env: &mut SpawnEnv<'_, Self>) {
        let mut t = Task::new(());
        for u in adj.greater_than(v) {
            t.pull(*u);
        }
        if t.has_pulls() {
            env.add_task(t);
        }
    }
    fn compute(&self, _t: &mut Task<()>, f: &Frontier, env: &mut ComputeEnv<'_, Self>) -> bool {
        env.aggregate(f.len() as u64);
        false
    }
}

/// At quiescence, merging every comper's e2e histogram loses nothing:
/// the summed bucket counts equal the number of finished tasks, and
/// per-worker histogram counts equal that worker's own counter.
#[cfg(feature = "metrics")]
#[test]
fn final_histograms_merge_losslessly() {
    let g = gen::barabasi_albert(2_000, 5, 11);
    let r = run_job(Arc::new(EdgeCount), &g, &JobConfig::cluster(2, 3)).unwrap();
    assert_eq!(r.global, g.num_edges() as u64);
    let m = &r.metrics;
    assert_eq!(m.total_tasks(), r.total_tasks());
    for (w, stats) in m.workers.iter().zip(&r.workers) {
        let merged = w.merged_hists();
        assert_eq!(
            merged.e2e.count(),
            stats.tasks_finished,
            "per-worker e2e samples must equal tasks_finished"
        );
        // Per-comper counts sum to the merged count (no bucket lost).
        let per_comper: u64 = w.compers.iter().map(|c| c.e2e.count()).sum();
        assert_eq!(per_comper, merged.e2e.count());
        assert_eq!(merged.compute.count(), stats.compute_calls);
    }
    assert_eq!(m.merged_hists().e2e.count(), r.total_tasks());
    // Quantiles of a populated histogram are usable.
    let e2e = m.merged_hists().e2e;
    assert!(e2e.quantile(0.5) <= e2e.quantile(0.99));
    assert!(e2e.quantile(0.99) <= e2e.max_estimate());
}

/// The metrics observer receives full snapshots whose derived progress
/// view is monotone, and mid-run merged histogram counts never exceed
/// the final count (histograms only grow).
#[test]
fn metrics_observer_sees_growing_snapshots() {
    let g = gen::barabasi_albert(3_000, 5, 13);
    let sink = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let s = Arc::clone(&sink);
    let mut cfg = JobConfig::cluster(2, 2);
    cfg.sync_interval = Duration::from_millis(5);
    let r = run_job_observed(Arc::new(EdgeCount), &g, &cfg, move |m| {
        s.lock().push(m.clone());
    })
    .unwrap();
    assert_eq!(r.global, g.num_edges() as u64);
    let snaps = sink.lock();
    assert!(!snaps.is_empty(), "observer must fire at least once");
    for w in snaps.windows(2) {
        assert!(w[1].total_tasks() >= w[0].total_tasks());
        assert!(w[1].merged_hists().e2e.count() >= w[0].merged_hists().e2e.count());
        assert!(w[1].progress().cache_misses >= w[0].progress().cache_misses);
    }
    let final_count = r.metrics.merged_hists().e2e.count();
    for s in snaps.iter() {
        assert!(s.merged_hists().e2e.count() <= final_count);
        // Mid-run snapshots never include event dumps.
        assert!(s.workers.iter().all(|w| w.events.is_empty()));
    }
}

/// With a non-zero trace capacity the final snapshot carries events,
/// and the Chrome trace export renders them with the required keys.
#[cfg(feature = "metrics")]
#[test]
fn trace_capacity_yields_events_and_chrome_json() {
    let g = gen::barabasi_albert(2_000, 5, 17);
    let mut cfg = JobConfig::cluster(2, 2);
    cfg.trace_capacity = 4_096;
    let r = run_job(Arc::new(EdgeCount), &g, &cfg).unwrap();
    assert_eq!(r.global, g.num_edges() as u64);
    let total_events: usize = r.metrics.workers.iter().map(|w| w.events.len()).sum();
    assert!(total_events > 0, "tracing on but no events recorded");
    // Events within each worker come back time-sorted.
    for w in &r.metrics.workers {
        assert!(w.events.windows(2).all(|e| e[0].ts <= e[1].ts));
    }
    let mut buf = Vec::new();
    r.metrics.write_chrome_trace(&mut buf).unwrap();
    let json = String::from_utf8(buf).unwrap();
    for key in ["\"ph\"", "\"ts\"", "\"pid\"", "\"tid\"", "process_name", "thread_name"] {
        assert!(json.contains(key), "trace JSON missing {key}");
    }
    assert!(json.trim_start().starts_with('['));
    assert!(json.trim_end().ends_with(']'));
}

/// With trace capacity zero (the default) no events are kept, so the
/// hot paths skip all timestamping for spans.
#[test]
fn tracing_disabled_by_default() {
    let g = gen::gnp(300, 0.05, 3);
    let r = run_job(Arc::new(EdgeCount), &g, &JobConfig::single_machine(2)).unwrap();
    assert!(r.metrics.workers.iter().all(|w| w.events.is_empty()));
    // Exports still render (headers only).
    let mut buf = Vec::new();
    r.metrics.write_chrome_trace(&mut buf).unwrap();
    assert!(!r.metrics.to_json().is_empty());
    assert!(!r.metrics.tail_report().is_empty());
}
