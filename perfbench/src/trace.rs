//! The traced run's instruments: spans the benchmark records around its
//! own calls into each layer, and the per-layer ledger read from the
//! metrics each traced job exports.

use crate::stats::median;
use gthinker_core::MetricsSnapshot;
use gthinker_metrics::{now_nanos, EventKind, HistSnapshot};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.gen_s", "s"),
    ("graph.order_s", "s"),
    ("graph.gtc_build_s", "s"),
    ("graph.gtc_open_s", "s"),
    ("graph.trim_partition_s", "s"),
    ("graph.decode_ns_per_vertex", "ns"),
    ("graph.csr_ns_per_vertex", "ns"),
    ("store.cache_hits", "count"),
    ("store.cache_misses", "count"),
    ("store.cache_shared_waits", "count"),
    ("store.cache_hit_ratio", "ratio"),
    ("store.cache_evictions", "count"),
    ("store.gc_passes", "count"),
    ("store.pull_retries", "count"),
    ("store.stale_responses", "count"),
    ("net.bytes_sent", "bytes"),
    ("net.pull_rtt_p50_us", "us"),
    ("net.pull_rtt_p99_us", "us"),
    ("net.writev_calls", "count"),
    ("net.frames_coalesced", "count"),
    ("net.coalesce_ratio", "frames/call"),
    ("net.backpressure_stalls", "count"),
    ("task.tasks_finished", "count"),
    ("task.idle_s", "s"),
    ("task.busy_ratio", "ratio"),
    ("task.e2e_p50_us", "us"),
    ("task.e2e_p99_us", "us"),
    ("task.parks", "count"),
    ("task.wakeups", "count"),
    ("task.intra_steals", "count"),
    ("task.spill_bytes", "bytes"),
    ("core.remote_steals", "count"),
    ("core.remote_stolen_tasks", "count"),
    ("core.steal_batch_bytes", "bytes"),
    ("core.responses_served", "count"),
    ("core.responder_drain_p50_us", "us"),
    ("core.responder_peak_backlog", "count"),
    ("core.job_wall_s", "s"),
    ("core.startup_s", "s"),
    ("core.mining_s", "s"),
    ("core.term_tail_s", "s"),
    ("core.peak_mem_est_mb", "MB"),
    ("apps.compute_s", "s"),
    ("apps.compute_p50_us", "us"),
    ("apps.compute_p99_us", "us"),
    ("metrics.trace_events", "count"),
    ("metrics.trace_events_dropped", "count"),
    ("metrics.trace_overhead_pct", "%"),
];

/// One span: a call from the benchmark into a layer, on the library's
/// metrics timeline (`now_nanos`), so it lines up with job events.
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
}

/// Records spans in memory while enabled; a disabled tracer only runs
/// the closures.
pub struct Tracer {
    on: bool,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    /// Wall-clock time minus `now_nanos`, to place spans that job
    /// processes report in wall-clock time.
    unix_minus_mono: i128,
}

/// Nanoseconds since the Unix epoch.
pub fn unix_ns() -> i128 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as i128)
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        let unix_minus_mono = unix_ns() - now_nanos() as i128;
        Tracer { on, spans: RefCell::default(), open: RefCell::default(), unix_minus_mono }
    }

    /// Records a span another process timed, starting at `start_unix_ns`
    /// and lasting `secs`, as a child of the innermost open span.
    pub fn record_child(&self, name: &'static str, start_unix_ns: i128, secs: f64) {
        if !self.on {
            return;
        }
        let start = (start_unix_ns - self.unix_minus_mono).max(0) as u64;
        let end = start + (secs * 1e9) as u64;
        let parent = self.open.borrow().last().copied();
        self.spans.borrow_mut().push(Span { name, start, end, parent });
    }

    /// Runs `f` inside a span named `layer.call`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span { name, start: now_nanos(), end: 0, parent });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let r = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end = now_nanos();
        r
    }

    /// Writes the spans as Chrome `trace_event` JSON; each span's args
    /// carry its id, parent and self time (duration minus children).
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end - s.start;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{:.3},\
                 \"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"self_us\":{:.3}}}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.name.split('.').next().unwrap_or(""),
                s.start as f64 / 1e3,
                dur as f64 / 1e3,
                dur.saturating_sub(child_ns[i]) as f64 / 1e3,
            );
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}

/// Per-layer values of one traced job, read from its exported metrics.
/// `call`/`ret` bracket the job entry point on the `now_nanos` timeline.
pub fn job_ledger(
    m: &MetricsSnapshot,
    call: u64,
    ret: u64,
    peak_mem_bytes: u64,
    compers: usize,
) -> BTreeMap<&'static str, f64> {
    let sum = |f: &dyn Fn(&gthinker_core::WorkerMetricsSnapshot) -> u64| {
        m.workers.iter().map(f).sum::<u64>() as f64
    };
    let merged = |f: &dyn Fn(&gthinker_core::WorkerMetricsSnapshot) -> &HistSnapshot| {
        let mut h = HistSnapshot::default();
        m.workers.iter().for_each(|w| h.merge(f(w)));
        h
    };
    let us = |ns: u64| ns as f64 / 1e3;
    let wall_s = ret.saturating_sub(call) as f64 / 1e9;
    let hists = m.merged_hists();
    let rtt = merged(&|w| &w.pull_rtt);
    let drain = merged(&|w| &w.responder_drain);

    let mut l = BTreeMap::new();
    let hits = sum(&|w| w.cache.hits);
    let shared = sum(&|w| w.cache.shared_waits);
    let misses = sum(&|w| w.cache.misses);
    l.insert("store.cache_hits", hits);
    l.insert("store.cache_misses", misses);
    l.insert("store.cache_shared_waits", shared);
    l.insert("store.cache_hit_ratio", ratio(hits, hits + shared + misses));
    l.insert("store.cache_evictions", sum(&|w| w.cache.evictions));
    l.insert("store.gc_passes", sum(&|w| w.cache.gc_passes));
    l.insert("store.pull_retries", sum(&|w| w.cache.retries));
    l.insert("store.stale_responses", sum(&|w| w.cache.stale_responses));

    let writevs = sum(&|w| w.net_writev_calls);
    let frames = sum(&|w| w.net_frames_coalesced);
    l.insert("net.bytes_sent", sum(&|w| w.net_bytes_sent));
    l.insert("net.pull_rtt_p50_us", us(rtt.quantile(0.5)));
    l.insert("net.pull_rtt_p99_us", us(rtt.quantile(0.99)));
    l.insert("net.writev_calls", writevs);
    l.insert("net.frames_coalesced", frames);
    l.insert("net.coalesce_ratio", ratio(frames, writevs));
    l.insert("net.backpressure_stalls", sum(&|w| w.net_backpressure_stalls));

    let compute_s = sum(&|w| w.compute_nanos) / 1e9;
    l.insert("task.tasks_finished", sum(&|w| w.tasks_finished));
    l.insert("task.idle_s", sum(&|w| w.idle_nanos) / 1e9);
    l.insert("task.busy_ratio", ratio(compute_s, compers as f64 * wall_s));
    l.insert("task.e2e_p50_us", us(hists.e2e.quantile(0.5)));
    l.insert("task.e2e_p99_us", us(hists.e2e.quantile(0.99)));
    l.insert("task.parks", sum(&|w| w.parks));
    l.insert("task.wakeups", sum(&|w| w.wakeups));
    l.insert("task.intra_steals", sum(&|w| w.steals));
    l.insert("task.spill_bytes", sum(&|w| w.spill_bytes));

    l.insert("core.remote_steals", sum(&|w| w.remote_steals));
    l.insert("core.remote_stolen_tasks", sum(&|w| w.remote_stolen_tasks));
    l.insert("core.steal_batch_bytes", sum(&|w| w.steal_batch_bytes));
    l.insert("core.responses_served", sum(&|w| w.responses_served));
    l.insert("core.responder_drain_p50_us", us(drain.quantile(0.5)));
    let peak_backlog = m.workers.iter().map(|w| w.responder_peak_backlog).max().unwrap_or(0);
    l.insert("core.responder_peak_backlog", peak_backlog as f64);
    l.insert("core.peak_mem_est_mb", peak_mem_bytes as f64 / (1024.0 * 1024.0));
    l.insert("core.job_wall_s", wall_s);

    l.insert("apps.compute_s", compute_s);
    l.insert("apps.compute_p50_us", us(hists.compute.quantile(0.5)));
    l.insert("apps.compute_p99_us", us(hists.compute.quantile(0.99)));

    let dropped = sum(&|w| w.trace_events_dropped);
    l.insert(
        "metrics.trace_events",
        m.workers.iter().map(|w| w.events.len()).sum::<usize>() as f64,
    );
    l.insert("metrics.trace_events_dropped", dropped);
    // A ring that dropped events lost the job's first ones: start-up is
    // then unknown, and the phase split is left out rather than guessed.
    if dropped == 0.0 {
        if let Some((startup, mining, tail)) = phase_split(m, call, ret) {
            l.insert("core.startup_s", startup);
            l.insert("core.mining_s", mining);
            l.insert("core.term_tail_s", tail);
        }
    }
    l
}

/// Splits `[call, ret]` into start-up (to the first `Compute` event),
/// the mining window, and the termination tail (from the later of the
/// last `Compute` end and the last `QuiesceEnter`). The three parts sum
/// to the job wall exactly.
fn phase_split(m: &MetricsSnapshot, call: u64, ret: u64) -> Option<(f64, f64, f64)> {
    let events = m.workers.iter().flat_map(|w| w.events.iter());
    let mut first = u64::MAX;
    let mut last = 0u64;
    for e in events {
        match e.kind {
            EventKind::Compute => {
                first = first.min(e.ts);
                last = last.max(e.ts + e.dur);
            }
            EventKind::QuiesceEnter => last = last.max(e.ts),
            _ => {}
        }
    }
    if first == u64::MAX {
        return None;
    }
    let first = first.clamp(call, ret);
    let last = last.clamp(first, ret);
    let s = |ns: u64| ns as f64 / 1e9;
    Some((s(first - call), s(last - first), s(ret - last)))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

const PHASES: [&str; 4] =
    ["core.job_wall_s", "core.startup_s", "core.mining_s", "core.term_tail_s"];

/// Folds the ledgers of all traced jobs into one value per metric: the
/// median over the jobs that reported it. The phase split is taken
/// whole from the median-wall job that has one, so its three parts
/// still sum to that job's `core.job_wall_s`.
pub fn fold(ledgers: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let mut cols: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for l in ledgers {
        for (&k, &v) in l {
            cols.entry(k).or_default().push(v);
        }
    }
    let mut out: BTreeMap<_, _> = cols.into_iter().map(|(k, v)| (k, median(&v))).collect();
    let mut split: Vec<_> = ledgers.iter().filter(|l| l.contains_key("core.startup_s")).collect();
    split.sort_by(|a, b| a["core.job_wall_s"].total_cmp(&b["core.job_wall_s"]));
    if let Some(mid) = split.get(split.len().saturating_sub(1) / 2) {
        for k in PHASES {
            out.insert(k, mid[k]);
        }
    }
    out
}
