//! Task bundling effect — the paper's future-work optimization \[38\]
//! ("bundling tasks of low-degree vertices into big tasks"), proposed
//! to fix the weak 8→16-comper scaling of Table IV(b).
//!
//! Runs triangle counting on a heavy-tailed graph with growing bundle
//! thresholds and reports task counts, network traffic and runtime.
//! On scale-free graphs most vertices are low-degree, so the task
//! count collapses while the answer stays identical.
//!
//! `cargo run -p gthinker-bench --release --bin bundling_effect [--scale f]`

use gthinker_apps::BundledTriangleApp;
use gthinker_bench::{fmt_bytes, fmt_duration, scale_from_args};
use gthinker_core::prelude::*;
use gthinker_graph::gen;
use std::sync::Arc;

fn main() {
    let scale = scale_from_args(1.0);
    let n = (30_000.0 * scale) as usize;
    let g = gen::barabasi_albert(n.max(100), 4, 77);
    println!(
        "Bundling effect — TC on a BA graph ({} V, {} E), 4 workers × 2 compers\n",
        g.num_vertices(),
        g.num_edges()
    );
    println!(
        "{:>16} | {:>10} {:>10} {:>12} {:>12} | count",
        "bundle ≤ deg", "wall", "tasks", "net bytes", "misses"
    );
    gthinker_bench::rule(84);
    let mut reference = None;
    for threshold in [0usize, 2, 8, 32, 128] {
        let r =
            run_job(Arc::new(BundledTriangleApp::new(threshold)), &g, &JobConfig::cluster(4, 2))
                .unwrap();
        let count = *reference.get_or_insert(r.global);
        assert_eq!(r.global, count, "bundling changed the answer!");
        let misses: u64 = r.workers.iter().map(|w| w.cache.misses).sum();
        println!(
            "{threshold:>16} | {:>10} {:>10} {:>12} {:>12} | {}",
            fmt_duration(r.elapsed),
            r.total_tasks(),
            fmt_bytes(r.total_net_bytes()),
            misses,
            r.global
        );
    }
    println!("\nlarger thresholds collapse the low-degree task tail into few bundled tasks");
}
