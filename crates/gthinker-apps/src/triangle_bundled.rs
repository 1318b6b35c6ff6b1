//! Triangle counting with **low-degree task bundling** — the paper's
//! future-work optimization (\[38\], discussed under Table IV(b)):
//! "tasks spawned from many low-degree vertices do not generate large
//! enough subgraphs to hide IO cost in the computation, but this can
//! be solved by bundling tasks of low-degree vertices into big tasks".
//!
//! Vertices whose `|Γ_>|` is at most `bundle_threshold` are merged —
//! within each spawn batch — into one task that pulls the union of
//! their candidate sets and counts all their triangles together;
//! higher-degree vertices still get individual tasks. Results are
//! identical to [`crate::TriangleApp`]; the task count (and thus
//! per-task overhead and round trips) drops sharply on heavy-tailed
//! graphs.

use crate::triangle::SumAgg;
use gthinker_core::prelude::*;
use gthinker_graph::adj::{AdjList, SharedAdj};
use gthinker_graph::trim::{GreaterIdTrimmer, Trimmer};

/// Triangle counting with bundled low-degree spawns.
pub struct BundledTriangleApp {
    /// Vertices with `|Γ_>(v)| ≤ threshold` are bundled.
    pub bundle_threshold: usize,
}

impl BundledTriangleApp {
    /// Creates the app; `threshold = 0` disables bundling (every task
    /// is individual, equivalent to [`crate::TriangleApp`]).
    pub fn new(bundle_threshold: usize) -> Self {
        BundledTriangleApp { bundle_threshold }
    }
}

/// Context: the bundled anchors with their `Γ_>` sets.
type Anchors = Vec<(VertexId, Vec<VertexId>)>;

impl App for BundledTriangleApp {
    type Context = Anchors;
    type Agg = SumAgg;

    fn make_aggregator(&self) -> SumAgg {
        SumAgg
    }

    fn trimmer(&self) -> Option<Box<dyn Trimmer>> {
        Some(Box::new(GreaterIdTrimmer))
    }

    fn task_spawn(&self, v: VertexId, adj: &AdjList, env: &mut SpawnEnv<'_, Self>) {
        // Individual (non-bundled) spawn path.
        if adj.degree() < 2 {
            return;
        }
        let mut t = Task::new(vec![(v, adj.iter().collect())]);
        for u in adj.iter() {
            t.pull(u);
        }
        env.add_task(t);
    }

    fn task_spawn_batch(
        &self,
        verts: &[(VertexId, SharedAdj, Option<Label>)],
        env: &mut SpawnEnv<'_, Self>,
    ) {
        let mut bundle: Anchors = Vec::new();
        let mut bundle_pulls: Vec<VertexId> = Vec::new();
        for (v, adj, _) in verts {
            if adj.degree() < 2 {
                continue;
            }
            if adj.degree() <= self.bundle_threshold {
                bundle.push((*v, adj.iter().collect()));
                bundle_pulls.extend(adj.iter());
            } else {
                self.task_spawn(*v, adj, env);
            }
        }
        if !bundle.is_empty() {
            let mut t = Task::new(bundle);
            for u in bundle_pulls {
                t.pull(u); // Task::pull deduplicates across anchors
            }
            env.add_task(t);
        }
    }

    fn compute(
        &self,
        task: &mut Task<Anchors>,
        frontier: &Frontier,
        env: &mut ComputeEnv<'_, Self>,
    ) -> bool {
        let mut count = 0u64;
        for (_, gv) in &task.context {
            for u in gv {
                let adj = frontier.get(*u).expect("every anchor neighbor was pulled");
                count += adj.intersection_count(gv) as u64;
            }
        }
        if count > 0 {
            env.aggregate(count);
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::triangle::count_triangles;
    use crate::TriangleApp;
    use gthinker_graph::gen;
    use std::sync::Arc;

    #[test]
    fn bundled_counts_match_unbundled() {
        let g = gen::barabasi_albert(800, 4, 13);
        let expected = count_triangles(&g);
        for threshold in [0usize, 4, 16, 1_000_000] {
            let r = run_job(
                Arc::new(BundledTriangleApp::new(threshold)),
                &g,
                &JobConfig::single_machine(2),
            )
            .unwrap();
            assert_eq!(r.global, expected, "threshold {threshold}");
        }
    }

    #[test]
    fn bundling_reduces_task_count() {
        let g = gen::barabasi_albert(2_000, 3, 5);
        let plain = run_job(Arc::new(TriangleApp), &g, &JobConfig::single_machine(2)).unwrap();
        let bundled =
            run_job(Arc::new(BundledTriangleApp::new(16)), &g, &JobConfig::single_machine(2))
                .unwrap();
        assert_eq!(plain.global, bundled.global);
        assert!(
            bundled.total_tasks() < plain.total_tasks() / 2,
            "bundling should collapse low-degree tasks: {} vs {}",
            bundled.total_tasks(),
            plain.total_tasks()
        );
    }

    #[test]
    fn distributed_bundled_matches() {
        let g = gen::barabasi_albert(600, 5, 21);
        let expected = count_triangles(&g);
        let r =
            run_job(Arc::new(BundledTriangleApp::new(8)), &g, &JobConfig::cluster(3, 2)).unwrap();
        assert_eq!(r.global, expected);
    }
}
