//! Distributed subgraph matching (GM).
//!
//! Given a small connected labeled query [`Pattern`], counts its
//! embeddings in the data graph. Redundancy is avoided by partitioning
//! the search space over *instances of the anchor label* (the strategy
//! the paper attributes to its preprint \[34\]): each task counts only
//! the embeddings that map query vertex 0 to its spawn vertex.
//!
//! A task grows the anchor's ego network hop by hop up to the query's
//! anchor radius — pulling only vertices whose labels appear in the
//! query (the [`LabelSetTrimmer`] already removed the rest from every
//! adjacency list) — and then runs the serial backtracking matcher.

use crate::serial::matching::{count_embeddings_from, count_embeddings_from_pair, Pattern};
use crate::triangle::SumAgg;
use gthinker_core::prelude::*;
use gthinker_graph::adj::AdjList;
use gthinker_graph::ids::Label;
use gthinker_graph::trim::{LabelSetTrimmer, Trimmer};

/// The subgraph matching application.
pub struct MatchingApp {
    pattern: Pattern,
    /// The data graph's label table (needed by the trimmer).
    labels: Vec<Label>,
}

impl MatchingApp {
    /// Creates a matching job for `pattern` over a data graph with the
    /// given label table.
    pub fn new(pattern: Pattern, labels: Vec<Label>) -> Self {
        MatchingApp { pattern, labels }
    }

    /// The query pattern.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }
}

/// Task context: how many hops of the ego network have been pulled,
/// plus — for a subtask split off a straggler — the data vertex
/// pre-assigned to the second matching-order query vertex (empty for a
/// root task).
type MatchCtx = (u64, Vec<VertexId>);

impl App for MatchingApp {
    type Context = MatchCtx;
    type Agg = SumAgg;

    fn make_aggregator(&self) -> SumAgg {
        SumAgg
    }

    fn trimmer(&self) -> Option<Box<dyn Trimmer>> {
        Some(Box::new(LabelSetTrimmer::new(&self.pattern.label_set(), self.labels.clone())))
    }

    fn task_spawn(&self, v: VertexId, adj: &AdjList, env: &mut SpawnEnv<'_, Self>) {
        // Only anchor-label vertices spawn tasks.
        if env.label() != Some(self.pattern.label(0)) {
            return;
        }
        if self.pattern.num_vertices() == 1 {
            env.aggregate(1); // the pattern is a single labeled vertex
            return;
        }
        let mut t = Task::new((0u64, Vec::new()));
        t.subgraph.add_labeled_vertex(v, self.pattern.label(0), adj.clone());
        for u in adj.iter() {
            t.pull(u);
        }
        if t.has_pulls() {
            env.add_task(t);
        }
        // No eligible neighbors: no embedding can anchor here.
    }

    fn compute(
        &self,
        task: &mut Task<MatchCtx>,
        frontier: &Frontier,
        env: &mut ComputeEnv<'_, Self>,
    ) -> bool {
        if let Some(&second) = task.context.1.first() {
            // A split-off subtask: the ego net is already materialized,
            // the second matching-order vertex is pre-assigned.
            let local = task.subgraph.to_local();
            let find =
                |g: VertexId| (0..local.num_vertices() as u32).find(|&i| local.global_id(i) == g);
            let anchor = find(*task.subgraph.vertex_ids().first().expect("anchor"))
                .expect("anchor is in its own subgraph");
            let second = find(second).expect("pre-assigned vertex is in the subgraph");
            let count = count_embeddings_from_pair(&local, &self.pattern, anchor, second);
            if count > 0 {
                env.aggregate(count);
            }
            return false;
        }
        task.context.0 += 1;
        let hop = task.context.0;
        let radius = self.pattern.anchor_radius() as u64;
        // Incorporate this hop's vertices (labels from the replicated
        // table; lists arrive already trimmed to query labels).
        let mut next: Vec<VertexId> = Vec::new();
        for (u, adj) in frontier.iter() {
            let label = env.label_of(u).expect("matching requires a labeled graph");
            if task.subgraph.add_labeled_vertex(u, label, (**adj).clone()) && hop < radius {
                for w in adj.iter() {
                    if !task.subgraph.contains(w) {
                        next.push(w);
                    }
                }
            }
        }
        if hop < radius && !next.is_empty() {
            for w in next {
                task.pull(w);
            }
            return true;
        }
        // Ego net complete: run the serial matcher.
        let local = task.subgraph.to_local();
        let anchor = (0..local.num_vertices() as u32)
            .find(|&i| local.global_id(i) == *task.subgraph.vertex_ids().first().expect("anchor"))
            .expect("anchor is in its own subgraph");
        // Straggler splitting: when the anchor has more data-neighbors
        // than the compute budget, ship one subtask per candidate for
        // the second matching-order vertex (its candidates at depth 1
        // are exactly Γ(anchor)); the per-pair counts partition the
        // anchored count.
        if self.pattern.num_vertices() >= 2 {
            let order = self.pattern.matching_order();
            let seconds: Vec<u32> = local
                .neighbors(anchor)
                .iter()
                .copied()
                .filter(|&c| local.label(c) == Some(self.pattern.label(order[1])))
                .collect();
            if env.compute_budget().is_some_and(|b| seconds.len() as u64 > b) {
                for &c in &seconds {
                    let mut sub = Task::new((hop, vec![local.global_id(c)]));
                    sub.subgraph = task.subgraph.clone();
                    env.add_task(sub);
                }
                env.note_split(seconds.len() as u64);
                return false;
            }
        }
        let count = count_embeddings_from(&local, &self.pattern, anchor);
        if count > 0 {
            env.aggregate(count);
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::matching::count_embeddings_brute;
    use gthinker_graph::gen;
    use gthinker_graph::graph::Graph;
    use gthinker_graph::subgraph::Subgraph;
    use std::sync::Arc;

    fn to_local(g: &Graph) -> gthinker_graph::subgraph::LocalGraph {
        let mut sg = Subgraph::new();
        for v in g.vertices() {
            sg.add_labeled_vertex(v, g.label(v).unwrap(), g.neighbors(v).clone());
        }
        sg.to_local()
    }

    fn run(g: &Graph, pattern: Pattern, cfg: &JobConfig) -> u64 {
        let app = MatchingApp::new(pattern, g.labels().unwrap().to_vec());
        run_job(Arc::new(app), g, cfg).unwrap().global
    }

    #[test]
    fn triangle_pattern_matches_brute_force() {
        for seed in 0..4 {
            let g = gen::random_labels(gen::gnp(30, 0.2, seed), 2, seed + 9);
            let p = Pattern::triangle(Label(0), Label(1), Label(1));
            let expected = count_embeddings_brute(&to_local(&g), &p);
            assert_eq!(run(&g, p, &JobConfig::single_machine(2)), expected, "seed {seed}");
        }
    }

    #[test]
    fn path_pattern_radius_two_matches_brute_force() {
        for seed in 0..3 {
            let g = gen::random_labels(gen::gnp(24, 0.18, seed + 20), 3, seed + 31);
            let p = Pattern::path3(Label(0), Label(1), Label(2));
            let expected = count_embeddings_brute(&to_local(&g), &p);
            assert_eq!(run(&g, p, &JobConfig::single_machine(2)), expected, "seed {seed}");
        }
    }

    #[test]
    fn distributed_matches_single_machine() {
        let g = gen::random_labels(gen::barabasi_albert(300, 4, 8), 3, 77);
        let p = Pattern::triangle(Label(0), Label(1), Label(2));
        let single = run(&g, p.clone(), &JobConfig::single_machine(2));
        let multi = run(&g, p, &JobConfig::cluster(3, 2));
        assert_eq!(single, multi);
    }

    #[test]
    fn compute_budget_split_matches_unbudgeted_run() {
        for seed in 0..3 {
            let g = gen::random_labels(gen::gnp(30, 0.2, seed + 50), 2, seed + 61);
            let p = Pattern::triangle(Label(0), Label(1), Label(1));
            let expected = run(&g, p.clone(), &JobConfig::single_machine(2));
            let mut cfg = JobConfig::single_machine(2);
            cfg.compute_budget = Some(2);
            let app = MatchingApp::new(p, g.labels().unwrap().to_vec());
            let r = run_job(Arc::new(app), &g, &cfg).unwrap();
            assert_eq!(r.global, expected, "seed {seed}");
            let splits: u64 = r.workers.iter().map(|w| w.split_tasks).sum();
            assert!(splits > 0, "seed {seed}: budget should have split some anchor");
        }
    }

    #[test]
    fn single_vertex_pattern_counts_label_instances() {
        let g = gen::random_labels(gen::cycle(12), 2, 5);
        let expected = g.vertices().filter(|&v| g.label(v) == Some(Label(1))).count() as u64;
        let p = Pattern::new(vec![Label(1)], &[]);
        assert_eq!(run(&g, p, &JobConfig::single_machine(1)), expected);
    }
}
