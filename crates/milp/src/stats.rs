//! Solver telemetry.
//!
//! [`SolveStats`] captures everything the branch & bound observed about a
//! solve: work counters (nodes, prunes, simplex iterations, LP solves and
//! how many of them the warm start answered), the incumbent
//! trajectory, per-phase wall time and per-worker busy time. The layout
//! crates thread it through to the `columba-s` flow and the bench binaries
//! print it, so a regression in solver behaviour shows up as numbers, not
//! vibes.

use std::fmt;
use std::time::Duration;

/// One improvement of the incumbent during the search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncumbentEvent {
    /// Wall-clock offset from the start of the solve.
    pub at: Duration,
    /// Objective in the user's sense (negated back for maximisation).
    pub objective: f64,
}

/// Telemetry from one MILP solve.
#[derive(Debug, Clone, Default)]
pub struct SolveStats {
    /// Worker threads used by the branch & bound phase.
    pub threads: usize,
    /// Branch & bound nodes taken from the open pool and expanded.
    pub nodes_processed: usize,
    /// Nodes discarded without branching: dominated by the incumbent,
    /// bound-infeasible, or LP-infeasible.
    pub nodes_pruned: usize,
    /// Total simplex iterations across every LP solved (root, heuristics
    /// and search).
    pub simplex_iterations: usize,
    /// LPs solved: the root-phase LPs (hint polish, root relaxation,
    /// rounding) plus one per branch & bound node that reached its LP.
    pub lp_solves: usize,
    /// Node LPs answered by re-optimizing a worker's hot tableau (node 0's
    /// zero-pivot reuse of the root tableau included).
    pub warm_solves: usize,
    /// Pivots taken by warm re-optimizations (dual simplex plus any primal
    /// clean-up); part of `simplex_iterations`.
    pub dual_pivots: usize,
    /// Node LPs solved cold: the worker had no hot tableau yet, or the warm
    /// start could not finish (infinite dual-feasible bound, dual cycling
    /// guard, failed residual or bound check).
    pub cold_restarts: usize,
    /// Worker panics contained at the node boundary. Each one loses that
    /// node's subtree, so a nonzero count degrades an otherwise-complete
    /// search to a limit-style status.
    pub worker_panics: usize,
    /// Wall time of the root phase: presolve, hint polish, root relaxation
    /// and the rounding heuristic.
    pub root_time: Duration,
    /// Wall time of the branch & bound phase.
    pub search_time: Duration,
    /// Total wall time of the solve.
    pub total_time: Duration,
    /// Every incumbent improvement, in discovery order (root-phase
    /// incumbents from hints or rounding appear first).
    pub incumbents: Vec<IncumbentEvent>,
    /// Busy time per worker during the search phase; utilization is
    /// `busy / search_time` per worker.
    pub worker_busy: Vec<Duration>,
}

impl SolveStats {
    /// Mean worker utilization during the search phase in `[0, 1]`:
    /// total busy time divided by `workers x search wall time`. `None`
    /// when no search phase ran.
    #[must_use]
    pub fn utilization(&self) -> Option<f64> {
        if self.worker_busy.is_empty() || self.search_time.is_zero() {
            return None;
        }
        let busy: f64 = self.worker_busy.iter().map(Duration::as_secs_f64).sum();
        Some((busy / (self.worker_busy.len() as f64 * self.search_time.as_secs_f64())).min(1.0))
    }

    /// Folds another solve's telemetry into this one: work counters,
    /// contained panics and phase times add up, `threads` keeps the
    /// maximum. Used to aggregate telemetry *across* solves (the
    /// resilience ladder's rungs, or a synthesis service's lifetime
    /// counters), so the per-solve vectors — incumbent trajectory and
    /// per-worker busy time — are left untouched: they do not compose
    /// across independent searches.
    pub fn absorb(&mut self, other: &SolveStats) {
        self.threads = self.threads.max(other.threads);
        self.nodes_processed += other.nodes_processed;
        self.nodes_pruned += other.nodes_pruned;
        self.simplex_iterations += other.simplex_iterations;
        self.lp_solves += other.lp_solves;
        self.warm_solves += other.warm_solves;
        self.dual_pivots += other.dual_pivots;
        self.cold_restarts += other.cold_restarts;
        self.worker_panics += other.worker_panics;
        self.root_time += other.root_time;
        self.search_time += other.search_time;
        self.total_time += other.total_time;
    }

    /// The objective trajectory as `(seconds, objective)` pairs.
    #[must_use]
    pub fn trajectory(&self) -> Vec<(f64, f64)> {
        self.incumbents
            .iter()
            .map(|e| (e.at.as_secs_f64(), e.objective))
            .collect()
    }
}

impl fmt::Display for SolveStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nodes ({} pruned), {} simplex iterations, {} LPs ({} warm, {} dual pivots, {} cold restarts), root {:.3}s + search {:.3}s = {:.3}s on {} thread{}",
            self.nodes_processed,
            self.nodes_pruned,
            self.simplex_iterations,
            self.lp_solves,
            self.warm_solves,
            self.dual_pivots,
            self.cold_restarts,
            self.root_time.as_secs_f64(),
            self.search_time.as_secs_f64(),
            self.total_time.as_secs_f64(),
            self.threads,
            if self.threads == 1 { "" } else { "s" },
        )?;
        if let Some(u) = self.utilization() {
            write!(f, ", {:.0}% busy", u * 100.0)?;
        }
        if self.worker_panics > 0 {
            write!(
                f,
                ", {} worker panic{} contained",
                self.worker_panics,
                if self.worker_panics == 1 { "" } else { "s" },
            )?;
        }
        if let Some(last) = self.incumbents.last() {
            write!(
                f,
                "; {} incumbent{} (best {:.4} at {:.3}s)",
                self.incumbents.len(),
                if self.incumbents.len() == 1 { "" } else { "s" },
                last.objective,
                last.at.as_secs_f64(),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_bounds() {
        let mut s = SolveStats::default();
        assert_eq!(s.utilization(), None, "no search phase");
        s.search_time = Duration::from_secs(2);
        s.worker_busy = vec![Duration::from_secs(1), Duration::from_secs(2)];
        let u = s.utilization().unwrap();
        assert!((u - 0.75).abs() < 1e-9, "{u}");
        // over-report clamps to 1
        s.worker_busy = vec![Duration::from_secs(5)];
        assert_eq!(s.utilization(), Some(1.0));
    }

    #[test]
    fn display_mentions_counters() {
        let s = SolveStats {
            threads: 2,
            nodes_processed: 10,
            nodes_pruned: 3,
            simplex_iterations: 99,
            lp_solves: 12,
            warm_solves: 9,
            dual_pivots: 31,
            cold_restarts: 1,
            search_time: Duration::from_millis(500),
            total_time: Duration::from_millis(600),
            incumbents: vec![IncumbentEvent {
                at: Duration::from_millis(40),
                objective: 7.5,
            }],
            worker_busy: vec![Duration::from_millis(400); 2],
            ..SolveStats::default()
        };
        let text = s.to_string();
        assert!(text.contains("10 nodes"), "{text}");
        assert!(text.contains("3 pruned"), "{text}");
        assert!(text.contains("99 simplex"), "{text}");
        assert!(
            text.contains("12 LPs (9 warm, 31 dual pivots, 1 cold restarts)"),
            "{text}"
        );
        assert!(text.contains("2 threads"), "{text}");
        assert!(text.contains("7.5"), "{text}");
    }

    #[test]
    fn absorb_sums_counters_and_keeps_max_threads() {
        let mut a = SolveStats {
            threads: 2,
            nodes_processed: 10,
            nodes_pruned: 3,
            simplex_iterations: 100,
            lp_solves: 7,
            warm_solves: 4,
            dual_pivots: 20,
            cold_restarts: 1,
            worker_panics: 1,
            root_time: Duration::from_millis(10),
            search_time: Duration::from_millis(20),
            total_time: Duration::from_millis(30),
            incumbents: vec![IncumbentEvent {
                at: Duration::from_millis(5),
                objective: 1.0,
            }],
            worker_busy: vec![Duration::from_millis(15); 2],
        };
        let b = SolveStats {
            threads: 4,
            nodes_processed: 5,
            nodes_pruned: 2,
            simplex_iterations: 50,
            lp_solves: 3,
            warm_solves: 2,
            dual_pivots: 5,
            cold_restarts: 0,
            worker_panics: 0,
            root_time: Duration::from_millis(1),
            search_time: Duration::from_millis(2),
            total_time: Duration::from_millis(3),
            ..SolveStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.threads, 4);
        assert_eq!(a.nodes_processed, 15);
        assert_eq!(a.nodes_pruned, 5);
        assert_eq!(a.simplex_iterations, 150);
        assert_eq!(a.lp_solves, 10);
        assert_eq!(a.warm_solves, 6);
        assert_eq!(a.dual_pivots, 25);
        assert_eq!(a.cold_restarts, 1);
        assert_eq!(a.worker_panics, 1);
        assert_eq!(a.root_time, Duration::from_millis(11));
        assert_eq!(a.search_time, Duration::from_millis(22));
        assert_eq!(a.total_time, Duration::from_millis(33));
        // per-solve vectors do not compose and must survive untouched
        assert_eq!(a.incumbents.len(), 1);
        assert_eq!(a.worker_busy.len(), 2);
    }

    #[test]
    fn trajectory_converts_units() {
        let s = SolveStats {
            incumbents: vec![
                IncumbentEvent {
                    at: Duration::from_millis(250),
                    objective: 4.0,
                },
                IncumbentEvent {
                    at: Duration::from_millis(750),
                    objective: 2.0,
                },
            ],
            ..SolveStats::default()
        };
        assert_eq!(s.trajectory(), vec![(0.25, 4.0), (0.75, 2.0)]);
    }
}
