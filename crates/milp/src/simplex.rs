//! Bounded-variable simplex: a two-phase primal for cold solves and a dual
//! simplex that re-optimizes a kept optimal tableau after bound changes.
//!
//! Operates on the *computational form* `min cᵀx  s.t.  Ax = b, l ≤ x ≤ u`
//! obtained by adding one slack column per constraint row. Phase 1 introduces
//! one artificial column per row and minimises their sum; phase 2 optimises
//! the true objective. Nonbasic variables rest at a finite bound; entering
//! variables may *bound-flip* without a basis change. Dantzig pricing is used
//! until a long degenerate streak triggers Bland's rule, which guarantees
//! termination.
//!
//! An optimal [`Tableau`] stays dual feasible when structural bounds change,
//! since its reduced costs do not depend on them. [`Tableau::reoptimize`]
//! exploits that: it moves each changed nonbasic column to the bound its
//! reduced cost prefers, then runs dual simplex pivots (largest bound
//! violation leaves, dual ratio test picks the entering column) until the
//! basis is primal feasible again or the LP is proven infeasible. Branch and
//! bound children differ from their parent by one bound, so this usually
//! takes a handful of pivots instead of a cold solve's thousands.
//!
//! The tableau is stored dense, but its kernels follow the nonzeros: a pivot
//! eliminates only at the pivot row's nonzero columns and only in rows where
//! the entering column is nonzero, the entering column is gathered once per
//! iteration for the ratio test, the basic-value update and the elimination,
//! and reduced costs are loaded row by row. Every entry a kernel touches gets
//! the same floating-point operations in the same order as a full dense
//! sweep, and every entry it skips would only have had an exact zero
//! subtracted, so pivot sequences and results are bit-identical to one.

use crate::cancel::CancelToken;
use crate::model::Sense;

/// Pivot magnitude tolerance.
const PIVOT_TOL: f64 = 1e-9;
/// Reduced-cost optimality tolerance.
const COST_TOL: f64 = 1e-9;
/// Primal feasibility tolerance of a basic value, relative to `1 + |bound|`.
const PRIMAL_TOL: f64 = 1e-9;
/// Consecutive degenerate pivots before switching to Bland's rule.
const DEGENERATE_STREAK: usize = 400;
/// Dual pivots beyond the row count before a warm re-optimization gives up
/// (the dual cycling guard); the caller then solves cold.
const DUAL_PIVOT_SLACK: usize = 1_000;

/// One constraint row in sparse form, already brought to `Σ aᵢxᵢ (sense) rhs`.
#[derive(Debug, Clone)]
pub(crate) struct Row {
    pub terms: Vec<(usize, f64)>,
    pub sense: Sense,
    pub rhs: f64,
}

/// An LP instance: structural columns with bounds and costs, plus rows.
#[derive(Debug, Clone)]
pub(crate) struct Lp {
    /// Lower bound per structural column (finite).
    pub lb: Vec<f64>,
    /// Upper bound per structural column (may be `f64::INFINITY`).
    pub ub: Vec<f64>,
    /// Minimisation cost per structural column.
    pub cost: Vec<f64>,
    pub rows: Vec<Row>,
}

/// Result of an LP solve.
#[derive(Debug, Clone)]
pub(crate) enum LpOutcome {
    /// Optimal with structural variable values and objective.
    Optimal {
        x: Vec<f64>,
        obj: f64,
    },
    Infeasible,
    Unbounded,
    /// The caller's deadline expired mid-solve.
    TimedOut,
    /// Numerical breakdown (cycling guard, residual or bound check failed).
    /// From [`Tableau::reoptimize`] it also means the warm start could not
    /// continue; the caller falls back to a cold solve.
    Numerical(String),
}

/// Solves `lp` cold, returning the outcome and the iteration count. When
/// `cancel` is set, the solve aborts with [`LpOutcome::TimedOut`] once the
/// token fires — via its deadline or an explicit [`CancelToken::cancel`]
/// (checked every few hundred pivots).
pub(crate) fn solve_lp(lp: &Lp, cancel: Option<&CancelToken>) -> (LpOutcome, usize) {
    Tableau::new(lp, &lp.lb, &lp.ub).run(lp, cancel)
}

/// A simplex tableau stored dense and updated sparsely (see the module
/// doc). After [`Tableau::run`] returns [`LpOutcome::Optimal`] it holds an
/// optimal basis that [`Tableau::reoptimize`] can start from.
pub(crate) struct Tableau {
    m: usize,
    /// total columns: structural + slacks + artificials
    ncols: usize,
    n_struct: usize,
    /// dense row-major tableau, m x ncols (current B^-1 A)
    t: Vec<f64>,
    /// current basic-variable values per row
    beta: Vec<f64>,
    /// column basic in each row
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    /// nonbasic-at-upper flag per column
    at_upper: Vec<bool>,
    lb: Vec<f64>,
    ub: Vec<f64>,
    /// reduced costs per column (for the active phase objective)
    d: Vec<f64>,
    /// nonzero `(row, value)` entries of the entering column, ascending by
    /// row, as [`Tableau::gather`] last copied them
    col: Vec<(usize, f64)>,
    /// scratch: nonzero columns of the current pivot row
    row_nz: Vec<usize>,
    degenerate_streak: usize,
    iterations: usize,
    cancel: Option<CancelToken>,
}

impl Tableau {
    /// The phase-1 starting tableau of `lp` with structural bounds
    /// `lb..ub` in place of `lp.lb..lp.ub`.
    pub(crate) fn new(lp: &Lp, lb: &[f64], ub: &[f64]) -> Tableau {
        let m = lp.rows.len();
        let n_struct = lb.len();

        // nonbasic start: structural at the finite bound of smaller magnitude
        let mut x0 = vec![0.0; n_struct];
        let mut at_upper_struct = vec![false; n_struct];
        for (j, x) in x0.iter_mut().enumerate() {
            *x = lb[j];
            if ub[j].is_finite() && ub[j].abs() < x.abs() {
                *x = ub[j];
                at_upper_struct[j] = true;
            }
        }

        // residuals with slacks at their bound (0)
        let mut residual = vec![0.0; m];
        for (i, row) in lp.rows.iter().enumerate() {
            let mut act = 0.0;
            for &(j, c) in &row.terms {
                act += c * x0[j];
            }
            residual[i] = row.rhs - act;
        }

        // which rows can start feasibly on their own slack?
        // Le: slack = residual, needs residual >= 0
        // Ge: slack = -residual, needs residual <= 0
        // Eq: slack fixed at 0, needs residual == 0
        let slack_ok: Vec<bool> = lp
            .rows
            .iter()
            .zip(&residual)
            .map(|(row, &r)| match row.sense {
                Sense::Le => r >= 0.0,
                Sense::Ge => r <= 0.0,
                Sense::Eq => r == 0.0,
            })
            .collect();
        let n_art = slack_ok.iter().filter(|&&ok| !ok).count();
        let ncols = n_struct + m + n_art;

        let mut t = vec![0.0; m * ncols];
        let mut col_lb = Vec::with_capacity(ncols);
        let mut col_ub = Vec::with_capacity(ncols);
        col_lb.extend_from_slice(lb);
        col_ub.extend_from_slice(ub);
        for row in &lp.rows {
            col_lb.push(0.0);
            col_ub.push(match row.sense {
                Sense::Le | Sense::Ge => f64::INFINITY,
                Sense::Eq => 0.0,
            });
        }
        for _ in 0..n_art {
            col_lb.push(0.0);
            col_ub.push(f64::INFINITY);
        }

        let mut at_upper = vec![false; ncols];
        at_upper[..n_struct].copy_from_slice(&at_upper_struct);

        let mut basis = Vec::with_capacity(m);
        let mut in_basis = vec![false; ncols];
        let mut beta = vec![0.0; m];
        let mut next_art = n_struct + m;
        for (i, row) in lp.rows.iter().enumerate() {
            let slack_col = n_struct + i;
            let slack_coef = match row.sense {
                Sense::Le | Sense::Eq => 1.0,
                Sense::Ge => -1.0,
            };
            let base = i * ncols;
            if slack_ok[i] {
                // basic slack; scale the row so the basic coefficient is +1
                let sigma = slack_coef; // 1/slack_coef for ±1
                for &(j, c) in &row.terms {
                    t[base + j] += sigma * c;
                }
                t[base + slack_col] = 1.0;
                basis.push(slack_col);
                in_basis[slack_col] = true;
                beta[i] = sigma * residual[i];
            } else {
                // artificial column with +1 after scaling by sign(residual)
                let sigma = if residual[i] >= 0.0 { 1.0 } else { -1.0 };
                for &(j, c) in &row.terms {
                    t[base + j] += sigma * c;
                }
                t[base + slack_col] = sigma * slack_coef;
                let art_col = next_art;
                next_art += 1;
                t[base + art_col] = 1.0;
                basis.push(art_col);
                in_basis[art_col] = true;
                beta[i] = residual[i].abs();
            }
        }

        Tableau {
            m,
            ncols,
            n_struct,
            t,
            beta,
            basis,
            in_basis,
            at_upper,
            lb: col_lb,
            ub: col_ub,
            d: vec![0.0; ncols],
            col: Vec::new(),
            row_nz: Vec::new(),
            degenerate_streak: 0,
            iterations: 0,
            cancel: None,
        }
    }

    /// Recomputes the reduced-cost row `d = c - c_B^T T` for cost vector `c`
    /// (dense over all columns), subtracting one tableau row at a time.
    fn load_costs(&mut self, c: &[f64]) {
        let n = self.ncols;
        self.d.copy_from_slice(c);
        for (i, &b) in self.basis.iter().enumerate() {
            let cb = c[b];
            if cb != 0.0 {
                for (dj, &a) in self.d.iter_mut().zip(&self.t[i * n..(i + 1) * n]) {
                    *dj -= cb * a;
                }
            }
        }
        for &b in &self.basis {
            self.d[b] = 0.0;
        }
    }

    /// Copies the nonzero entries of column `j` into [`Tableau::col`]. The
    /// ratio tests, [`Tableau::shift_basics`] and [`Tableau::pivot`] read
    /// that copy, so no tableau entry may change between this call and the
    /// pivot that brings `j` into the basis.
    fn gather(&mut self, j: usize) {
        self.col.clear();
        for (i, row) in self.t.chunks_exact(self.ncols).enumerate() {
            if row[j] != 0.0 {
                self.col.push((i, row[j]));
            }
        }
    }

    /// Moves the basic values as the gathered column's variable moves by
    /// `step`. A pivot then overwrites the value of its own row.
    fn shift_basics(&mut self, step: f64) {
        for &(i, a) in &self.col {
            self.beta[i] -= a * step;
        }
    }

    /// Value of a nonbasic column: the bound it rests at.
    fn nonbasic_value(&self, j: usize) -> f64 {
        if self.at_upper[j] {
            self.ub[j]
        } else if self.lb[j].is_finite() {
            self.lb[j]
        } else {
            0.0
        }
    }

    /// Current value of a column (basic value or resting bound).
    fn col_value(&self, j: usize) -> f64 {
        if self.in_basis[j] {
            for i in 0..self.m {
                if self.basis[i] == j {
                    return self.beta[i];
                }
            }
            unreachable!("column flagged basic but absent from basis");
        }
        self.nonbasic_value(j)
    }

    /// True once the cancel token has fired.
    fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// Runs phase 1 then phase 2 from the starting tableau. On
    /// [`LpOutcome::Optimal`] the tableau is left at the optimal basis, ready
    /// for [`Tableau::reoptimize`].
    pub(crate) fn run(&mut self, lp: &Lp, cancel: Option<&CancelToken>) -> (LpOutcome, usize) {
        let max_iters = 200 * (self.m + self.ncols) + 20_000;
        self.cancel = cancel.cloned();

        // ---- phase 1: minimise sum of artificials ----
        let mut p1_span = columba_obs::span("simplex.phase1");
        let mut c1 = vec![0.0; self.ncols];
        c1[(self.n_struct + self.m)..].fill(1.0);
        self.load_costs(&c1);
        match self.optimize(max_iters, true) {
            PhaseEnd::Ok => {}
            PhaseEnd::TimedOut => return (LpOutcome::TimedOut, self.iterations),
            PhaseEnd::Unbounded => {
                return (
                    LpOutcome::Numerical("phase-1 reported unbounded".into()),
                    self.iterations,
                )
            }
            PhaseEnd::IterLimit => {
                return (
                    LpOutcome::Numerical("phase-1 iteration limit (cycling?)".into()),
                    self.iterations,
                )
            }
        }
        let phase1_obj: f64 = ((self.n_struct + self.m)..self.ncols)
            .map(|j| self.col_value(j))
            .sum();
        if phase1_obj > 1e-6 {
            return (LpOutcome::Infeasible, self.iterations);
        }
        // pin artificials to zero and try to drive basic ones out
        for j in (self.n_struct + self.m)..self.ncols {
            self.ub[j] = 0.0;
        }
        self.drive_out_artificials();
        p1_span.attr("iterations", self.iterations);
        drop(p1_span);

        // ---- phase 2: true objective ----
        let mut p2_span = columba_obs::span("simplex.phase2");
        let p2_start_iters = self.iterations;
        let mut c2 = vec![0.0; self.ncols];
        c2[..self.n_struct].copy_from_slice(&lp.cost);
        self.load_costs(&c2);
        self.degenerate_streak = 0;
        match self.optimize(max_iters, false) {
            PhaseEnd::Ok => {}
            PhaseEnd::TimedOut => return (LpOutcome::TimedOut, self.iterations),
            PhaseEnd::Unbounded => return (LpOutcome::Unbounded, self.iterations),
            PhaseEnd::IterLimit => {
                return (
                    LpOutcome::Numerical("phase-2 iteration limit (cycling?)".into()),
                    self.iterations,
                )
            }
        }
        p2_span.attr("iterations", self.iterations - p2_start_iters);
        drop(p2_span);

        (self.extract(lp), self.iterations)
    }

    /// Re-optimizes an optimal tableau of `lp` after its structural bounds
    /// change to `lb..ub`, returning the outcome and the pivots it took.
    ///
    /// Each changed nonbasic column moves to the bound that keeps its
    /// reduced cost dual feasible, then dual simplex pivots restore primal
    /// feasibility. Dual unboundedness proves the LP infeasible. The
    /// tableau stays usable for the next call after an optimal, infeasible
    /// or timed-out outcome; after [`LpOutcome::Numerical`] — a changed
    /// column whose dual-feasible bound is infinite, the dual cycling
    /// guard, or a result failing its residual or bound check — it is not,
    /// and the caller must solve cold.
    pub(crate) fn reoptimize(
        &mut self,
        lp: &Lp,
        lb: &[f64],
        ub: &[f64],
        cancel: Option<&CancelToken>,
    ) -> (LpOutcome, usize) {
        self.cancel = cancel.cloned();
        for j in 0..self.n_struct {
            if lb[j] == self.lb[j] && ub[j] == self.ub[j] {
                continue;
            }
            let old = self.nonbasic_value(j);
            self.lb[j] = lb[j];
            self.ub[j] = ub[j];
            if self.in_basis[j] {
                continue; // a violated basic value is the dual loop's job
            }
            // d_j < 0 needs the upper bound and d_j > 0 the lower; a zero
            // reduced cost keeps its side while that bound is finite
            let dj = self.d[j];
            let to_upper = lb[j] < ub[j]
                && (dj < -COST_TOL || (dj <= COST_TOL && self.at_upper[j] && ub[j].is_finite()));
            if to_upper && !ub[j].is_finite() {
                return (
                    LpOutcome::Numerical(format!("column {j}: dual-feasible bound is infinite")),
                    0,
                );
            }
            self.at_upper[j] = to_upper;
            let delta = self.nonbasic_value(j) - old;
            if delta != 0.0 {
                self.gather(j);
                self.shift_basics(delta);
            }
        }

        let start = self.iterations;
        let end = self.dual_iterate(self.m + DUAL_PIVOT_SLACK);
        let pivots = self.iterations - start;
        match end {
            DualEnd::Feasible => {}
            DualEnd::Infeasible => return (LpOutcome::Infeasible, pivots),
            DualEnd::TimedOut => return (LpOutcome::TimedOut, pivots),
            DualEnd::IterLimit => {
                return (
                    LpOutcome::Numerical("dual simplex pivot limit (cycling?)".into()),
                    pivots,
                )
            }
        }
        // primal clean-up: a primal-feasible basis whose reduced costs
        // drifted past the tolerance takes a few primal pivots (usually none)
        self.degenerate_streak = 0;
        let budget = self.iterations + self.m + DUAL_PIVOT_SLACK;
        let outcome = match self.optimize(budget, false) {
            PhaseEnd::Ok => self.extract(lp),
            PhaseEnd::TimedOut => LpOutcome::TimedOut,
            PhaseEnd::Unbounded => LpOutcome::Unbounded,
            PhaseEnd::IterLimit => {
                LpOutcome::Numerical("primal clean-up iteration limit (cycling?)".into())
            }
        };
        (outcome, self.iterations - start)
    }

    /// Reads the structural solution off an optimal tableau and verifies it
    /// against `lp`'s rows and the current column bounds, which guards
    /// against tableau drift.
    fn extract(&self, lp: &Lp) -> LpOutcome {
        let mut x: Vec<f64> = (0..self.n_struct).map(|j| self.nonbasic_value(j)).collect();
        for (&b, &v) in self.basis.iter().zip(&self.beta) {
            if b < self.n_struct {
                x[b] = v;
            }
        }
        for (j, &xj) in x.iter().enumerate() {
            let (l, u) = (self.lb[j], self.ub[j]);
            let scale = 1.0 + l.abs().max(if u.is_finite() { u.abs() } else { 0.0 });
            if xj < l - 1e-5 * scale || xj > u + 1e-5 * scale {
                return LpOutcome::Numerical(format!(
                    "column {j} at {xj:.6e} outside its bounds [{l:.6e}, {u:.6e}]"
                ));
            }
        }
        for row in &lp.rows {
            let act: f64 = row.terms.iter().map(|&(j, c)| c * x[j]).sum();
            let scale =
                1.0 + row.terms.iter().map(|&(_, c)| c.abs()).fold(0.0, f64::max) + row.rhs.abs();
            let viol = match row.sense {
                Sense::Le => act - row.rhs,
                Sense::Ge => row.rhs - act,
                Sense::Eq => (act - row.rhs).abs(),
            };
            if viol > 1e-5 * scale {
                return LpOutcome::Numerical(format!("residual {viol:.2e} exceeds tolerance"));
            }
        }
        let obj: f64 = x.iter().zip(&lp.cost).map(|(xi, ci)| xi * ci).sum();
        LpOutcome::Optimal { x, obj }
    }

    /// Panics unless every basic column is exactly a unit column (1.0 in
    /// its row, 0.0 elsewhere) with a reduced cost of exactly 0.0: a pivot
    /// that skips a row it should eliminate, or eliminates with a stale
    /// gathered column, breaks one of the two.
    #[cfg(test)]
    fn assert_basis_invariants(&self) {
        for (r, &b) in self.basis.iter().enumerate() {
            for (i, row) in self.t.chunks_exact(self.ncols).enumerate() {
                let want = if i == r { 1.0 } else { 0.0 };
                assert!(
                    row[b] == want,
                    "basic column {b} of row {r} holds {} in row {i}",
                    row[b]
                );
            }
            assert!(
                self.d[b] == 0.0,
                "basic column {b} has reduced cost {}",
                self.d[b]
            );
        }
    }

    /// Degenerate pivots to remove artificials from the basis where possible.
    fn drive_out_artificials(&mut self) {
        for r in 0..self.m {
            if self.basis[r] < self.n_struct + self.m {
                continue;
            }
            // find a non-artificial, nonbasic column with a usable pivot
            let mut pick = None;
            for j in 0..(self.n_struct + self.m) {
                if self.in_basis[j] {
                    continue;
                }
                let a = self.t[r * self.ncols + j];
                if a.abs() > 1e-7 {
                    pick = Some(j);
                    break;
                }
            }
            if let Some(j) = pick {
                // degenerate pivot: basic artificial sits at 0, so delta = 0
                self.gather(j);
                self.pivot(r, j, self.col_value(j));
            }
        }
    }

    /// Gauss-Jordan pivot bringing column `j` into the basis at row `r`.
    /// `new_value` is the entering variable's value after the step. Column
    /// `j` must be the one [`Tableau::gather`] copied last: its entries are
    /// the elimination multipliers.
    fn pivot(&mut self, r: usize, j: usize, new_value: f64) {
        let n = self.ncols;
        let (above, rest) = self.t.split_at_mut(r * n);
        let (prow, below) = rest.split_at_mut(n);
        let piv = prow[j];
        debug_assert!(piv.abs() > PIVOT_TOL * 1e-3, "pivot too small: {piv}");
        let inv = 1.0 / piv;
        self.row_nz.clear();
        for (col, a) in prow.iter_mut().enumerate() {
            if *a != 0.0 {
                *a *= inv;
                self.row_nz.push(col);
            }
        }
        prow[j] = 1.0; // exact

        // a zero entry of the pivot row or the entering column would only
        // subtract an exact zero, so only nonzero pairs are visited
        for &(i, f) in &self.col {
            let row = match i.cmp(&r) {
                std::cmp::Ordering::Less => &mut above[i * n..(i + 1) * n],
                std::cmp::Ordering::Equal => continue,
                std::cmp::Ordering::Greater => &mut below[(i - r - 1) * n..(i - r) * n],
            };
            for &col in &self.row_nz {
                row[col] -= f * prow[col];
            }
            row[j] = 0.0;
        }
        // reduced costs
        let f = self.d[j];
        if f != 0.0 {
            for &col in &self.row_nz {
                self.d[col] -= f * prow[col];
            }
            self.d[j] = 0.0;
        }
        let old = self.basis[r];
        self.in_basis[old] = false;
        self.basis[r] = j;
        self.in_basis[j] = true;
        self.beta[r] = new_value;
    }

    /// Primal iterations until optimal / unbounded / the absolute iteration
    /// count `max_iters`.
    fn optimize(&mut self, max_iters: usize, phase1: bool) -> PhaseEnd {
        loop {
            if self.iterations >= max_iters {
                return PhaseEnd::IterLimit;
            }
            if self.iterations.is_multiple_of(256) && self.cancelled() {
                return PhaseEnd::TimedOut;
            }
            let bland = self.degenerate_streak >= DEGENERATE_STREAK;
            // entering column
            let mut best: Option<(usize, f64, bool)> = None; // (col, score, increasing)
            let scan_end = if phase1 {
                self.ncols
            } else {
                self.n_struct + self.m
            };
            for j in 0..scan_end {
                if self.in_basis[j] {
                    continue;
                }
                if self.lb[j] == self.ub[j] {
                    continue; // fixed column can never improve
                }
                let dj = self.d[j];
                let (eligible, increasing) = if self.at_upper[j] {
                    (dj > COST_TOL, false)
                } else {
                    (dj < -COST_TOL, true)
                };
                if !eligible {
                    continue;
                }
                if bland {
                    best = Some((j, dj.abs(), increasing));
                    break;
                }
                match best {
                    Some((_, s, _)) if s >= dj.abs() => {}
                    _ => best = Some((j, dj.abs(), increasing)),
                }
            }
            let Some((j, _, increasing)) = best else {
                return PhaseEnd::Ok; // optimal for this phase
            };

            // ratio test
            self.gather(j);
            let range = self.ub[j] - self.lb[j]; // may be inf
            let mut t_max = range;
            let mut leave: Option<(usize, bool, f64)> = None; // (row, leaves_at_upper, α)
            for &(i, a) in &self.col {
                if a.abs() <= PIVOT_TOL {
                    continue;
                }
                let bi = self.basis[i];
                let (l, u) = (self.lb[bi], self.ub[bi]);
                // direction the basic variable moves as entering moves by +t
                let downward = if increasing { a > 0.0 } else { a < 0.0 };
                let ti = if downward {
                    if l.is_finite() {
                        (self.beta[i] - l) / a.abs()
                    } else {
                        f64::INFINITY
                    }
                } else if u.is_finite() {
                    (u - self.beta[i]) / a.abs()
                } else {
                    f64::INFINITY
                };
                if !ti.is_finite() {
                    continue; // this row never blocks the entering variable
                }
                let ti = ti.max(0.0);
                let better = match leave {
                    None => ti < t_max - 1e-12,
                    Some((li, _, la)) => {
                        ti < t_max - 1e-12
                            || (ti <= t_max + 1e-12
                                && (if bland {
                                    self.basis[i] < self.basis[li]
                                } else {
                                    a.abs() > la.abs()
                                }))
                    }
                };
                if ti <= t_max + 1e-12 && better {
                    t_max = ti.min(t_max);
                    leave = Some((i, !downward, a));
                }
            }

            if t_max.is_infinite() {
                return PhaseEnd::Unbounded;
            }
            self.iterations += 1;
            if t_max <= 1e-10 {
                self.degenerate_streak += 1;
            } else {
                self.degenerate_streak = 0;
            }

            let delta = if increasing { t_max } else { -t_max };
            self.shift_basics(delta);
            match leave {
                None => {
                    // bound flip of the entering column
                    self.at_upper[j] = !self.at_upper[j];
                }
                Some((r, leaves_at_upper, _)) => {
                    let entering_value = if increasing {
                        (if self.at_upper[j] {
                            self.ub[j]
                        } else {
                            self.lb[j]
                        }) + t_max
                    } else {
                        self.ub[j] - t_max
                    };
                    let old = self.basis[r];
                    self.at_upper[old] = leaves_at_upper;
                    self.pivot(r, j, entering_value);
                    self.at_upper[j] = false;
                }
            }
        }
    }

    /// Dual simplex iterations on a dual-feasible basis until every basic
    /// value lies within its bounds, the dual proves infeasibility, or
    /// `max_pivots` pivots pass (the cycling guard).
    fn dual_iterate(&mut self, max_pivots: usize) -> DualEnd {
        let n = self.ncols;
        let mut pivots = 0usize;
        let mut streak = 0usize;
        loop {
            if pivots.is_multiple_of(256) && self.cancelled() {
                return DualEnd::TimedOut;
            }
            let bland = streak >= DEGENERATE_STREAK;
            // leaving row: the largest bound violation (Bland: the
            // violated row whose basic column has the smallest index)
            let mut leave: Option<(usize, f64, bool)> = None; // (row, violation, below)
            for i in 0..self.m {
                let b = self.basis[i];
                let (l, u, v) = (self.lb[b], self.ub[b], self.beta[i]);
                let (viol, below) = if v < l - PRIMAL_TOL * (1.0 + l.abs()) {
                    (l - v, true)
                } else if u.is_finite() && v > u + PRIMAL_TOL * (1.0 + u.abs()) {
                    (v - u, false)
                } else {
                    continue;
                };
                let better = match leave {
                    None => true,
                    Some((r, worst, _)) => {
                        if bland {
                            b < self.basis[r]
                        } else {
                            viol > worst
                        }
                    }
                };
                if better {
                    leave = Some((i, viol, below));
                }
            }
            let Some((r, _, below)) = leave else {
                return DualEnd::Feasible;
            };
            if pivots >= max_pivots {
                return DualEnd::IterLimit;
            }

            // entering column: dual ratio test min |d_j / α_rj| over the
            // non-fixed nonbasic columns that move x_B[r] toward its bound
            // (a below-bound row rises when x_j rises with α < 0 or falls
            // with α > 0; an above-bound row the other way round)
            let mut enter: Option<(usize, f64)> = None; // (col, ratio)
            for j in 0..(self.n_struct + self.m) {
                if self.in_basis[j] || self.lb[j] == self.ub[j] {
                    continue;
                }
                let a = self.t[r * n + j];
                if a.abs() <= PIVOT_TOL {
                    continue;
                }
                let rises = !self.at_upper[j];
                if below != (rises == (a < 0.0)) {
                    continue;
                }
                // dual feasibility: d_j ≥ 0 at lower, ≤ 0 at upper; clamp
                // tolerance-sized drift to a zero ratio
                let dj = if rises { self.d[j] } else { -self.d[j] };
                let ratio = dj.max(0.0) / a.abs();
                let better = match enter {
                    None => true,
                    Some((k, best)) => {
                        ratio < best - 1e-12
                            || (ratio <= best + 1e-12
                                && !bland
                                && a.abs() > self.t[r * n + k].abs())
                    }
                };
                if better {
                    enter = Some((j, ratio));
                }
            }
            let Some((j, ratio)) = enter else {
                return DualEnd::Infeasible; // dual unbounded
            };

            // primal step: x_j moves so x_B[r] lands on its violated bound
            let b = self.basis[r];
            let target = if below { self.lb[b] } else { self.ub[b] };
            let a = self.t[r * n + j];
            let step = (self.beta[r] - target) / a;
            self.gather(j);
            self.shift_basics(step);
            let entering_value = self.nonbasic_value(j) + step;
            self.at_upper[b] = !below;
            self.pivot(r, j, entering_value);
            self.at_upper[j] = false;
            pivots += 1;
            self.iterations += 1;
            if ratio <= 1e-12 {
                streak += 1;
            } else {
                streak = 0;
            }
        }
    }
}

enum PhaseEnd {
    Ok,
    Unbounded,
    IterLimit,
    TimedOut,
}

enum DualEnd {
    Feasible,
    Infeasible,
    IterLimit,
    TimedOut,
}

#[cfg(test)]
mod tests {
    use super::*;
    use columba_prng::Rng;

    fn lp(lb: &[f64], ub: &[f64], cost: &[f64], rows: Vec<Row>) -> Lp {
        Lp {
            lb: lb.to_vec(),
            ub: ub.to_vec(),
            cost: cost.to_vec(),
            rows,
        }
    }

    fn row(terms: &[(usize, f64)], sense: Sense, rhs: f64) -> Row {
        Row {
            terms: terms.to_vec(),
            sense,
            rhs,
        }
    }

    fn optimal(lp: &Lp) -> (Vec<f64>, f64) {
        match solve_lp(lp, None).0 {
            LpOutcome::Optimal { x, obj } => (x, obj),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn simple_maximization_as_min() {
        // min -x - 2y s.t. x+y <= 4, x <= 3, y <= 2
        let p = lp(
            &[0.0, 0.0],
            &[3.0, 2.0],
            &[-1.0, -2.0],
            vec![row(&[(0, 1.0), (1, 1.0)], Sense::Le, 4.0)],
        );
        let (x, obj) = optimal(&p);
        assert!((x[0] - 2.0).abs() < 1e-6, "{x:?}");
        assert!((x[1] - 2.0).abs() < 1e-6);
        assert!((obj + 6.0).abs() < 1e-6);
    }

    #[test]
    fn equality_constraints_need_phase1() {
        // min x + y s.t. x + y = 5, x - y = 1
        let p = lp(
            &[0.0, 0.0],
            &[f64::INFINITY, f64::INFINITY],
            &[1.0, 1.0],
            vec![
                row(&[(0, 1.0), (1, 1.0)], Sense::Eq, 5.0),
                row(&[(0, 1.0), (1, -1.0)], Sense::Eq, 1.0),
            ],
        );
        let (x, obj) = optimal(&p);
        assert!((x[0] - 3.0).abs() < 1e-6);
        assert!((x[1] - 2.0).abs() < 1e-6);
        assert!((obj - 5.0).abs() < 1e-6);
    }

    #[test]
    fn ge_constraints() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2
        let p = lp(
            &[2.0, 0.0],
            &[f64::INFINITY, f64::INFINITY],
            &[2.0, 3.0],
            vec![row(&[(0, 1.0), (1, 1.0)], Sense::Ge, 10.0)],
        );
        let (x, obj) = optimal(&p);
        assert!((x[0] - 10.0).abs() < 1e-6, "{x:?}");
        assert!((x[1]).abs() < 1e-6);
        assert!((obj - 20.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_detected() {
        let p = lp(
            &[0.0],
            &[1.0],
            &[1.0],
            vec![row(&[(0, 1.0)], Sense::Ge, 2.0)],
        );
        assert!(matches!(solve_lp(&p, None).0, LpOutcome::Infeasible));
    }

    #[test]
    fn unbounded_detected() {
        let p = lp(
            &[0.0],
            &[f64::INFINITY],
            &[-1.0],
            vec![row(&[(0, 1.0)], Sense::Ge, 0.0)],
        );
        assert!(matches!(solve_lp(&p, None).0, LpOutcome::Unbounded));
    }

    #[test]
    fn bound_flip_reaches_upper_bounds() {
        // min -x - y with only bounds: x <= 7, y <= 9, no rows binding
        let p = lp(
            &[0.0, 0.0],
            &[7.0, 9.0],
            &[-1.0, -1.0],
            vec![row(&[(0, 1.0), (1, 1.0)], Sense::Le, 100.0)],
        );
        let (x, obj) = optimal(&p);
        assert!((x[0] - 7.0).abs() < 1e-6);
        assert!((x[1] - 9.0).abs() < 1e-6);
        assert!((obj + 16.0).abs() < 1e-6);
    }

    #[test]
    fn fixed_variable_respected() {
        let p = lp(
            &[3.0, 0.0],
            &[3.0, f64::INFINITY],
            &[0.0, 1.0],
            vec![row(&[(0, 1.0), (1, 1.0)], Sense::Ge, 5.0)],
        );
        let (x, obj) = optimal(&p);
        assert!((x[0] - 3.0).abs() < 1e-6);
        assert!((x[1] - 2.0).abs() < 1e-6);
        assert!((obj - 2.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // classic degenerate corner: several constraints meet at origin
        let p = lp(
            &[0.0, 0.0],
            &[f64::INFINITY, f64::INFINITY],
            &[-0.75, 150.0],
            vec![
                row(&[(0, 0.25), (1, -8.0)], Sense::Le, 0.0),
                row(&[(0, 0.5), (1, -12.0)], Sense::Le, 0.0),
                row(&[(0, 0.0), (1, 1.0)], Sense::Le, 1.0),
            ],
        );
        // Beale-like cycling example (truncated); must terminate
        let (outcome, _) = solve_lp(&p, None);
        assert!(
            matches!(outcome, LpOutcome::Optimal { .. } | LpOutcome::Unbounded),
            "{outcome:?}"
        );
    }

    #[test]
    fn negative_rhs_rows() {
        // min x s.t. -x <= -4  (i.e. x >= 4)
        let p = lp(
            &[0.0],
            &[f64::INFINITY],
            &[1.0],
            vec![row(&[(0, -1.0)], Sense::Le, -4.0)],
        );
        let (x, obj) = optimal(&p);
        assert!((x[0] - 4.0).abs() < 1e-6);
        assert!((obj - 4.0).abs() < 1e-6);
    }

    #[test]
    fn redundant_equalities_ok() {
        // x + y = 2 stated twice: phase 1 leaves a basic artificial at 0
        let p = lp(
            &[0.0, 0.0],
            &[f64::INFINITY, f64::INFINITY],
            &[1.0, 2.0],
            vec![
                row(&[(0, 1.0), (1, 1.0)], Sense::Eq, 2.0),
                row(&[(0, 1.0), (1, 1.0)], Sense::Eq, 2.0),
            ],
        );
        let (x, obj) = optimal(&p);
        assert!((x[0] - 2.0).abs() < 1e-6);
        assert!(x[1].abs() < 1e-6);
        assert!((obj - 2.0).abs() < 1e-6);
    }

    // -- warm re-optimization --

    /// Cold solve under bounds `lb..ub`, keeping the tableau.
    fn cold(lp: &Lp, lb: &[f64], ub: &[f64]) -> (LpOutcome, Tableau) {
        let mut t = Tableau::new(lp, lb, ub);
        let (outcome, _) = t.run(lp, None);
        (outcome, t)
    }

    #[test]
    fn reoptimize_without_changes_takes_no_pivots() {
        let p = lp(
            &[0.0, 0.0],
            &[3.0, 2.0],
            &[-1.0, -2.0],
            vec![row(&[(0, 1.0), (1, 1.0)], Sense::Le, 4.0)],
        );
        let (_, mut t) = cold(&p, &p.lb, &p.ub);
        let (outcome, pivots) = t.reoptimize(&p, &p.lb, &p.ub, None);
        assert_eq!(pivots, 0);
        let LpOutcome::Optimal { obj, .. } = outcome else {
            panic!("{outcome:?}");
        };
        assert!((obj + 6.0).abs() < 1e-9);
    }

    #[test]
    fn reoptimize_follows_a_tightened_bound_and_proves_infeasibility() {
        // min -x - 2y s.t. x + y <= 4, x <= 3, y <= 2, x + y >= 1
        let p = lp(
            &[0.0, 0.0],
            &[3.0, 2.0],
            &[-1.0, -2.0],
            vec![
                row(&[(0, 1.0), (1, 1.0)], Sense::Le, 4.0),
                row(&[(0, 1.0), (1, 1.0)], Sense::Ge, 1.0),
            ],
        );
        let (_, mut t) = cold(&p, &p.lb, &p.ub);
        // y <= 1: optimum moves to x = 3, y = 1
        let (outcome, _) = t.reoptimize(&p, &[0.0, 0.0], &[3.0, 1.0], None);
        let LpOutcome::Optimal { x, obj } = outcome else {
            panic!("{outcome:?}");
        };
        assert!(
            (x[0] - 3.0).abs() < 1e-9 && (x[1] - 1.0).abs() < 1e-9,
            "{x:?}"
        );
        assert!((obj + 5.0).abs() < 1e-9);
        // x, y <= 0.25 contradicts x + y >= 1
        let (outcome, _) = t.reoptimize(&p, &[0.0, 0.0], &[0.25, 0.25], None);
        assert!(matches!(outcome, LpOutcome::Infeasible), "{outcome:?}");
        // the tableau stays usable after proving infeasibility
        let (outcome, _) = t.reoptimize(&p, &p.lb, &p.ub, None);
        let LpOutcome::Optimal { obj, .. } = outcome else {
            panic!("{outcome:?}");
        };
        assert!((obj + 6.0).abs() < 1e-9);
    }

    #[test]
    fn reoptimize_reports_an_infinite_dual_feasible_bound() {
        // min -x s.t. x <= 10 via its bound: x rests at its upper bound
        // with a negative reduced cost, so relaxing that bound to infinity
        // leaves no dual-feasible place for it
        let p = lp(
            &[0.0, 0.0],
            &[10.0, 1.0],
            &[-1.0, 0.0],
            vec![row(&[(0, 1.0), (1, 1.0)], Sense::Ge, 0.5)],
        );
        let (_, mut t) = cold(&p, &p.lb, &p.ub);
        let (outcome, _) = t.reoptimize(&p, &p.lb, &[f64::INFINITY, 1.0], None);
        assert!(matches!(outcome, LpOutcome::Numerical(_)), "{outcome:?}");
    }

    /// A random LP shaped like the layout models: unit coordinates in a
    /// bounded chip, a chip-extent column the objective pays for, big-M
    /// non-overlap disjunctions with relaxed binary indicators and an
    /// "exactly one relative position" equality per unit pair, occasional
    /// alignment equalities, and duplicated (degenerate) rows.
    fn layout_like_lp(rng: &mut Rng) -> Lp {
        let units = rng.gen_range(2usize..5);
        let chip = 10.0 + rng.gen_range(0i64..30) as f64;
        let widths: Vec<f64> = (0..units)
            .map(|_| 1.0 + rng.gen_range(0i64..5) as f64)
            .collect();
        let big_m = chip + 6.0;
        // columns: coordinates, extent, then two indicators per pair
        let extent = units;
        let mut lb = vec![0.0; units + 1];
        let mut ub = vec![chip; units + 1];
        let mut cost: Vec<f64> = (0..units)
            .map(|_| rng.gen_range(0i64..3) as f64 * 0.1)
            .collect();
        cost.push(1.0);
        let mut rows = Vec::new();
        for (a, &w) in widths.iter().enumerate() {
            // x_a + w_a <= extent
            rows.push(row(&[(a, 1.0), (extent, -1.0)], Sense::Le, -w));
        }
        for a in 0..units {
            for b in (a + 1)..units {
                let (qab, qba) = (lb.len(), lb.len() + 1);
                for _ in 0..2 {
                    lb.push(0.0);
                    ub.push(1.0);
                    cost.push(0.0);
                }
                // x_a + w_a <= x_b + M (1 - q_ab), and the mirror image
                rows.push(row(
                    &[(a, 1.0), (b, -1.0), (qab, big_m)],
                    Sense::Le,
                    big_m - widths[a],
                ));
                rows.push(row(
                    &[(b, 1.0), (a, -1.0), (qba, big_m)],
                    Sense::Le,
                    big_m - widths[b],
                ));
                rows.push(row(&[(qab, 1.0), (qba, 1.0)], Sense::Eq, 1.0));
                if rng.gen_bool(0.2) {
                    rows.push(row(&[(a, 1.0), (b, -1.0)], Sense::Eq, 0.0));
                }
            }
        }
        for _ in 0..rng.gen_range(0usize..3) {
            let k = rng.gen_range(0..rows.len());
            let mut dup = rows[k].clone();
            if rng.gen_bool(0.5) {
                for t in &mut dup.terms {
                    t.1 *= 2.0;
                }
                dup.rhs *= 2.0;
            }
            rows.push(dup);
        }
        Lp { lb, ub, cost, rows }
    }

    /// One random bound step: tighten a column (an indicator fixed like a
    /// branch, a coordinate window narrowed) or relax one or all columns
    /// back to the LP's own bounds.
    fn random_bound_step(rng: &mut Rng, p: &Lp, lb: &mut [f64], ub: &mut [f64]) {
        let j = rng.gen_range(0..lb.len());
        match rng.gen_range(0usize..5) {
            0 | 1 if p.ub[j] == 1.0 && j > 0 && p.cost[j] == 0.0 => {
                let v = if rng.gen_bool(0.5) { 0.0 } else { 1.0 };
                lb[j] = v;
                ub[j] = v;
            }
            0 | 1 => {
                let lo = lb[j] + (ub[j] - lb[j]) * rng.gen_f64() * 0.5;
                let hi = ub[j] - (ub[j] - lo) * rng.gen_f64() * 0.5;
                lb[j] = lo.floor().max(lb[j]);
                ub[j] = hi.ceil().min(ub[j]).max(lb[j]);
            }
            2 => {
                // a branch-style cut through the current value range
                let mid = ((lb[j] + ub[j]) / 2.0).floor();
                if rng.gen_bool(0.5) {
                    ub[j] = mid.max(lb[j]);
                } else {
                    lb[j] = (mid + 1.0).min(ub[j]);
                }
            }
            3 => {
                lb[j] = p.lb[j];
                ub[j] = p.ub[j];
            }
            _ => {
                lb.copy_from_slice(&p.lb);
                ub.copy_from_slice(&p.ub);
            }
        }
    }

    /// Differential oracle: after every step of a random sequence of bound
    /// tightenings and relaxations, re-optimizing one kept tableau agrees
    /// with a fresh cold solve on status and, when optimal, on objective
    /// to 1e-7 relative. Both tableaus keep exact unit basic columns with
    /// zero reduced costs after every solve.
    #[test]
    fn reoptimize_matches_cold_solves_on_layout_like_lps() {
        let mut rng = Rng::seed_from_u64(0xD0A1);
        let (mut optimal, mut infeasible, mut pivots) = (0usize, 0usize, 0usize);
        for case in 0..60 {
            let p = layout_like_lp(&mut rng);
            let (root, mut hot) = cold(&p, &p.lb, &p.ub);
            hot.assert_basis_invariants();
            assert!(
                matches!(root, LpOutcome::Optimal { .. }),
                "case {case}: root {root:?}"
            );
            let (mut lb, mut ub) = (p.lb.clone(), p.ub.clone());
            for step in 0..40 {
                random_bound_step(&mut rng, &p, &mut lb, &mut ub);
                let (warm, taken) = hot.reoptimize(&p, &lb, &ub, None);
                hot.assert_basis_invariants();
                pivots += taken;
                let (fresh, fresh_tableau) = cold(&p, &lb, &ub);
                fresh_tableau.assert_basis_invariants();
                match (&warm, &fresh) {
                    (LpOutcome::Optimal { obj: w, x }, LpOutcome::Optimal { obj: c, .. }) => {
                        optimal += 1;
                        assert!(
                            (w - c).abs() <= 1e-7 * c.abs().max(1.0),
                            "case {case} step {step}: warm {w} vs cold {c}"
                        );
                        for (j, &v) in x.iter().enumerate() {
                            assert!(
                                v >= lb[j] - 1e-7 && v <= ub[j] + 1e-7,
                                "case {case} step {step}: x[{j}] = {v} outside [{}, {}]",
                                lb[j],
                                ub[j]
                            );
                        }
                    }
                    (LpOutcome::Infeasible, LpOutcome::Infeasible) => infeasible += 1,
                    _ => panic!("case {case} step {step}: warm {warm:?} vs cold {fresh:?}"),
                }
            }
        }
        // the families must exercise both outcomes and real dual work
        assert!(
            optimal > 1000 && infeasible > 300,
            "{optimal} optimal, {infeasible} infeasible"
        );
        assert!(pivots > 1000, "{pivots} dual pivots");
    }
}
