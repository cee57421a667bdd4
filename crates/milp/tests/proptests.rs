//! Randomized tests: the solver agrees with brute force on random small
//! models. Driven by the internal PRNG (reproducible seeds, no registry
//! dependencies).

use columba_milp::{MipResult, Model, Sense, SolveParams, SolveStatus};
use columba_prng::Rng;

/// Brute-force optimum of a pure-binary minimisation model by enumerating all
/// 2^n assignments.
fn brute_force_binary(n: usize, rows: &[(Vec<f64>, Sense, f64)], cost: &[f64]) -> Option<f64> {
    let mut best: Option<f64> = None;
    for mask in 0u32..(1 << n) {
        let x: Vec<f64> = (0..n).map(|i| f64::from((mask >> i) & 1)).collect();
        let feasible = rows.iter().all(|(coefs, sense, rhs)| {
            let act: f64 = coefs.iter().zip(&x).map(|(c, v)| c * v).sum();
            match sense {
                Sense::Le => act <= rhs + 1e-9,
                Sense::Ge => act >= rhs - 1e-9,
                Sense::Eq => (act - rhs).abs() <= 1e-9,
            }
        });
        if feasible {
            let obj: f64 = cost.iter().zip(&x).map(|(c, v)| c * v).sum();
            best = Some(best.map_or(obj, |b: f64| b.min(obj)));
        }
    }
    best
}

fn solve_binary(
    n: usize,
    rows: &[(Vec<f64>, Sense, f64)],
    cost: &[f64],
    threads: usize,
) -> MipResult {
    let mut m = Model::new();
    let vars: Vec<_> = (0..n).map(|i| m.bin_var(format!("b{i}"))).collect();
    for (coefs, sense, rhs) in rows {
        let mut e = Model::expr();
        for (c, &v) in coefs.iter().zip(&vars) {
            e = e.term(*c, v);
        }
        m.constraint(e, *sense, *rhs);
    }
    let mut obj = Model::expr();
    for (c, &v) in cost.iter().zip(&vars) {
        obj = obj.term(*c, v);
    }
    m.minimize(obj);
    let params = SolveParams {
        threads,
        ..SolveParams::default()
    };
    m.solve(&params).expect("solver must not fail numerically")
}

/// Small integer coefficient in `[-5, 5]` (keeps the brute force exact).
fn coef(rng: &mut Rng) -> f64 {
    rng.gen_range(-5i64..=5) as f64
}

fn random_rows(rng: &mut Rng, n: usize) -> Vec<(Vec<f64>, Sense, f64)> {
    let n_rows = rng.gen_range(1usize..5);
    (0..n_rows)
        .map(|_| {
            let coefs: Vec<f64> = (0..n).map(|_| coef(rng)).collect();
            let sense = if rng.gen_bool(0.5) {
                Sense::Le
            } else {
                Sense::Ge
            };
            let rhs = rng.gen_range(-10i64..=15) as f64;
            (coefs, sense, rhs)
        })
        .collect()
}

/// Branch & bound matches exhaustive enumeration on random binary MILPs,
/// with one worker and with four.
#[test]
fn binary_milp_matches_brute_force() {
    let mut rng = Rng::seed_from_u64(0xB1B0);
    for case in 0..64 {
        let n = rng.gen_range(2usize..7);
        let rows = random_rows(&mut rng, n);
        let cost: Vec<f64> = (0..n).map(|_| coef(&mut rng)).collect();
        let expected = brute_force_binary(n, &rows, &cost);
        for threads in [1, 4] {
            let result = solve_binary(n, &rows, &cost, threads);
            match expected {
                None => assert_eq!(
                    result.status(),
                    SolveStatus::Infeasible,
                    "case {case} threads {threads}"
                ),
                Some(opt) => {
                    assert_eq!(result.status(), SolveStatus::Optimal, "case {case}");
                    let got = result.solution().unwrap().objective();
                    assert!(
                        (got - opt).abs() < 1e-6,
                        "case {case} threads {threads}: solver {got} vs brute force {opt}"
                    );
                }
            }
        }
    }
}

/// On LPs with a bounded box, the simplex never reports worse than any
/// feasible corner we can sample, and its solution satisfies every row.
#[test]
fn lp_solution_is_feasible_and_not_dominated_by_corners() {
    let mut rng = Rng::seed_from_u64(0x1B);
    for case in 0..64 {
        let n = rng.gen_range(2usize..5);
        let rows: Vec<(Vec<f64>, f64)> = (0..rng.gen_range(1usize..5))
            .map(|_| {
                let coefs: Vec<f64> = (0..n).map(|_| coef(&mut rng)).collect();
                let rhs = rng.gen_range(0i64..=20) as f64;
                (coefs, rhs)
            })
            .collect();
        let cost: Vec<f64> = (0..n).map(|_| coef(&mut rng)).collect();

        let mut m = Model::new();
        let vars: Vec<_> = (0..n)
            .map(|i| m.num_var(format!("x{i}"), 0.0, 3.0))
            .collect();
        for (coefs, rhs) in &rows {
            let mut e = Model::expr();
            for (c, &v) in coefs.iter().zip(&vars) {
                e = e.term(*c, v);
            }
            m.constraint(e, Sense::Le, *rhs);
        }
        let mut obj = Model::expr();
        for (c, &v) in cost.iter().zip(&vars) {
            obj = obj.term(*c, v);
        }
        m.minimize(obj);
        let r = m
            .solve(&SolveParams::default())
            .expect("no numerical failure");
        // The box corner at the origin is feasible iff all rhs >= 0, which
        // holds by construction, so the LP must be feasible.
        assert_eq!(r.status(), SolveStatus::Optimal, "case {case}");
        let sol = r.solution().unwrap();
        // feasibility of the returned point
        for (coefs, rhs) in &rows {
            let act: f64 = coefs
                .iter()
                .zip(&vars)
                .map(|(c, &v)| c * sol.value(v))
                .sum();
            assert!(
                act <= rhs + 1e-6,
                "case {case}: row violated: {act} > {rhs}"
            );
        }
        for &v in &vars {
            assert!(sol.value(v) >= -1e-9 && sol.value(v) <= 3.0 + 1e-9);
        }
        // not dominated by any feasible {0,3}^n corner
        for mask in 0u32..(1 << n) {
            let x: Vec<f64> = (0..n)
                .map(|i| if (mask >> i) & 1 == 1 { 3.0 } else { 0.0 })
                .collect();
            let corner_feasible = rows.iter().all(|(coefs, rhs)| {
                coefs.iter().zip(&x).map(|(c, v)| c * v).sum::<f64>() <= rhs + 1e-9
            });
            if corner_feasible {
                let corner_obj: f64 = cost.iter().zip(&x).map(|(c, v)| c * v).sum();
                assert!(
                    sol.objective() <= corner_obj + 1e-6,
                    "case {case}: corner {x:?} beats reported optimum: {corner_obj} < {}",
                    sol.objective()
                );
            }
        }
    }
}

/// Mixed models: integers restricted to a small range match brute force.
#[test]
fn small_integer_milp_matches_brute_force() {
    let mut rng = Rng::seed_from_u64(0x5EED);
    for case in 0..128 {
        let coefs = [coef(&mut rng), coef(&mut rng)];
        // min c1 x + c2 y s.t. a1 x + a2 y >= rhs - 6 (can be negative =>
        // feasible), 0 <= x,y <= 4 integer
        let shifted = rng.gen_range(0i64..=12) as f64 - 6.0;
        let cost = [
            rng.gen_range(-4i64..=4) as f64,
            rng.gen_range(-4i64..=4) as f64,
        ];
        let mut m = Model::new();
        let x = m.int_var("x", 0.0, 4.0);
        let y = m.int_var("y", 0.0, 4.0);
        m.constraint(
            Model::expr().term(coefs[0], x).term(coefs[1], y),
            Sense::Ge,
            shifted,
        );
        m.minimize(Model::expr().term(cost[0], x).term(cost[1], y));
        let r = m
            .solve(&SolveParams::default())
            .expect("no numerical failure");

        let mut best: Option<f64> = None;
        for xi in 0..=4 {
            for yi in 0..=4 {
                let act = coefs[0] * f64::from(xi) + coefs[1] * f64::from(yi);
                if act >= shifted - 1e-9 {
                    let o = cost[0] * f64::from(xi) + cost[1] * f64::from(yi);
                    best = Some(best.map_or(o, |b: f64| b.min(o)));
                }
            }
        }
        match best {
            None => assert_eq!(r.status(), SolveStatus::Infeasible, "case {case}"),
            Some(opt) => {
                assert_eq!(r.status(), SolveStatus::Optimal, "case {case}");
                assert!(
                    (r.solution().unwrap().objective() - opt).abs() < 1e-6,
                    "case {case}"
                );
            }
        }
    }
}

/// A one-dimensional placement instance shaped like the layout models:
/// units of integer width at integer positions in `[0, chip - width]`,
/// pairwise non-overlap, minimising weighted positions plus the extent.
struct Placement {
    widths: Vec<i64>,
    weights: Vec<i64>,
    chip: i64,
}

impl Placement {
    fn random(rng: &mut Rng) -> Placement {
        let units = rng.gen_range(2usize..4);
        Placement {
            widths: (0..units).map(|_| rng.gen_range(1i64..=3)).collect(),
            weights: (0..units).map(|_| rng.gen_range(0i64..=2)).collect(),
            // sometimes too narrow for every unit: integer infeasible while
            // the big-M relaxation stays feasible
            chip: rng.gen_range(2i64..=8),
        }
    }

    /// Exhaustive optimum over every integer position vector.
    fn brute_force(&self) -> Option<f64> {
        let units = self.widths.len();
        let mut best: Option<i64> = None;
        let mut pos = vec![0i64; units];
        loop {
            let fits = (0..units).all(|a| pos[a] + self.widths[a] <= self.chip);
            let apart = (0..units).all(|a| {
                ((a + 1)..units)
                    .all(|b| pos[a] + self.widths[a] <= pos[b] || pos[b] + self.widths[b] <= pos[a])
            });
            if fits && apart {
                let extent = (0..units).map(|a| pos[a] + self.widths[a]).max().unwrap();
                let obj = extent + (0..units).map(|a| self.weights[a] * pos[a]).sum::<i64>();
                best = Some(best.map_or(obj, |b| b.min(obj)));
            }
            // odometer over [0, chip]^units
            let mut k = 0;
            while k < units && pos[k] == self.chip {
                pos[k] = 0;
                k += 1;
            }
            if k == units {
                break;
            }
            pos[k] += 1;
        }
        best.map(|b| b as f64)
    }

    /// The MILP with big-M disjunctions: for each pair, binaries `q_ab`
    /// and `q_ba` select "a left of b" or "b left of a", at least one holds.
    fn solve(&self, threads: usize) -> MipResult {
        let units = self.widths.len();
        let chip = self.chip as f64;
        let big_m = chip + 4.0;
        let mut m = Model::new();
        let x: Vec<_> = (0..units)
            .map(|a| m.int_var(format!("x{a}"), 0.0, chip))
            .collect();
        let extent = m.num_var("extent", 0.0, chip);
        for a in 0..units {
            let w = self.widths[a] as f64;
            m.constraint(
                Model::expr().term(1.0, x[a]).term(-1.0, extent),
                Sense::Le,
                -w,
            );
            for b in (a + 1)..units {
                let qab = m.bin_var(format!("q{a}_{b}"));
                let qba = m.bin_var(format!("q{b}_{a}"));
                // x_a + w_a <= x_b + M (1 - q_ab)
                m.constraint(
                    Model::expr()
                        .term(1.0, x[a])
                        .term(-1.0, x[b])
                        .term(big_m, qab),
                    Sense::Le,
                    big_m - w,
                );
                m.constraint(
                    Model::expr()
                        .term(1.0, x[b])
                        .term(-1.0, x[a])
                        .term(big_m, qba),
                    Sense::Le,
                    big_m - self.widths[b] as f64,
                );
                m.constraint(Model::expr().term(1.0, qab).term(1.0, qba), Sense::Ge, 1.0);
            }
        }
        let mut obj = Model::expr().term(1.0, extent);
        for (&w, &xa) in self.weights.iter().zip(&x) {
            obj = obj.term(w as f64, xa);
        }
        m.minimize(obj);
        let params = SolveParams {
            threads,
            ..SolveParams::default()
        };
        m.solve(&params).expect("solver must not fail numerically")
    }
}

/// Big-M disjunction models (the layout models' dominant pattern) match
/// exhaustive enumeration, infeasible ones included, with one worker and
/// with four.
#[test]
fn big_m_disjunction_milp_matches_brute_force() {
    let mut rng = Rng::seed_from_u64(0xD15C);
    let mut infeasible = 0;
    for case in 0..48 {
        let inst = Placement::random(&mut rng);
        let expected = inst.brute_force();
        infeasible += usize::from(expected.is_none());
        for threads in [1, 4] {
            let result = inst.solve(threads);
            match expected {
                None => assert_eq!(
                    result.status(),
                    SolveStatus::Infeasible,
                    "case {case} threads {threads}"
                ),
                Some(opt) => {
                    assert_eq!(result.status(), SolveStatus::Optimal, "case {case}");
                    let got = result.solution().unwrap().objective();
                    assert!(
                        (got - opt).abs() < 1e-6,
                        "case {case} threads {threads}: solver {got} vs brute force {opt}"
                    );
                }
            }
        }
    }
    assert!(infeasible >= 4, "only {infeasible} infeasible cases");
}

/// Integer-infeasible binary models whose LP relaxation is feasible (an
/// even-coefficient equality with an odd right-hand side below the row's
/// total), so branch & bound itself must prove infeasibility, with one
/// worker and with four.
#[test]
fn integer_infeasible_binary_milp_is_proven_infeasible() {
    let mut rng = Rng::seed_from_u64(0x0DD);
    for case in 0..32 {
        let n = rng.gen_range(3usize..7);
        let mut rows = Vec::new();
        let coefs: Vec<f64> = (0..n)
            .map(|_| 2.0 * rng.gen_range(1i64..=3) as f64)
            .collect();
        let total: f64 = coefs.iter().sum();
        let odd = 2.0 * rng.gen_range(0i64..(total as i64 / 2)) as f64 + 1.0;
        rows.push((coefs, Sense::Eq, odd));
        let cost: Vec<f64> = (0..n).map(|_| coef(&mut rng)).collect();
        assert_eq!(brute_force_binary(n, &rows, &cost), None, "case {case}");
        for threads in [1, 4] {
            let result = solve_binary(n, &rows, &cost, threads);
            assert_eq!(
                result.status(),
                SolveStatus::Infeasible,
                "case {case} threads {threads}"
            );
        }
    }
}
