//! The `search` and `polish` workloads: a pool of designs run through
//! `Columba::synthesize_text` in whole passes.
//!
//! * `search`: the five bundled literature netlists, branch and bound
//!   under a fixed node budget. The seed sets the order of the pool.
//! * `polish`: seeded `random_netlist` designs of 16 units, run
//!   with `node_limit = 0` (constructive placement plus one LP polish).
//!
//! The first pass computes every design for the first time (`cold`);
//! later passes repeat them (`hit`). The library keeps no cache, so a
//! repeat costs a full synthesis: the split shows that, and keeps the
//! metric names shared with the `service` workload.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use columba_prng::Rng;
use columba_s::layout::LayoutOptions;
use columba_s::netlist::{generators, MuxCount};
use columba_s::{Columba, Netlist, SynthesisOptions};
use columba_schedule::ScheduleOptions;

use columba_obs::SpanRecorder;

use crate::flow::{run_plain, run_traced, Input, Outcome};
use crate::layers::{add_layer_metrics, print_ledger, splits};
use crate::report::{geomean, median, peak_heap_mb, peak_rss_mb, percentile, repeat_for};
use crate::{service, Args, RunResult};

/// The bundled literature netlists of the `search` workload, with the
/// eq-13 objective each reaches under [`SEARCH_NODES`] at one thread.
const SEARCH_CASES: [(&str, f64); 5] = [
    ("kinase_activity", 62.185),
    ("mrna_isolation", 51.2075),
    ("nucleic_acid_processor", 44.7725),
    ("columba2_21u", 76.0025),
    ("chip4ip", 70.045),
];

/// Branch-and-bound node budget of every `search` solve.
const SEARCH_NODES: usize = 2;

/// Unit count of every `polish` design, and how many designs a pool
/// holds: half with one MUX, half with two. One size and many designs
/// keep the seed-to-seed spread of the pool's cost small. At 16 units the
/// model has 4.3k to 5k variables and 5.5k to 6.3k rows, and its root LP
/// takes 97% of a design's time; above 22 units one root LP takes 1.3 s
/// (24) to 16 s (40), which would leave room for too few designs.
const POLISH_UNITS: usize = 16;
const POLISH_DESIGNS: usize = 96;

/// Designs the traced run also runs untraced: the base of the tracing
/// overhead ratio, and the reference the traced path must match.
const OVERHEAD_DESIGNS: usize = 20;

/// Span events one traced pass may record; a pass over the largest pool
/// records about a tenth of this.
const SPAN_CAPACITY: usize = 1 << 16;

/// How long the timed run repeats its set-up in one block before it
/// starts, and the fewest repeats; the median of the repeats is
/// `setup_s`.
const SETUP_WINDOW: Duration = Duration::from_millis(500);
const SETUP_MIN: usize = 20;

/// Where `polish` repeats its set-up instead: once after each design,
/// and for this share of the design's time. Generating the 96 netlists
/// (2.6 ms) in a block at the start of a fresh process spread by 0.35
/// over five seeds (quartile distance over median), after each design
/// by 0.04. Reading the five `search` netlists (0.1 ms) behaves the
/// other way: after each design its median fell into one of two modes,
/// 62 or 95 µs, by seed (spread 0.44); in a block at the start, 0.11.
const SETUP_SHARE: f64 = 0.01;

/// A solve time limit far above any design's expected time: the node
/// budget ends every solve, never this.
const TIME_LIMIT: Duration = Duration::from_secs(120);

/// The designs of one workload run.
pub struct Pool {
    pub names: Vec<String>,
    pub inputs: Vec<Input>,
    /// Pinned objective per design, where one is known.
    pub pinned: Vec<Option<f64>>,
}

/// A pool with the flow that synthesizes it.
pub struct Workload {
    pub pool: Pool,
    flow: Columba,
    sched: ScheduleOptions,
    /// The node budget every solve must stay within.
    node_limit: usize,
    /// The time limit no solve may reach.
    time_limit: Duration,
}

/// The options of every solve: one thread, a node budget, and a time
/// limit far above the expected time.
pub fn synthesis_options(node_limit: usize, time_limit: Duration) -> SynthesisOptions {
    SynthesisOptions {
        layout: LayoutOptions {
            node_limit,
            threads: 1,
            time_limit,
            ..LayoutOptions::default()
        },
        ..SynthesisOptions::default()
    }
}

impl Workload {
    pub fn new(pool: Pool, node_limit: usize, time_limit: Duration) -> Workload {
        Workload {
            pool,
            flow: Columba::with_options(synthesis_options(node_limit, time_limit)),
            sched: ScheduleOptions::default(),
            node_limit,
            time_limit,
        }
    }

    /// Checks design `i`'s run: the output checks, the budget guard, the
    /// node budget and the pinned objective.
    fn check(&self, i: usize, o: &Outcome) -> Result<(), String> {
        o.verify(self.time_limit)?;
        if o.solve().nodes_processed > self.node_limit {
            return Err(format!(
                "{} nodes beyond the budget of {}",
                o.solve().nodes_processed,
                self.node_limit
            ));
        }
        if let Some(want) = self.pool.pinned[i] {
            if (o.objective - want).abs() > 1e-6 * want.abs().max(1.0) {
                return Err(format!(
                    "objective {} differs from the pinned {want}",
                    o.objective
                ));
            }
        }
        Ok(())
    }

    /// Runs design `i` untraced and checks it.
    pub fn plain(&self, i: usize) -> Result<Outcome, String> {
        let o = run_plain(&self.flow, &self.sched, &self.pool.inputs[i])?;
        self.check(i, &o).map(|()| o)
    }

    /// One traced pass over the pool, keyed by design index.
    fn traced_pass(&self, result: &mut RunResult) -> BTreeMap<usize, Outcome> {
        let mut traced = BTreeMap::new();
        for (i, input) in self.pool.inputs.iter().enumerate() {
            result.attempted += 1;
            let run = run_traced(&self.flow, &self.sched, input, i)
                .and_then(|o| self.check(i, &o).map(|()| o));
            match run {
                Ok(o) => {
                    traced.insert(i, o);
                }
                Err(e) => result.fail(format!("{}: {e}", self.pool.names[i])),
            }
        }
        traced
    }

    /// The traced run's library layers. An untraced pass over the first
    /// [`OVERHEAD_DESIGNS`] designs is the base of the overhead ratio and
    /// the reference the traced path must match: same pivots, nodes,
    /// model and objective. Then two traced passes over the pool under a
    /// `columba_obs` span recorder, whose counts must repeat exactly.
    /// Prints the ledger, adds the layer metrics and writes the first
    /// traced pass's spans as a Chrome trace.
    pub fn trace_layers(&self, args: &Args, result: &mut RunResult) -> Result<(), String> {
        let mut plain = BTreeMap::new();
        let mut reference = BTreeMap::new();
        for i in 0..self.pool.inputs.len().min(OVERHEAD_DESIGNS) {
            result.attempted += 1;
            let t = Instant::now();
            let run = self.plain(i);
            let secs = t.elapsed().as_secs_f64();
            match run {
                Ok(o) => {
                    plain.insert(i, secs);
                    reference.insert(i, o);
                }
                Err(e) => result.fail(format!("{}: {e}", self.pool.names[i])),
            }
        }

        columba_obs::set_enabled(true);
        let recorder = SpanRecorder::new(SPAN_CAPACITY);
        let guard = recorder.install();
        let traced = self.traced_pass(result);
        let events = recorder.finished();
        recorder.clear();
        let again = self.traced_pass(result);
        drop(guard);
        columba_obs::set_enabled(false);
        if recorder.evicted() > 0 {
            result.fail(format!(
                "span recorder dropped {} events; raise SPAN_CAPACITY",
                recorder.evicted()
            ));
        }

        let name = |i: usize| &self.pool.names[i];
        for (i, o) in &reference {
            if let Some(t) = traced.get(i) {
                if let Err(e) = o.same_work(t) {
                    result.fail(format!(
                        "{}: traced path differs from the timed one: {e}",
                        name(*i)
                    ));
                }
            }
        }
        for (i, o) in &traced {
            if let Some(t) = again.get(i) {
                if let Err(e) = o.same_work(t) {
                    result.fail(format!("{}: count self-check: {e}", name(*i)));
                }
            }
        }
        if traced.is_empty() {
            return Err("no design completed in the traced pass".into());
        }
        let splits = splits(&events);
        print_ledger(&splits, &self.pool.names);
        add_layer_metrics(&mut result.metrics, &traced, &splits, &plain);
        args.write_trace("layers.json", &columba_obs::chrome_trace(&events))
    }
}

/// Fisher-Yates shuffle of `v`.
pub fn shuffle<T>(rng: &mut Rng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

fn search_pool(seed: u64) -> Result<Pool, String> {
    let mut cases = SEARCH_CASES.to_vec();
    shuffle(&mut Rng::seed_from_u64(seed), &mut cases);
    let mut pool = Pool {
        names: Vec::new(),
        inputs: Vec::new(),
        pinned: Vec::new(),
    };
    for (name, objective) in cases {
        let path = format!("cases/{name}.netlist");
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        Netlist::parse(&text)
            .and_then(|n| n.validate())
            .map_err(|e| format!("{path}: {e}"))?;
        pool.names.push(name.to_string());
        pool.inputs.push(Input::Netlist(text));
        pool.pinned.push(Some(objective));
    }
    Ok(pool)
}

fn polish_pool(seed: u64) -> Pool {
    let mut rng = Rng::seed_from_u64(seed);
    let mut pool = Pool {
        names: Vec::new(),
        inputs: Vec::new(),
        pinned: Vec::new(),
    };
    // `random_netlist` draws the MUX count too; keep drawing until both
    // counts have their share.
    let mut left = [POLISH_DESIGNS / 2, POLISH_DESIGNS / 2];
    while left != [0, 0] {
        let netlist = generators::random_netlist(&mut rng, POLISH_UNITS);
        let two = usize::from(netlist.mux_count == MuxCount::Two);
        if left[two] == 0 {
            continue;
        }
        left[two] -= 1;
        pool.names
            .push(format!("random{}_mux{}", pool.names.len(), two + 1));
        pool.inputs.push(Input::Netlist(netlist.to_text()));
        pool.pinned.push(None);
    }
    pool
}

/// Runs the `search` or `polish` workload.
pub fn run(args: &Args) -> Result<RunResult, String> {
    let polish = args.workload == "polish";
    let node_limit = if polish { 0 } else { SEARCH_NODES };
    // Set-up: read or generate the inputs and build the flow.
    let setup = || -> Result<Workload, String> {
        let pool = if polish {
            polish_pool(args.seed)
        } else {
            search_pool(args.seed)?
        };
        Ok(Workload::new(pool, node_limit, TIME_LIMIT))
    };
    let w = setup()?;

    let mut result = RunResult::default();
    if args.trace {
        w.trace_layers(args, &mut result)?;
        service::add_absent_service_metrics(&mut result.metrics);
    } else {
        let setups = if polish {
            let mut setups = Vec::new();
            timed_run(args, &w, &mut result, &mut |design_s| {
                let share = Duration::from_secs_f64(design_s * SETUP_SHARE);
                setups.extend(repeat_for(share, 1, || {
                    setup().map(|w| drop(std::hint::black_box(w)))
                })?);
                Ok(())
            })?;
            setups
        } else {
            let setups = repeat_for(SETUP_WINDOW, SETUP_MIN, || {
                setup().map(|w| drop(std::hint::black_box(w)))
            })?;
            timed_run(args, &w, &mut result, &mut |_| Ok(()))?;
            setups
        };
        println!(
            "set-up repeats {}: quartiles {:.6} {:.6} {:.6} s",
            setups.len(),
            percentile(&setups, 0.25),
            median(&setups),
            percentile(&setups, 0.75)
        );
        result.metrics.add("setup_s", median(&setups), "s");
    }
    Ok(result)
}

/// Runs the pool in whole passes for `--seconds` and adds the
/// end-to-end metrics but `setup_s`. Calls `after` with each design's
/// time after the design; the time `after` takes is left out of
/// `designs_per_s`.
fn timed_run(
    args: &Args,
    w: &Workload,
    result: &mut RunResult,
    after: &mut dyn FnMut(f64) -> Result<(), String>,
) -> Result<(), String> {
    let mut cold = Vec::new();
    let mut hit = Vec::new();
    let mut objectives = Vec::new();
    let mut areas = Vec::new();
    let mut after_s = 0.0;
    let start = Instant::now();
    let mut pass = 0;
    // Whole passes, at least two so that every design is also repeated,
    // and none that would end past the measured time.
    while pass < 2
        || start.elapsed().as_secs_f64() * (pass + 1) as f64 / pass as f64 <= args.seconds
    {
        for i in 0..w.pool.inputs.len() {
            result.attempted += 1;
            let t = Instant::now();
            match w.plain(i) {
                Ok(o) if pass == 0 => {
                    cold.push(o.layout_s);
                    objectives.push(o.objective);
                    areas.push(o.stats.area_mm2());
                }
                Ok(o) => hit.push(o.layout_s),
                Err(e) => result.fail(format!("{}: {e}", w.pool.names[i])),
            }
            let design_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            after(design_s)?;
            after_s += t.elapsed().as_secs_f64();
        }
        pass += 1;
    }
    let elapsed = start.elapsed().as_secs_f64() - after_s;
    println!(
        "{pass} passes over {} designs in {elapsed:.3}s; samples: cold {} hit {}",
        w.pool.inputs.len(),
        cold.len(),
        hit.len()
    );
    let all: Vec<f64> = cold.iter().chain(&hit).copied().collect();
    let m = &mut result.metrics;
    m.add("designs_per_s", all.len() as f64 / elapsed, "1/s");
    m.add("layout_s_geomean", geomean(&all), "s");
    m.add("objective_geomean", geomean(&objectives), "mm");
    m.add("area_mm2_geomean", geomean(&areas), "mm2");
    m.add("cold_s_p50", median(&cold), "s");
    m.add("cold_s_p90", percentile(&cold, 0.9), "s");
    m.add("hit_s_p50", median(&hit), "s");
    m.add("hit_s_p90", percentile(&hit, 0.9), "s");
    m.add("peak_heap_mb", peak_heap_mb(), "MB");
    println!("peak_rss_mb {:.3} (VmHWM, not a metric)", peak_rss_mb());
    Ok(())
}
