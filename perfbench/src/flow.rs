//! One design through the library, two ways.
//!
//! [`run_plain`] is what the timed run does per design: one
//! `Columba` call, then the output checks (DRC, SVG and SCR). [`run_traced`]
//! does the same work as one public call per layer, each under a
//! `columba_obs` span, so the traced run can attribute the design's time
//! to layers. The traced run checks that both ways do the same solver
//! work (see `designs::Workload::trace_layers`).

use std::time::{Duration, Instant};

use columba_s::design::drc;
use columba_s::layout::{self, LaygenReport};
use columba_s::milp::ModelStats;
use columba_s::planar::planarize;
use columba_s::{cad, Columba, Design, DesignStats, Netlist, SolveStats};
use columba_schedule::{Assay, ScheduleOptions, ScheduleStats};

/// Name of the span around one design of the traced run; the layer
/// spans are its children.
pub const DESIGN_SPAN: &str = "bench.design";

/// A request's text in one of the two front-end formats.
#[derive(Debug)]
pub enum Input {
    Netlist(String),
    Assay(String),
}

impl Input {
    pub fn text(&self) -> &str {
        match self {
            Input::Netlist(t) | Input::Assay(t) => t,
        }
    }
}

/// Everything one design run produced that a metric or check reads.
#[derive(Debug)]
pub struct Outcome {
    /// Time to layout: schedule (assays) plus synthesis.
    pub layout_s: f64,
    /// The eq-13 objective of the returned layout.
    pub objective: f64,
    pub stats: DesignStats,
    pub laygen: LaygenReport,
    pub drc_violations: usize,
    /// The rendered CAD exports.
    pub svg: Vec<u8>,
    pub scr: Vec<u8>,
    /// Functional units of the netlist (traced runs only).
    pub units: usize,
    pub switches_added: usize,
    pub schedule: Option<ScheduleStats>,
}

impl Outcome {
    pub fn solve(&self) -> &SolveStats {
        &self.laygen.solve
    }

    pub fn model(&self) -> &ModelStats {
        &self.laygen.model_stats
    }

    /// The counts the traced run must repeat exactly.
    pub fn counts(&self) -> [usize; 6] {
        let m = self.model();
        [
            self.solve().simplex_iterations,
            self.solve().nodes_processed,
            m.vars,
            m.constraints,
            m.nonzeros,
            self.laygen.disjunctions,
        ]
    }

    /// Checks that `other` did the same solver work on the same model
    /// and reached the same objective.
    pub fn same_work(&self, other: &Outcome) -> Result<(), String> {
        let (a, b) = (self.counts(), other.counts());
        if a != b {
            return Err(format!(
                "[pivots, nodes, vars, rows, nonzeros, disjunctions] {a:?} then {b:?}"
            ));
        }
        if self.objective.to_bits() != other.objective.to_bits() {
            return Err(format!(
                "objective {} then {}",
                self.objective, other.objective
            ));
        }
        Ok(())
    }

    /// The output checks and the budget guard. A design fails when its
    /// DRC is dirty, a CAD export is empty, the solve ended by its time
    /// limit, or the layout came from the constructive fallback (below
    /// the full MILP).
    pub fn verify(&self, time_limit: Duration) -> Result<(), String> {
        if self.drc_violations > 0 {
            return Err(format!("{} DRC violations", self.drc_violations));
        }
        if !self.objective.is_finite() {
            return Err("no objective".into());
        }
        if self.svg.is_empty() || self.scr.is_empty() {
            return Err("empty SVG or SCR export".into());
        }
        if !self.laygen.status.has_solution() {
            return Err(format!("solve status {:?}", self.laygen.status));
        }
        if self.solve().total_time >= time_limit {
            return Err(format!(
                "budget guard: solve took {:?}, its time limit is {time_limit:?}",
                self.solve().total_time
            ));
        }
        if self.laygen.used_fallback {
            return Err("budget guard: constructive fallback, below the full MILP".into());
        }
        Ok(())
    }
}

fn render(design: &Design) -> Result<(Vec<u8>, Vec<u8>), String> {
    let mut svg = Vec::new();
    cad::write_svg(design, &mut svg).map_err(|e| format!("svg: {e}"))?;
    let mut scr = Vec::new();
    cad::write_scr(design, &mut scr).map_err(|e| format!("scr: {e}"))?;
    Ok((svg, scr))
}

fn schedule_assay(
    text: &str,
    options: &ScheduleOptions,
) -> Result<columba_schedule::ScheduleReport, String> {
    let assay = Assay::parse(text).map_err(|e| format!("assay: {e}"))?;
    columba_schedule::schedule(&assay, options).map_err(|e| format!("schedule: {e}"))
}

/// The timed path: one `Columba` call, then the output checks.
pub fn run_plain(
    flow: &Columba,
    sched: &ScheduleOptions,
    input: &Input,
) -> Result<Outcome, String> {
    let start = Instant::now();
    let (outcome, schedule) = match input {
        Input::Netlist(text) => (flow.synthesize_text(text), None),
        Input::Assay(text) => {
            let report = schedule_assay(text, sched)?;
            (flow.synthesize(&report.netlist), Some(report.stats()))
        }
    };
    let layout_s = start.elapsed().as_secs_f64();
    let outcome = outcome.map_err(|e| e.to_string())?;
    let drc_violations = drc::check(&outcome.design).violations.len();
    let (svg, scr) = render(&outcome.design)?;
    Ok(Outcome {
        layout_s,
        objective: outcome.layout.objective.unwrap_or(f64::NAN),
        stats: outcome.stats(),
        laygen: outcome.layout.clone(),
        drc_violations,
        svg,
        scr,
        units: 0,
        switches_added: outcome.planarize.switches_added,
        schedule,
    })
}

/// Runs `f` under a span named `name`.
fn traced<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = columba_obs::span(name);
    f()
}

/// The traced path: the same work as [`run_plain`], one public call per
/// layer, under a [`DESIGN_SPAN`] span (attribute `design` = `id`) whose
/// children are the layer spans.
pub fn run_traced(
    flow: &Columba,
    sched: &ScheduleOptions,
    input: &Input,
    id: usize,
) -> Result<Outcome, String> {
    let mut root = columba_obs::span(DESIGN_SPAN);
    root.attr("design", id);
    let start = Instant::now();
    let (netlist, schedule) = match input {
        Input::Netlist(text) => {
            let netlist = traced("netlist.parse", || {
                let n = Netlist::parse(text)?;
                n.validate().map(|()| n)
            });
            (netlist.map_err(|e| format!("netlist: {e}"))?, None)
        }
        Input::Assay(text) => {
            let report = traced("schedule.run", || schedule_assay(text, sched))?;
            let stats = report.stats();
            traced("netlist.parse", || report.netlist.validate())
                .map_err(|e| format!("netlist: {e}"))?;
            (report.netlist, Some(stats))
        }
    };
    let units = netlist.functional_unit_count();
    let (planarized, planar_report) = traced("planar.planarize", || planarize(&netlist));

    // `Columba::synthesize` switches large designs to the scalable mode;
    // the traced path applies the same rule, and the traced run checks
    // that both paths did the same solver work.
    let options = flow.options();
    let mut layout_options = options.layout.clone();
    if options.auto_scale && planarized.functional_unit_count() > options.scale_threshold {
        layout_options.node_limit = 0;
    }
    let result = traced("layout.synthesize", || {
        layout::synthesize(&planarized, &layout_options)
    })
    .map_err(|e| format!("layout: {e}"))?;
    let layout_s = start.elapsed().as_secs_f64();

    let drc_violations = traced("design.drc", || drc::check(&result.design).violations.len());
    let (svg, scr) = traced("cad.render", || render(&result.design))?;
    Ok(Outcome {
        layout_s,
        objective: result.laygen.objective.unwrap_or(f64::NAN),
        stats: result.design.stats(),
        laygen: result.laygen,
        drc_violations,
        svg,
        scr,
        units,
        switches_added: planar_report.switches_added,
        schedule,
    })
}
