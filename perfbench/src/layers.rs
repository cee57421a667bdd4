//! Per-layer metrics of the traced run, derived from the `columba_obs`
//! spans it recorded and the counters the library returns.

use std::collections::{BTreeMap, HashMap};

use columba_obs::{AttrValue, SpanEvent};

use crate::flow::{Outcome, DESIGN_SPAN};
use crate::report::{ratio, Metrics};

/// Time of one traced design, split by layer, in seconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct Split {
    pub netlist: f64,
    pub planar: f64,
    pub schedule: f64,
    /// The `layout` layer's own time outside laygen and layval: building
    /// the entity plan.
    pub plan: f64,
    pub laygen: f64,
    pub layval: f64,
    pub drc: f64,
    pub cad: f64,
    /// The design span's self time: what no layer span covers.
    pub other: f64,
    pub total: f64,
    /// Bytes allocated under the solver's `milp.solve` spans.
    pub milp_alloc_bytes: u64,
}

impl Split {
    fn layers(&self) -> f64 {
        self.total - self.other
    }
}

fn uint_attr(e: &SpanEvent, key: &str) -> Option<u64> {
    e.attrs.iter().find_map(|(k, v)| match v {
        AttrValue::Uint(n) if *k == key => Some(*n),
        _ => None,
    })
}

/// Splits every [`DESIGN_SPAN`] among `events` by layer, keyed by its
/// `design` attribute. A layer's time is the duration of its span:
/// the benchmark's spans around the public calls (`netlist.parse`,
/// `planar.planarize`, `schedule.run`, `layout.synthesize`,
/// `design.drc`, `cad.render`) and, inside `layout.synthesize`, the
/// library's own `laygen` and `layval` spans.
pub fn splits(events: &[SpanEvent]) -> BTreeMap<usize, Split> {
    let secs = |e: &SpanEvent| e.dur_us as f64 * 1e-6;
    let by_id: HashMap<u64, &SpanEvent> = events.iter().map(|e| (e.id, e)).collect();
    let root_of = |e: &SpanEvent| -> Option<u64> {
        let mut at = e.parent;
        while let Some(id) = at {
            let p = by_id.get(&id)?;
            if p.name == DESIGN_SPAN {
                return Some(id);
            }
            at = p.parent;
        }
        None
    };
    let mut by_root: HashMap<u64, Split> = HashMap::new();
    let mut layout: HashMap<u64, f64> = HashMap::new();
    let mut covered: HashMap<u64, f64> = HashMap::new();
    for e in events {
        let Some(root) = root_of(e) else { continue };
        let s = by_root.entry(root).or_default();
        match e.name {
            "netlist.parse" => s.netlist += secs(e),
            "planar.planarize" => s.planar += secs(e),
            "schedule.run" => s.schedule += secs(e),
            "layout.synthesize" => *layout.entry(root).or_default() += secs(e),
            "laygen" => s.laygen += secs(e),
            "layval" => s.layval += secs(e),
            "design.drc" => s.drc += secs(e),
            "cad.render" => s.cad += secs(e),
            "milp.solve" => s.milp_alloc_bytes += uint_attr(e, "alloc_bytes").unwrap_or(0),
            _ => {}
        }
        if e.parent == Some(root) {
            *covered.entry(root).or_default() += secs(e);
        }
    }
    let mut out = BTreeMap::new();
    for e in events.iter().filter(|e| e.name == DESIGN_SPAN) {
        let Some(design) = uint_attr(e, "design") else {
            continue;
        };
        let mut s = by_root.get(&e.id).copied().unwrap_or_default();
        s.plan = layout.get(&e.id).copied().unwrap_or(0.0) - s.laygen - s.layval;
        s.total = secs(e);
        s.other = s.total - covered.get(&e.id).copied().unwrap_or(0.0);
        out.insert(design as usize, s);
    }
    out
}

/// Prints the ledger line of every design: its end-to-end time next to
/// the sum of the layers' times, with the remainder as `other_s`.
pub fn print_ledger(splits: &BTreeMap<usize, Split>, names: &[String]) {
    println!("ledger (traced pass, seconds per design):");
    for (&i, s) in splits {
        println!(
            "  {:<28} e2e {:.6} = layers {:.6} + other_s {:.6}  [netlist {:.6} planar {:.6} \
             schedule {:.6} plan {:.6} laygen {:.6} layval {:.6} drc {:.6} cad {:.6}]",
            names[i],
            s.total,
            s.layers(),
            s.other,
            s.netlist,
            s.planar,
            s.schedule,
            s.plan,
            s.laygen,
            s.layval,
            s.drc,
            s.cad
        );
    }
}

/// Adds the library-layer metrics of one traced pass. Times are means
/// per design; counts are totals over the pass. `traced` and `splits`
/// are keyed by design index; `plain` holds the untraced times of some
/// designs by index, the base of the tracing overhead ratio.
pub fn add_layer_metrics(
    m: &mut Metrics,
    traced: &BTreeMap<usize, Outcome>,
    splits: &BTreeMap<usize, Split>,
    plain: &BTreeMap<usize, f64>,
) {
    let n = splits.len() as f64;
    let mean = |f: &dyn Fn(&Split) -> f64| splits.values().map(f).sum::<f64>() / n;
    let sum = |f: &dyn Fn(&Outcome) -> f64| traced.values().map(f).sum::<f64>();
    let secs = |d: std::time::Duration| d.as_secs_f64();
    let designs = traced.len() as f64;

    let pivots = sum(&|o| o.solve().simplex_iterations as f64);
    let nodes = sum(&|o| o.solve().nodes_processed as f64);
    let solve_s = sum(&|o| secs(o.solve().total_time));
    m.add(
        "milp.root_s",
        sum(&|o| secs(o.solve().root_time)) / designs,
        "s",
    );
    m.add(
        "milp.search_s",
        sum(&|o| secs(o.solve().search_time)) / designs,
        "s",
    );
    m.add("milp.pivots", pivots, "count");
    m.add("milp.nodes", nodes, "count");
    // every solve's root LP counts as one node
    m.add(
        "milp.pivots_per_node",
        ratio(pivots, nodes + designs),
        "count",
    );
    m.add("milp.pivot_us", ratio(solve_s * 1e6, pivots), "us");
    m.add(
        "milp.nodes_pruned_frac",
        ratio(sum(&|o| o.solve().nodes_pruned as f64), nodes),
        "ratio",
    );
    m.add(
        "milp.alloc_bytes",
        splits.values().map(|s| s.milp_alloc_bytes as f64).sum(),
        "bytes",
    );

    m.add("layout.laygen_s", mean(&|s| s.laygen), "s");
    let build: f64 = splits
        .iter()
        .filter_map(|(i, s)| traced.get(i).map(|o| s.laygen - secs(o.solve().total_time)))
        .sum::<f64>()
        / n;
    m.add("layout.model_build_s", build, "s");
    m.add(
        "layout.model_vars",
        sum(&|o| o.model().vars as f64),
        "count",
    );
    m.add(
        "layout.model_rows",
        sum(&|o| o.model().constraints as f64),
        "count",
    );
    m.add(
        "layout.model_nonzeros",
        sum(&|o| o.model().nonzeros as f64),
        "count",
    );
    m.add(
        "layout.disjunctions",
        sum(&|o| o.laygen.disjunctions as f64),
        "count",
    );
    m.add("layout.layval_s", mean(&|s| s.layval), "s");

    m.add("design.drc_s", mean(&|s| s.drc), "s");
    m.add(
        "design.drc_violations",
        sum(&|o| o.drc_violations as f64),
        "count",
    );
    m.add("cad.render_s", mean(&|s| s.cad), "s");
    m.add(
        "cad.bytes",
        sum(&|o| (o.svg.len() + o.scr.len()) as f64),
        "bytes",
    );
    m.add("netlist.parse_s", mean(&|s| s.netlist), "s");
    m.add("netlist.units", sum(&|o| o.units as f64), "count");
    m.add("planar.planarize_s", mean(&|s| s.planar), "s");
    m.add(
        "planar.switches_added",
        sum(&|o| o.switches_added as f64),
        "count",
    );

    let assays = traced.values().filter(|o| o.schedule.is_some()).count();
    m.add(
        "schedule.schedule_s",
        ratio(splits.values().map(|s| s.schedule).sum(), assays as f64),
        "s",
    );
    m.add(
        "schedule.ops",
        sum(&|o| o.schedule.map_or(0.0, |s| s.ops as f64)),
        "count",
    );
    m.add(
        "schedule.storage_ops",
        sum(&|o| o.schedule.map_or(0.0, |s| s.storage_ops as f64)),
        "count",
    );

    let total = mean(&|s| s.total);
    let other = mean(&|s| s.other);
    m.add("ledger.design_s", total, "s");
    m.add("ledger.layers_s", total - other, "s");
    m.add("ledger.other_s", other, "s");
    let (traced_s, plain_s) = plain
        .iter()
        .filter_map(|(i, p)| splits.get(i).map(|s| (s.total, *p)))
        .fold((0.0, 0.0), |(a, b), (t, p)| (a + t, b + p));
    m.add("trace.overhead_ratio", ratio(traced_s, plain_s), "ratio");
}

#[cfg(test)]
mod tests {
    use super::*;
    use columba_obs::EventKind;

    fn event(id: u64, parent: Option<u64>, name: &'static str, dur_us: u64) -> SpanEvent {
        SpanEvent {
            id,
            parent,
            name,
            start_us: 0,
            dur_us,
            tid: 1,
            attrs: if name == DESIGN_SPAN {
                vec![("design", AttrValue::Uint(7))]
            } else {
                Vec::new()
            },
            kind: EventKind::Span,
        }
    }

    #[test]
    fn split_attributes_nested_spans_to_their_design() {
        let events = [
            event(2, Some(1), "netlist.parse", 100),
            event(4, Some(3), "laygen", 500),
            event(5, Some(3), "layval", 200),
            event(3, Some(1), "layout.synthesize", 800),
            event(1, None, DESIGN_SPAN, 1000),
        ];
        let s = splits(&events)[&7];
        assert!((s.laygen - 500e-6).abs() < 1e-12);
        assert!((s.plan - 100e-6).abs() < 1e-12);
        assert!((s.other - 100e-6).abs() < 1e-12);
        assert!((s.layers() - 900e-6).abs() < 1e-12);
    }
}
