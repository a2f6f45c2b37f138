//! Host-side self-profiling for the simulation hot path.
//!
//! The simulated machine already attributes *simulated* cycles (see
//! [`crate::txn`]); this module attributes *host* wall-clock instead:
//! where does the process spend its nanoseconds while `Machine::advance`
//! runs? A [`Prof`] accumulates per-[`Component`] self-time from scoped
//! [`RegionTimer`]s placed around the disjoint phases of the engine's
//! tick loop, and exports flat `prof.*` counters into the metrics
//! registry. [`ProfBreakdown`] then renders the "where did the host time
//! go" table and the host-ns-per-simulated-cycle figure that says
//! which component an optimisation should target.
//!
//! Like the transaction tracer, profiling is compiled into every build
//! but armed explicitly: the disarmed cost is one `Option` null-check
//! per region, the timers never fire, and no `prof.*` keys appear in
//! reports — guarded by `tests/prof_zero_cost.rs`.

use std::time::{Duration, Instant};

use crate::json::Json;
use crate::registry::Registry;

/// Engine components whose host self-time is attributed separately.
/// The regions are disjoint by construction (each wraps a distinct
/// phase of the tick loop), so their self-times are summable and the
/// sum is bounded above by the total `Machine::advance` wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Component {
    /// NOC switch allocation: route, eject, and credit bookkeeping
    /// inside `Network::step`. Injection enqueue cost is charged to the
    /// component that injects (directory, core, memory).
    Noc,
    /// Delivered-packet handling: directory/protocol dispatch, bank
    /// scheduling, snoop fan-out on arrival.
    Directory,
    /// LLC bank service completions (`finish_bank_access`).
    LlcBank,
    /// Memory channel returns.
    Mem,
    /// Core issue loop: poll, issue, inject.
    Core,
    /// Next-event computation in the event-driven scheduler.
    NextEvent,
}

impl Component {
    /// Every component, in presentation order.
    pub const ALL: [Component; 6] = [
        Component::Noc,
        Component::Directory,
        Component::LlcBank,
        Component::Mem,
        Component::Core,
        Component::NextEvent,
    ];

    /// Registry key prefix (`<key>.ns` and `<key>.calls` counters).
    pub fn key(self) -> &'static str {
        match self {
            Component::Noc => "prof.noc",
            Component::Directory => "prof.directory",
            Component::LlcBank => "prof.llc.bank",
            Component::Mem => "prof.mem.chan",
            Component::Core => "prof.core",
            Component::NextEvent => "prof.next_event",
        }
    }

    /// Human-readable table label.
    pub fn label(self) -> &'static str {
        match self {
            Component::Noc => "noc route/eject",
            Component::Directory => "directory/protocol",
            Component::LlcBank => "llc bank service",
            Component::Mem => "memory channels",
            Component::Core => "core step",
            Component::NextEvent => "next-event calc",
        }
    }
}

/// Sub-phases of [`Component::Noc`], timed inside `Network::step`: the
/// network's own breakdown of its self-time. They run back to back
/// within the NOC region, so they tile it (less the call and the two
/// clock reads around it) and are reported as its children — never
/// summed with the components.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NocPhase {
    /// Credit returns and flit arrivals due since the previous step.
    Drain,
    /// Switch allocation over the swept routers: grants, pops, credit
    /// and link bookkeeping, ejection.
    Alloc,
    /// Dropping drained routers from the worklist.
    Retire,
}

impl NocPhase {
    /// Every sub-phase, in step order.
    pub const ALL: [NocPhase; 3] = [NocPhase::Drain, NocPhase::Alloc, NocPhase::Retire];

    /// Registry key prefix, under [`Component::Noc`]'s.
    pub fn key(self) -> &'static str {
        match self {
            NocPhase::Drain => "prof.noc.drain",
            NocPhase::Alloc => "prof.noc.alloc",
            NocPhase::Retire => "prof.noc.retire",
        }
    }

    /// Human-readable table label.
    pub fn label(self) -> &'static str {
        match self {
            NocPhase::Drain => "event drain",
            NocPhase::Alloc => "switch allocation",
            NocPhase::Retire => "worklist retire",
        }
    }
}

/// Key under which total `Machine::advance` wall time is exported.
pub const ADVANCE_KEY: &str = "prof.advance";

/// Accumulated host self-time per component, plus the enclosing
/// `advance` wall time and the simulated work it covered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Prof {
    ns: [u64; Component::ALL.len()],
    calls: [u64; Component::ALL.len()],
    noc_ns: [u64; NocPhase::ALL.len()],
    noc_calls: [u64; NocPhase::ALL.len()],
    /// Total wall time spent inside `Machine::advance` while armed.
    pub advance_ns: u64,
    /// Number of `advance` calls measured.
    pub advance_calls: u64,
    /// Simulated cycles advanced while armed.
    pub cycles: u64,
    /// Engine ticks executed while armed.
    pub ticks: u64,
}

impl Prof {
    /// A fresh, empty profile.
    pub fn new() -> Prof {
        Prof::default()
    }

    /// Charges an elapsed region to a component.
    #[inline]
    pub fn record(&mut self, c: Component, elapsed: Duration) {
        self.ns[c as usize] += elapsed.as_nanos() as u64;
        self.calls[c as usize] += 1;
    }

    /// Charges an elapsed NOC sub-phase.
    #[inline]
    pub fn record_noc(&mut self, phase: NocPhase, elapsed: Duration) {
        self.noc_ns[phase as usize] += elapsed.as_nanos() as u64;
        self.noc_calls[phase as usize] += 1;
    }

    /// Adds another profile's accumulators to this one (the network
    /// keeps its sub-phases in its own profile; the machine folds them
    /// in at each window export).
    pub fn merge(&mut self, other: &Prof) {
        let add = |a: &mut [u64], b: &[u64]| a.iter_mut().zip(b).for_each(|(a, b)| *a += b);
        add(&mut self.ns, &other.ns);
        add(&mut self.calls, &other.calls);
        add(&mut self.noc_ns, &other.noc_ns);
        add(&mut self.noc_calls, &other.noc_calls);
        self.advance_ns += other.advance_ns;
        self.advance_calls += other.advance_calls;
        self.cycles += other.cycles;
        self.ticks += other.ticks;
    }

    /// Charges one whole `advance(cycles)` call.
    #[inline]
    pub fn record_advance(&mut self, elapsed: Duration, cycles: u64) {
        self.advance_ns += elapsed.as_nanos() as u64;
        self.advance_calls += 1;
        self.cycles += cycles;
    }

    /// Counts one engine tick.
    #[inline]
    pub fn tick(&mut self) {
        self.ticks += 1;
    }

    /// Nanoseconds charged to one component so far.
    pub fn component_ns(&self, c: Component) -> u64 {
        self.ns[c as usize]
    }

    /// Clears all accumulators (used at measurement-window boundaries).
    pub fn reset(&mut self) {
        *self = Prof::default();
    }

    /// Exports the profile as flat `prof.*` counters. Counters merge by
    /// addition, so multi-window runs accumulate naturally.
    pub fn export(&self, reg: &mut Registry) {
        for c in Component::ALL {
            reg.counter_add(&format!("{}.ns", c.key()), self.ns[c as usize]);
            reg.counter_add(&format!("{}.calls", c.key()), self.calls[c as usize]);
        }
        for p in NocPhase::ALL {
            reg.counter_add(&format!("{}.ns", p.key()), self.noc_ns[p as usize]);
            reg.counter_add(&format!("{}.calls", p.key()), self.noc_calls[p as usize]);
        }
        reg.counter_add(&format!("{ADVANCE_KEY}.ns"), self.advance_ns);
        reg.counter_add(&format!("{ADVANCE_KEY}.calls"), self.advance_calls);
        reg.counter_add("prof.cycles", self.cycles);
        reg.counter_add("prof.ticks", self.ticks);
    }
}

/// A scoped region timer that only reads the clock when armed. The
/// disarmed path is a single branch on a `None`, mirroring the
/// zero-cost contract of the transaction tracer.
#[derive(Debug)]
#[must_use = "a started region must be stopped to be charged"]
pub struct RegionTimer(Option<Instant>);

impl RegionTimer {
    /// Starts a timer; reads the clock only when `armed`.
    #[inline]
    pub fn start(armed: bool) -> RegionTimer {
        RegionTimer(if armed { Some(Instant::now()) } else { None })
    }

    /// Stops the timer and charges the elapsed time to `c`. A timer
    /// started disarmed charges nothing even if a profiler appeared in
    /// between (it never read a start point).
    #[inline]
    pub fn stop(self, prof: &mut Option<Box<Prof>>, c: Component) {
        if let (Some(t0), Some(p)) = (self.0, prof.as_deref_mut()) {
            p.record(c, t0.elapsed());
        }
    }
}

/// A chained phase stamp for sequential regions: each [`lap`] charges
/// the time since the previous boundary and becomes the next one, so N
/// back-to-back phases cost N+1 clock reads (versus 2N for paired
/// [`RegionTimer`]s) and tile the enclosing span with no unattributed
/// gaps between phases. Disarmed, construction and every lap are a
/// single branch on a `None`.
///
/// [`lap`]: PhaseMark::lap
#[derive(Debug)]
pub struct PhaseMark(Option<Instant>);

impl PhaseMark {
    /// Opens the chain; reads the clock only when `armed`.
    #[inline]
    pub fn start(armed: bool) -> PhaseMark {
        PhaseMark(if armed { Some(Instant::now()) } else { None })
    }

    /// Charges the time since the previous boundary to `c` and makes
    /// now the next boundary. A chain opened disarmed charges nothing
    /// even if a profiler appeared in between.
    #[inline]
    pub fn lap(&mut self, prof: &mut Option<Box<Prof>>, c: Component) {
        self.lap_with(prof, |p, d| p.record(c, d));
    }

    /// [`lap`](PhaseMark::lap) for a NOC sub-phase.
    #[inline]
    pub fn lap_noc(&mut self, prof: &mut Option<Box<Prof>>, phase: NocPhase) {
        self.lap_with(prof, |p, d| p.record_noc(phase, d));
    }

    #[inline]
    fn lap_with(&mut self, prof: &mut Option<Box<Prof>>, charge: impl FnOnce(&mut Prof, Duration)) {
        if let (Some(prev), Some(p)) = (self.0, prof.as_deref_mut()) {
            let now = Instant::now();
            charge(p, now - prev);
            self.0 = Some(now);
        }
    }
}

/// One row of the component self-time table.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfRow {
    /// Table label (`"noc route/eject"`, …).
    pub label: &'static str,
    /// Registry key prefix the row was read from.
    pub key: &'static str,
    /// Accumulated host self-time in nanoseconds.
    pub ns: u64,
    /// Number of region invocations.
    pub calls: u64,
    /// Sub-phases timed inside this row's region (the NOC's
    /// [`NocPhase`]s); empty for every other component and for profiles
    /// recorded before the NOC was split.
    pub children: Vec<ProfRow>,
}

/// Component self-time breakdown extracted from a profiled run's
/// metrics — the host-side analogue of [`crate::analyze::TxnBreakdown`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProfBreakdown {
    /// One row per [`Component`], in presentation order.
    pub rows: Vec<ProfRow>,
    /// Total wall nanoseconds inside `Machine::advance`.
    pub advance_ns: u64,
    /// Number of `advance` calls measured.
    pub advance_calls: u64,
    /// Simulated cycles covered by the profile.
    pub cycles: u64,
    /// Engine ticks covered by the profile.
    pub ticks: u64,
}

impl ProfBreakdown {
    /// Extracts the breakdown from a registry, or `None` when the run
    /// was not profiled (no `prof.advance.calls` counter present).
    pub fn from_registry(reg: &Registry) -> Option<ProfBreakdown> {
        Self::from_counters(|k| reg.counter(k))
    }

    /// Extracts the breakdown from a report's flat `metrics` object
    /// (for `sop prof --analyze <file>`), or `None` when the report
    /// carries no profile.
    pub fn from_metrics_json(metrics: &Json) -> Option<ProfBreakdown> {
        Self::from_counters(|k| metrics.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64)
    }

    fn from_counters(num: impl Fn(&str) -> u64) -> Option<ProfBreakdown> {
        if num(&format!("{ADVANCE_KEY}.calls")) == 0 {
            return None;
        }
        let row = |label, key: &'static str| ProfRow {
            label,
            key,
            ns: num(&format!("{key}.ns")),
            calls: num(&format!("{key}.calls")),
            children: Vec::new(),
        };
        let rows = Component::ALL
            .iter()
            .map(|&c| {
                let mut r = row(c.label(), c.key());
                if c == Component::Noc {
                    r.children = NocPhase::ALL
                        .iter()
                        .map(|&p| row(p.label(), p.key()))
                        .filter(|p| p.calls > 0)
                        .collect();
                }
                r
            })
            .collect();
        Some(ProfBreakdown {
            rows,
            advance_ns: num(&format!("{ADVANCE_KEY}.ns")),
            advance_calls: num(&format!("{ADVANCE_KEY}.calls")),
            cycles: num("prof.cycles"),
            ticks: num("prof.ticks"),
        })
    }

    /// Sum of every component's self-time in nanoseconds.
    pub fn component_ns(&self) -> u64 {
        self.rows.iter().map(|r| r.ns).sum()
    }

    /// Whether the disjoint-region invariant holds: component
    /// self-times can never exceed the enclosing `advance` wall time,
    /// nor a row's sub-phases the row's own self-time. `false` means the
    /// instrumentation is broken.
    pub fn consistent(&self) -> bool {
        self.component_ns() <= self.advance_ns
            && self
                .rows
                .iter()
                .all(|r| r.children.iter().map(|c| c.ns).sum::<u64>() <= r.ns)
    }

    /// Fraction of `advance` wall time attributed to a component
    /// (the remainder is loop scaffolding and timer overhead).
    pub fn coverage(&self) -> f64 {
        if self.advance_ns == 0 {
            0.0
        } else {
            self.component_ns() as f64 / self.advance_ns as f64
        }
    }

    /// Host nanoseconds per simulated cycle over the whole profile.
    pub fn host_ns_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.advance_ns as f64 / self.cycles as f64
        }
    }

    /// Renders the self-time table: per-component share of `advance`
    /// wall time plus the host-time-per-simulated-cycle breakdown.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<20} {:>12} {:>12} {:>7} {:>10}\n",
            "component", "calls", "self ms", "share", "ns/cycle"
        ));
        let cyc = self.cycles.max(1) as f64;
        let mut line = |label: &str, r: &ProfRow| {
            let share = if self.advance_ns == 0 {
                0.0
            } else {
                100.0 * r.ns as f64 / self.advance_ns as f64
            };
            out.push_str(&format!(
                "{:<20} {:>12} {:>12.3} {:>6.1}% {:>10.2}\n",
                label,
                r.calls,
                r.ns as f64 / 1e6,
                share,
                r.ns as f64 / cyc
            ));
        };
        for r in &self.rows {
            line(r.label, r);
            for c in &r.children {
                line(&format!("  {}", c.label), c);
            }
        }
        out.push_str(&format!(
            "{:<20} {:>12} {:>12.3} {:>6.1}% {:>10.2}\n",
            "advance (total)",
            self.advance_calls,
            self.advance_ns as f64 / 1e6,
            100.0,
            self.host_ns_per_cycle()
        ));
        let verdict = if self.consistent() {
            "consistent"
        } else {
            "INCONSISTENT"
        };
        out.push_str(&format!(
            "attributed {:.1}% of {:.3} ms advance wall over {} cycles / {} ticks ({verdict})\n",
            100.0 * self.coverage(),
            self.advance_ns as f64 / 1e6,
            self.cycles,
            self.ticks
        ));
        out
    }

    /// JSON form — the `prof` section of reports:
    /// `{components: [row...], advance: {...}, cycles, ticks,
    /// host_ns_per_cycle, coverage, consistent}`.
    pub fn to_json(&self) -> Json {
        let adv = self.advance_ns.max(1) as f64;
        Json::object()
            .with(
                "components",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|r| {
                            let mut row = row_json(r, adv);
                            if !r.children.is_empty() {
                                row.insert(
                                    "children",
                                    Json::Arr(
                                        r.children.iter().map(|c| row_json(c, adv)).collect(),
                                    ),
                                );
                            }
                            row
                        })
                        .collect(),
                ),
            )
            .with(
                "advance",
                Json::object()
                    .with("ns", self.advance_ns)
                    .with("calls", self.advance_calls),
            )
            .with("cycles", self.cycles)
            .with("ticks", self.ticks)
            .with("host_ns_per_cycle", self.host_ns_per_cycle())
            .with("coverage", self.coverage())
            .with("consistent", self.consistent())
    }
}

fn row_json(r: &ProfRow, advance_ns: f64) -> Json {
    Json::object()
        .with("component", r.label)
        .with("key", r.key)
        .with("ns", r.ns)
        .with("calls", r.calls)
        .with("share", r.ns as f64 / advance_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profiled() -> Prof {
        let mut p = Prof::new();
        p.record(Component::Noc, Duration::from_nanos(400));
        p.record(Component::Directory, Duration::from_nanos(300));
        p.record(Component::Core, Duration::from_nanos(200));
        p.record_advance(Duration::from_nanos(1000), 50);
        p.tick();
        p
    }

    #[test]
    fn export_and_breakdown_round_trip() {
        let mut reg = Registry::new();
        profiled().export(&mut reg);
        let b = ProfBreakdown::from_registry(&reg).expect("profiled");
        assert_eq!(b.component_ns(), 900);
        assert_eq!(b.advance_ns, 1000);
        assert_eq!(b.cycles, 50);
        assert_eq!(b.ticks, 1);
        assert!(b.consistent());
        assert!((b.coverage() - 0.9).abs() < 1e-9);
        assert!((b.host_ns_per_cycle() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn phase_marks_chain_and_disarmed_marks_charge_nothing() {
        let mut prof = Some(Box::new(Prof::new()));
        let mut mark = PhaseMark::start(true);
        mark.lap(&mut prof, Component::Noc);
        mark.lap(&mut prof, Component::Core);
        let p = prof.as_deref().expect("armed");
        assert_eq!(p.calls[Component::Noc as usize], 1);
        assert_eq!(p.calls[Component::Core as usize], 1);

        // A chain opened disarmed never charges, even once armed.
        let mut late = Some(Box::new(Prof::new()));
        let mut cold = PhaseMark::start(false);
        cold.lap(&mut late, Component::Noc);
        assert_eq!(late.as_deref().expect("armed").calls, [0; 6]);
    }

    #[test]
    fn unprofiled_registry_yields_none() {
        assert!(ProfBreakdown::from_registry(&Registry::new()).is_none());
        assert!(ProfBreakdown::from_metrics_json(&Json::object()).is_none());
    }

    #[test]
    fn metrics_json_matches_registry_extraction() {
        let mut reg = Registry::new();
        profiled().export(&mut reg);
        let from_reg = ProfBreakdown::from_registry(&reg).expect("profiled");
        let from_json = ProfBreakdown::from_metrics_json(&reg.to_json()).expect("profiled");
        assert_eq!(from_reg, from_json);
    }

    #[test]
    fn overspent_components_are_flagged() {
        let mut p = profiled();
        p.record(Component::Mem, Duration::from_nanos(500));
        let mut reg = Registry::new();
        p.export(&mut reg);
        let b = ProfBreakdown::from_registry(&reg).expect("profiled");
        assert!(!b.consistent());
        assert!(b.render().contains("INCONSISTENT"));
    }

    #[test]
    fn render_lists_every_component() {
        let mut reg = Registry::new();
        profiled().export(&mut reg);
        let b = ProfBreakdown::from_registry(&reg).expect("profiled");
        let table = b.render();
        for c in Component::ALL {
            assert!(table.contains(c.label()), "{table}");
        }
        assert!(table.contains("advance (total)"), "{table}");
        assert!(table.contains("(consistent)"), "{table}");
    }

    #[test]
    fn noc_phases_are_children_of_the_noc_row() {
        let mut p = profiled();
        p.record_noc(NocPhase::Drain, Duration::from_nanos(100));
        p.record_noc(NocPhase::Alloc, Duration::from_nanos(250));
        p.record_noc(NocPhase::Retire, Duration::from_nanos(30));
        let mut reg = Registry::new();
        p.export(&mut reg);
        let b = ProfBreakdown::from_registry(&reg).expect("profiled");
        assert_eq!(b.component_ns(), 900, "children are not summed twice");
        let noc = &b.rows[0];
        assert_eq!(noc.children.len(), 3);
        assert_eq!(noc.children.iter().map(|c| c.ns).sum::<u64>(), 380);
        assert!(b.consistent());
        let table = b.render();
        assert!(table.contains("  switch allocation"), "{table}");
        let j = b.to_json();
        let rows = j.get("components").and_then(Json::as_arr).expect("rows");
        let kids = rows[0]
            .get("children")
            .and_then(Json::as_arr)
            .expect("children");
        assert_eq!(kids.len(), 3);
        assert!(rows[1].get("children").is_none());
        // Sub-phases outgrowing their parent are a profiler bug.
        p.record_noc(NocPhase::Alloc, Duration::from_nanos(100));
        let mut reg = Registry::new();
        p.export(&mut reg);
        let b = ProfBreakdown::from_registry(&reg).expect("profiled");
        assert!(!b.consistent());
    }

    #[test]
    fn merged_profiles_add_up() {
        let mut a = profiled();
        let mut noc = Prof::new();
        noc.record_noc(NocPhase::Drain, Duration::from_nanos(7));
        a.merge(&noc);
        a.merge(&profiled());
        assert_eq!(a.component_ns(Component::Noc), 800);
        assert_eq!(a.noc_ns[NocPhase::Drain as usize], 7);
        assert_eq!(a.advance_calls, 2);
    }

    #[test]
    fn disarmed_region_timer_charges_nothing() {
        let t = RegionTimer::start(false);
        let mut prof = Some(Box::new(Prof::new()));
        t.stop(&mut prof, Component::Noc);
        assert_eq!(prof.expect("armed").calls[Component::Noc as usize], 0);
    }

    #[test]
    fn section_json_is_wellformed() {
        let mut reg = Registry::new();
        profiled().export(&mut reg);
        let b = ProfBreakdown::from_registry(&reg).expect("profiled");
        let j = b.to_json();
        assert_eq!(j.get("consistent"), Some(&Json::Bool(true)));
        crate::json::parse(&j.to_compact_string()).expect("valid JSON");
    }
}
