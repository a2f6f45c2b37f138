//! In-memory spans recorded around the benchmark's calls into each
//! crate. Each span carries a name, start, end, parent span and run id;
//! nothing is written until [`Spans::to_json`] is called at exit.

use sop_obs::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: Option<u64>,
}

/// A span recorder. Disarmed, `open`/`close` record nothing, so the
/// timed runs pay one branch per call boundary.
#[derive(Debug)]
pub struct Spans {
    armed: bool,
    run: String,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Handle of an open span (ignored when disarmed).
#[derive(Debug, Clone, Copy)]
#[must_use = "an open span must be closed"]
pub struct SpanId(Option<usize>);

impl Spans {
    /// A recorder for run `run`; `armed` false records nothing.
    pub fn new(armed: bool, run: &str) -> Spans {
        Spans {
            armed,
            run: run.to_owned(),
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &str) -> SpanId {
        if !self.armed {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: None,
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = Some(self.now_ns());
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let r = f();
        self.close(id);
        r
    }

    fn duration_ns(&self, i: usize) -> u64 {
        let s = &self.spans[i];
        s.end_ns.expect("every span is closed before it is read") - s.start_ns
    }

    /// Each span's self time: its duration minus the time its direct
    /// children cover. Children nest inside their parent, so the self
    /// times of a tree sum exactly to its root's duration.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = (0..self.spans.len()).map(|i| self.duration_ns(i)).collect();
        for i in 0..self.spans.len() {
            if let Some(p) = self.spans[i].parent {
                own[p] -= self.duration_ns(i);
            }
        }
        own
    }

    /// Total duration of every span named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.duration_ns(i))
            .sum::<u64>() as f64
            / 1e9
    }

    /// Self time summed per span name, in seconds, sorted by name.
    pub fn self_s_by_name(&self) -> BTreeMap<String, f64> {
        let mut by_name = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self.self_ns()) {
            *by_name.entry(span.name.clone()).or_insert(0.0) += ns as f64 / 1e9;
        }
        by_name
    }

    /// Every span as `{run, id, name, parent, start_ns, end_ns, self_ns}`.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .zip(self.self_ns())
                .enumerate()
                .map(|(i, (s, own))| {
                    Json::object()
                        .with("run", self.run.as_str())
                        .with("id", i as u64)
                        .with("name", s.name.as_str())
                        .with(
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                        )
                        .with("start_ns", s.start_ns)
                        .with("end_ns", s.end_ns.unwrap_or(s.start_ns))
                        .with("self_ns", own)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin() {
        let t = Instant::now();
        while t.elapsed().as_micros() < 200 {}
    }

    #[test]
    fn self_times_tile_the_root_and_never_exceed_it() {
        let mut s = Spans::new(true, "t");
        let root = s.open("root");
        spin();
        s.time("a", spin);
        let b = s.open("b");
        s.time("b.child", spin);
        spin();
        s.close(b);
        spin();
        s.close(root);
        let own = s.self_ns();
        let root_ns = s.duration_ns(0);
        assert_eq!(own.iter().sum::<u64>(), root_ns);
        // The root's own share is the unattributed remainder: reported,
        // and positive because the root spun outside its children.
        assert!(own[0] > 0);
        assert!(own[1..].iter().sum::<u64>() <= root_ns);
        let by_name = s.self_s_by_name();
        assert_eq!(by_name.len(), 4);
        assert!((s.total_s("root") - root_ns as f64 / 1e9).abs() < 1e-12);
    }

    #[test]
    fn disarmed_records_nothing() {
        let mut s = Spans::new(false, "t");
        let id = s.open("x");
        s.close(id);
        assert_eq!(s.to_json(), Json::Arr(Vec::new()));
        assert_eq!(s.total_s("x"), 0.0);
    }
}
