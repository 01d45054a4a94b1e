//! The span recorder. Spans go around the benchmark's own calls into the
//! program's public functions; they are kept in memory and written out
//! when the run ends. While a pass runs untraced the recorder is disabled
//! and a span costs one branch.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::{number, quote};

/// Which part of a run a span belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Timed pass number `n` of the measured window.
    Pass(u32),
    /// The layer-by-layer replay after the window.
    Replay,
}

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Clone, Debug)]
pub struct Span {
    /// Index of this span; parents refer to it.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `vm.exec`.
    pub name: &'static str,
    /// Free-form detail, e.g. `doduc/tiny`.
    pub label: String,
    /// Start, in ns.
    pub start: u64,
    /// End, in ns.
    pub end: u64,
    /// The pass or replay it was recorded in.
    pub phase: Phase,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end - self.start) as f64 / 1e9
    }
}

/// The in-memory span recorder for one run (single-threaded).
pub struct Tracer {
    run_id: String,
    origin: Instant,
    enabled: Cell<bool>,
    phase: Cell<Phase>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: Option<usize>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            let end = self.tracer.now();
            self.tracer.spans.borrow_mut()[id].end = end;
            self.tracer.open.borrow_mut().pop();
        }
    }
}

impl Tracer {
    /// A disabled recorder for run `run_id`.
    pub fn new(run_id: String) -> Self {
        Tracer {
            run_id,
            origin: Instant::now(),
            enabled: Cell::new(false),
            phase: Cell::new(Phase::Replay),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Turns recording on or off and tags later spans with `phase`.
    pub fn set(&self, enabled: bool, phase: Phase) {
        self.enabled.set(enabled);
        self.phase.set(phase);
    }

    /// Opens a span; it closes when the guard drops.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        self.span_with(name, String::new)
    }

    /// [`Tracer::span`] with a detail label, built only when recording.
    pub fn span_with(&self, name: &'static str, label: impl FnOnce() -> String) -> Guard<'_> {
        if !self.enabled.get() {
            return Guard {
                tracer: self,
                id: None,
            };
        }
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        let parent = self.open.borrow().last().copied();
        let start = self.now();
        spans.push(Span {
            id,
            parent,
            name,
            label: label(),
            start,
            end: start,
            phase: self.phase.get(),
        });
        self.open.borrow_mut().push(id);
        Guard {
            tracer: self,
            id: Some(id),
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// The run identifier every span carries.
    pub fn run_id(&self) -> &str {
        &self.run_id
    }
}

/// Self time of every span: its duration minus the part its children
/// cover, in seconds, indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::secs).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.secs();
        }
    }
    own
}

/// Summed self time per span name, split into the per-pass mean over the
/// traced passes and the replay: `mean_pass + replay` per name.
pub fn layer_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let own = self_times(spans);
    let mut passes: Vec<u32> = spans
        .iter()
        .filter_map(|s| match s.phase {
            Phase::Pass(n) => Some(n),
            Phase::Replay => None,
        })
        .collect();
    passes.sort_unstable();
    passes.dedup();
    let n = passes.len().max(1) as f64;
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (s, t) in spans.iter().zip(own) {
        let w = match s.phase {
            Phase::Pass(_) => t / n,
            Phase::Replay => t,
        };
        *out.entry(s.name).or_default() += w;
    }
    out
}

/// The span file: the run id plus every span with its self time.
pub fn to_json(tracer: &Tracer) -> String {
    let spans = tracer.spans();
    let own = self_times(&spans);
    let mut out = format!(
        "{{\n  \"run_id\": {},\n  \"spans\": [\n",
        quote(tracer.run_id())
    );
    for (i, (s, t)) in spans.iter().zip(own).enumerate() {
        let phase = match s.phase {
            Phase::Pass(n) => format!("pass-{n}"),
            Phase::Replay => "replay".to_string(),
        };
        out.push_str(&format!(
            "    {{\"id\": {}, \"parent\": {}, \"run_id\": {}, \"name\": {}, \"label\": {}, \
             \"phase\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_s\": {}}}{}\n",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            quote(tracer.run_id()),
            quote(s.name),
            quote(&s.label),
            quote(&phase),
            s.start,
            s.end,
            number(t),
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing_and_nesting_gives_self_time() {
        let t = Tracer::new("r".into());
        drop(t.span("a"));
        assert!(t.spans().is_empty());
        t.set(true, Phase::Pass(0));
        {
            let _outer = t.span("outer");
            let _inner = t.span("inner");
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].start >= spans[0].start && spans[1].end <= spans[0].end);
        let own = self_times(&spans);
        assert!(own[0] >= 0.0 && own[0] <= spans[0].secs());
    }
}
