//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, its parent span and the item (graph
//! or batch) it belongs to. Spans stay in memory until the run ends; a
//! layer's self time is its span's duration minus the durations of its
//! direct children.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `machine.iteration` or `gen.pointer_jump`.
    pub name: &'static str,
    /// Seconds since the tracer's origin.
    pub start: f64,
    /// Seconds since the tracer's origin.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The item the span belongs to.
    pub item: usize,
}

impl Span {
    /// Duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Total self time and call count of one span name.
#[derive(Clone, Copy, Debug, Default)]
pub struct SelfTime {
    /// Sum of self times in seconds.
    pub total: f64,
    /// Number of spans.
    pub calls: usize,
}

/// Records nested spans.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    item: usize,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            item: 0,
        }
    }

    /// Sets the item id of the spans opened from now on.
    pub fn set_item(&mut self, item: usize) {
        self.item = item;
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            item: self.item,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span and returns its duration.
    pub fn exit(&mut self) -> f64 {
        let id = self.open.pop().expect("exit without a matching enter");
        let span = &mut self.spans[id];
        span.end = self.origin.elapsed().as_secs_f64();
        span.duration()
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Every closed span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time and calls per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_time = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_time[p] += span.duration();
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_time) {
            let entry = out.entry(span.name).or_default();
            entry.total += span.duration() - children;
            entry.calls += 1;
        }
        out
    }

    /// Total duration of the spans called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// Share of the time of the spans called `top` covered by their direct
    /// children.
    pub fn coverage(&self, top: &str) -> f64 {
        let mut covered = 0.0;
        for span in &self.spans {
            if let Some(p) = span.parent {
                if self.spans[p].name == top {
                    covered += span.duration();
                }
            }
        }
        covered / self.total(top)
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_s\": {:.9}, \"end_s\": {:.9}, \"parent\": {parent}, \"item\": {}}}{sep}",
                s.name, s.start, s.end, s.item
            );
        }
        out.push(']');
        out
    }
}
