//! The benchmark's own spans.
//!
//! All measurement is from outside the program: a span brackets a call
//! into a layer's public function (`setup`, `run`, `drain`, `shutdown`, one
//! probe), records name, start, end and the span that was open when it
//! began, and stays in memory until the run ends. Spans inside the program
//! are a later change.

use serde::Value;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Position in the tracer's span list.
    pub id: usize,
    /// What the span brackets.
    pub name: String,
    /// The span that was open when this one began.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin (equal to `start_ns`
    /// while the span is open).
    pub end_ns: u64,
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct SpanToken {
    id: Option<usize>,
    started: Instant,
}

/// An in-memory span recorder. When recording is off, [`Tracer::begin`]
/// and [`Tracer::end`] still time the bracketed call (callers use the
/// returned duration either way) but store nothing, so the traced and the
/// untraced repetition run the same code around the program.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    recording: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing until [`Tracer::set_recording`].
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            recording: false,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switches span recording on or off.
    pub fn set_recording(&mut self, recording: bool) {
        self.recording = recording;
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn begin(&mut self, name: &str) -> SpanToken {
        let started = Instant::now();
        if !self.recording {
            return SpanToken { id: None, started };
        }
        let id = self.spans.len();
        let start_ns = started.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            id,
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        SpanToken {
            id: Some(id),
            started,
        }
    }

    /// Closes the span and returns its duration in seconds.
    pub fn end(&mut self, token: SpanToken) -> f64 {
        let elapsed = token.started.elapsed();
        if let Some(id) = token.id {
            self.spans[id].end_ns = self.spans[id].start_ns + elapsed.as_nanos() as u64;
            // Spans close innermost-first; tolerate an out-of-order close
            // by closing everything opened after this one with it.
            if let Some(position) = self.open.iter().rposition(|&open| open == id) {
                self.open.truncate(position);
            }
        }
        elapsed.as_secs_f64()
    }

    /// Brackets `body` in a span and returns its result with the span's
    /// duration in seconds.
    pub fn span<T>(&mut self, name: &str, body: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let token = self.begin(name);
        let result = body(self);
        let seconds = self.end(token);
        (result, seconds)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON document: one object per span with its self
    /// time beside its duration.
    pub fn to_value(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|span| {
                    Value::Object(vec![
                        ("id".into(), Value::U64(span.id as u64)),
                        ("name".into(), Value::Str(span.name.clone())),
                        (
                            "parent".into(),
                            span.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                        ),
                        ("start_ns".into(), Value::U64(span.start_ns)),
                        ("end_ns".into(), Value::U64(span.end_ns)),
                        (
                            "self_ns".into(),
                            Value::U64(self_time_ns(&self.spans, span.id)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// A span's self time: its duration minus the part of that interval its
/// child spans cover (overlapping children are not counted twice, and the
/// part of a child outside its parent is ignored).
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let parent = &spans[id];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|span| span.parent == Some(id))
        .map(|span| {
            (
                span.start_ns.clamp(parent.start_ns, parent.end_ns),
                span.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .collect();
    children.sort_unstable();
    let mut covered = 0u64;
    let mut frontier = parent.start_ns;
    for (start, end) in children {
        let start = start.max(frontier);
        if end > start {
            covered += end - start;
            frontier = end;
        }
    }
    (parent.end_ns - parent.start_ns).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            name: format!("s{id}"),
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_cover_of_child_spans() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            // Overlaps span 1: the union [10, 50) is covered once.
            span(2, Some(0), 20, 50),
            // Sticks out of the parent: only [90, 100) counts.
            span(3, Some(0), 90, 120),
            // A grandchild does not count against the root.
            span(4, Some(1), 12, 28),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 40 - 10);
        assert_eq!(self_time_ns(&spans, 1), 20 - 16);
        assert_eq!(self_time_ns(&spans, 4), 16);
    }

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        let mut tracer = Tracer::new();
        tracer.set_recording(true);
        let ((), outer_seconds) = tracer.span("rep", |tracer| {
            tracer.span("setup", |_| ());
            tracer.span("run", |tracer| {
                tracer.span("probe", |_| ());
            });
        });
        let names: Vec<(&str, Option<usize>)> = tracer
            .spans()
            .iter()
            .map(|s| (s.name.as_str(), s.parent))
            .collect();
        assert_eq!(
            names,
            vec![
                ("rep", None),
                ("setup", Some(0)),
                ("run", Some(0)),
                ("probe", Some(2))
            ]
        );
        let root = &tracer.spans()[0];
        assert!((root.end_ns - root.start_ns) as f64 / 1e9 <= outer_seconds + 1e-6);
        assert!(tracer.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn a_tracer_that_is_not_recording_stores_nothing_but_still_times() {
        let mut tracer = Tracer::new();
        let (value, seconds) = tracer.span("run", |_| 7);
        assert_eq!(value, 7);
        assert!(seconds >= 0.0);
        assert!(tracer.spans().is_empty());
    }
}
