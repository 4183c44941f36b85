//! Host-time spans recorded from the benchmark's side of each public call.
//!
//! A span is a name, a start and an end in host nanoseconds since the
//! recorder was created, and the span that was open when it started (its
//! parent). Spans stay in memory and are written out as Chrome trace-event
//! JSON when the run ends. A disabled recorder only runs the closure, so the
//! untraced runs that produce the end-to-end metrics share the traced runs'
//! code path at the cost of one branch per call.

use std::time::Instant;

/// One recorded span. `end_ns` is 0 while the span is still open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The public call (or benchmark phase) the span covers.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Host nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Host nanoseconds since the recorder started.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The span recorder. Spans are stored in start order, so a parent always
/// precedes its children.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder that keeps spans.
    pub fn enabled() -> Self {
        Spans {
            enabled: true,
            origin: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A recorder that keeps nothing.
    pub fn disabled() -> Self {
        Spans {
            enabled: false,
            ..Spans::enabled()
        }
    }

    /// Runs `f` inside a span named `name`. `f` receives the recorder so it
    /// can open child spans.
    pub fn record<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts less than 584 years")
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of the spans named `name`, in start order.
    pub fn seconds_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Checks that every span is closed and lies within its parent, and that
    /// siblings do not overlap.
    ///
    /// # Errors
    ///
    /// Names the first span that breaks the rule.
    pub fn check_nesting(&self) -> Result<(), String> {
        let mut last_child_end: Vec<u64> = vec![0; self.spans.len()];
        let mut last_root_end = 0;
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns || (s.end_ns == 0 && s.start_ns > 0) {
                return Err(format!("span {i} ({}) is not closed", s.name));
            }
            let sibling_end = match s.parent {
                Some(p) => {
                    let parent = &self.spans[p];
                    if p >= i || s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                        return Err(format!(
                            "span {i} ({}) escapes its parent {p} ({})",
                            s.name, parent.name
                        ));
                    }
                    &mut last_child_end[p]
                }
                None => &mut last_root_end,
            };
            if s.start_ns < *sibling_end {
                return Err(format!(
                    "span {i} ({}) overlaps its previous sibling",
                    s.name
                ));
            }
            *sibling_end = s.end_ns;
        }
        Ok(())
    }

    /// The spans as Chrome trace-event JSON (Perfetto, `chrome://tracing`):
    /// one `"X"` event per span on a single track, timestamps in whole host
    /// microseconds, with each span's index and parent index as arguments.
    pub fn to_chrome_json(&self, process: &str) -> String {
        let mut out = String::from("{\"otherData\":{\"timebase\":\"host-microseconds\"},");
        out.push_str("\"traceEvents\":[\n");
        out.push_str(&format!(
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":{}}}}}",
            crate::json_string(process)
        ));
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                ",\n{{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{},\"dur\":{},\"name\":{},\
                 \"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.start_ns / 1000,
                (s.end_ns - s.start_ns) / 1000,
                crate::json_string(s.name),
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export_a_valid_trace() {
        let mut spans = Spans::enabled();
        spans.record("outer", |s| {
            s.record("inner", |_| std::hint::black_box(1 + 1));
            s.record("inner", |_| ());
        });
        spans.record("second", |_| ());
        assert_eq!(spans.spans().len(), 4);
        assert_eq!(spans.spans()[1].parent, Some(0));
        assert_eq!(spans.spans()[3].parent, None);
        assert_eq!(spans.seconds_of("inner").len(), 2);
        spans.check_nesting().expect("spans nest");
        sofa_obs::validate_chrome_trace(&spans.to_chrome_json("test")).expect("valid trace");
    }

    #[test]
    fn a_disabled_recorder_keeps_nothing() {
        let mut spans = Spans::disabled();
        assert_eq!(spans.record("x", |_| 7), 7);
        assert!(spans.spans().is_empty());
    }

    #[test]
    fn a_child_outside_its_parent_is_reported() {
        let mut spans = Spans::enabled();
        spans.record("outer", |s| s.record("inner", |_| ()));
        spans.spans[1].end_ns = spans.spans[0].end_ns + 1;
        assert!(spans.check_nesting().is_err());
    }
}
