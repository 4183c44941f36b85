//! A deterministic span/event recorder stamped in simulated cycles, with
//! Chrome trace-event JSON export (Perfetto / `chrome://tracing`).
//!
//! Tracks are addressed by `(pid, tid)` exactly as in the Chrome format:
//! instrumented layers pick a process id per simulated entity (a pipeline
//! instance, the serving scheduler) and a thread id per track within it
//! (one per pipeline stage, per request, per counter series), then name
//! them with [`TraceRecorder::process_name`] / [`TraceRecorder::thread_name`]
//! metadata events.
//!
//! Determinism:
//!
//! * a [`TraceRecorder::disabled`] recorder is a `bool` branch at the top of
//!   every record method — no allocation, no formatting, so traced code
//!   paths cost nothing and stay bit-identical with tracing off;
//! * parallel sections [`TraceRecorder::fork`] one child recorder per work
//!   item and [`TraceRecorder::absorb`] them back **in caller order** after
//!   the parallel map returns (the execution engine returns results in input
//!   order), so the same run produces a byte-identical trace at any
//!   `SOFA_THREADS`;
//! * timestamps are simulated cycles from the event-driven simulators, never
//!   wall clock, so repeated runs are byte-identical too.

use crate::metrics::{fmt_f64, json_string};

/// A typed argument value attached to a trace event. `Str` is restricted to
/// `&'static str` so building an argument list never allocates — the
/// disabled-recorder fast path stays allocation-free at every call site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArgValue {
    /// An unsigned integer argument.
    U64(u64),
    /// A float argument (rendered with shortest round-trip formatting).
    F64(f64),
    /// A static string argument.
    Str(&'static str),
}

impl ArgValue {
    fn to_json(self) -> String {
        match self {
            ArgValue::U64(v) => v.to_string(),
            ArgValue::F64(v) => fmt_f64(v),
            ArgValue::Str(s) => json_string(s),
        }
    }
}

/// One recorded trace event (internal representation; serialised by
/// [`TraceRecorder::to_chrome_json`]).
#[derive(Debug, Clone, PartialEq)]
enum TraceEvent {
    /// A Chrome `"X"` complete event: a span of `dur` cycles from `ts`.
    Complete {
        pid: u64,
        tid: u64,
        ts: u64,
        dur: u64,
        name: String,
        args: Vec<(String, ArgValue)>,
    },
    /// A Chrome `"i"` thread-scoped instant event.
    Instant {
        pid: u64,
        tid: u64,
        ts: u64,
        name: String,
        args: Vec<(String, ArgValue)>,
    },
    /// A Chrome `"C"` counter sample: one or more named series values.
    Counter {
        pid: u64,
        tid: u64,
        ts: u64,
        name: String,
        series: Vec<(String, f64)>,
    },
    /// A Chrome `"M"` `process_name` metadata event.
    ProcessName { pid: u64, name: String },
    /// A Chrome `"M"` `thread_name` metadata event.
    ThreadName { pid: u64, tid: u64, name: String },
}

impl TraceEvent {
    fn to_json(&self) -> String {
        let args_json = |args: &[(String, ArgValue)]| {
            args.iter()
                .map(|(k, v)| format!("{}:{}", json_string(k), v.to_json()))
                .collect::<Vec<_>>()
                .join(",")
        };
        match self {
            TraceEvent::Complete {
                pid,
                tid,
                ts,
                dur,
                name,
                args,
            } => format!(
                "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\
                 \"name\":{},\"args\":{{{}}}}}",
                json_string(name),
                args_json(args),
            ),
            TraceEvent::Instant {
                pid,
                tid,
                ts,
                name,
                args,
            } => format!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\
                 \"name\":{},\"args\":{{{}}}}}",
                json_string(name),
                args_json(args),
            ),
            TraceEvent::Counter {
                pid,
                tid,
                ts,
                name,
                series,
            } => format!(
                "{{\"ph\":\"C\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"name\":{},\
                 \"args\":{{{}}}}}",
                json_string(name),
                series
                    .iter()
                    .map(|(k, v)| format!("{}:{}", json_string(k), fmt_f64(*v)))
                    .collect::<Vec<_>>()
                    .join(","),
            ),
            TraceEvent::ProcessName { pid, name } => format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
                 \"args\":{{\"name\":{}}}}}",
                json_string(name),
            ),
            TraceEvent::ThreadName { pid, tid, name } => format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":{}}}}}",
                json_string(name),
            ),
        }
    }
}

/// The cycle-domain trace recorder. See the module docs for the determinism
/// contract.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceRecorder {
    enabled: bool,
    events: Vec<TraceEvent>,
}

impl TraceRecorder {
    /// A recorder that drops everything: every record call is one branch,
    /// no allocation. This is the default sink of all instrumented layers.
    pub fn disabled() -> Self {
        TraceRecorder {
            enabled: false,
            events: Vec::new(),
        }
    }

    /// A recorder that keeps events for export.
    pub fn enabled() -> Self {
        TraceRecorder {
            enabled: true,
            events: Vec::new(),
        }
    }

    /// Whether this recorder keeps events.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A child recorder with the same enabled flag and an empty buffer
    /// (`Vec::new` does not allocate). Parallel sections fork one child per
    /// work item and [`TraceRecorder::absorb`] them in caller order.
    pub fn fork(&self) -> Self {
        TraceRecorder {
            enabled: self.enabled,
            events: Vec::new(),
        }
    }

    /// Appends `child`'s events to this buffer. Call in the caller-order
    /// sequence of the forked work items to keep traces thread-count
    /// independent.
    pub fn absorb(&mut self, child: TraceRecorder) {
        if !self.enabled {
            return;
        }
        self.events.extend(child.events);
    }

    /// Names process `pid` in the trace viewer.
    pub fn process_name(&mut self, pid: u64, name: &str) {
        if !self.enabled {
            return;
        }
        self.events.push(TraceEvent::ProcessName {
            pid,
            name: name.to_string(),
        });
    }

    /// Names track `(pid, tid)` in the trace viewer.
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        if !self.enabled {
            return;
        }
        self.events.push(TraceEvent::ThreadName {
            pid,
            tid,
            name: name.to_string(),
        });
    }

    /// Records a complete span of `dur` cycles starting at `ts` on track
    /// `(pid, tid)`.
    pub fn complete(
        &mut self,
        pid: u64,
        tid: u64,
        name: &str,
        ts: u64,
        dur: u64,
        args: &[(&str, ArgValue)],
    ) {
        if !self.enabled {
            return;
        }
        self.events.push(TraceEvent::Complete {
            pid,
            tid,
            ts,
            dur,
            name: name.to_string(),
            args: args.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        });
    }

    /// Records an instant event at `ts` on track `(pid, tid)`.
    pub fn instant(&mut self, pid: u64, tid: u64, name: &str, ts: u64, args: &[(&str, ArgValue)]) {
        if !self.enabled {
            return;
        }
        self.events.push(TraceEvent::Instant {
            pid,
            tid,
            ts,
            name: name.to_string(),
            args: args.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        });
    }

    /// Records a counter sample at `ts`: each `(series, value)` pair becomes
    /// one stacked series of the counter track `name`.
    pub fn counter(&mut self, pid: u64, tid: u64, name: &str, ts: u64, series: &[(&str, f64)]) {
        if !self.enabled {
            return;
        }
        self.events.push(TraceEvent::Counter {
            pid,
            tid,
            ts,
            name: name.to_string(),
            series: series.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        });
    }

    /// Exports the buffer as Chrome trace-event JSON — one event per line so
    /// golden-trace diffs stay reviewable. Timestamps are simulated cycles
    /// (the viewer's time unit is nominal). Load the file in
    /// <https://ui.perfetto.dev> or `chrome://tracing`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"otherData\":{\"timebase\":\"simulated-cycles\"},");
        out.push_str("\"traceEvents\":[\n");
        for (i, ev) in self.events.iter().enumerate() {
            out.push_str(&ev.to_json());
            if i + 1 < self.events.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = TraceRecorder::disabled();
        r.process_name(0, "p");
        r.thread_name(0, 1, "t");
        r.complete(0, 1, "span", 10, 5, &[("k", ArgValue::U64(1))]);
        r.instant(0, 1, "hit", 12, &[]);
        r.counter(0, 2, "depth", 12, &[("depth", 3.0)]);
        assert!(r.is_empty());
        assert!(!r.is_enabled());
    }

    #[test]
    fn enabled_recorder_exports_chrome_events() {
        let mut r = TraceRecorder::enabled();
        r.process_name(0, "pipeline");
        r.thread_name(0, 1, "sort");
        r.complete(
            0,
            1,
            "tile0",
            10,
            5,
            &[("kept", ArgValue::U64(7)), ("cls", ArgValue::Str("decode"))],
        );
        r.instant(0, 1, "reroute", 15, &[("to", ArgValue::F64(0.5))]);
        r.counter(0, 2, "queue", 15, &[("depth", 3.0)]);
        let j = r.to_chrome_json();
        assert!(j.contains("\"traceEvents\":["));
        assert!(j.contains(
            "{\"ph\":\"X\",\"pid\":0,\"tid\":1,\"ts\":10,\"dur\":5,\
             \"name\":\"tile0\",\"args\":{\"kept\":7,\"cls\":\"decode\"}}"
        ));
        assert!(j.contains("\"ph\":\"i\",\"s\":\"t\""));
        assert!(j.contains("\"name\":\"queue\",\"args\":{\"depth\":3}"));
        assert!(j.contains("\"process_name\""));
        assert!(j.contains("\"thread_name\""));
        // One event per line between the brackets.
        assert_eq!(j.lines().count(), 2 + r.len());
    }

    #[test]
    fn fork_absorb_preserves_caller_order() {
        let mut main = TraceRecorder::enabled();
        let mut kids: Vec<TraceRecorder> = (0..3).map(|_| main.fork()).collect();
        // Simulate out-of-order parallel completion: record in reverse.
        for (i, k) in kids.iter_mut().enumerate().rev() {
            k.instant(0, i as u64, "ev", i as u64, &[]);
        }
        for k in kids {
            main.absorb(k);
        }
        let j = main.to_chrome_json();
        let pos: Vec<usize> = (0..3)
            .map(|i| j.find(&format!("\"tid\":{i},")).unwrap())
            .collect();
        assert!(pos[0] < pos[1] && pos[1] < pos[2]);
    }

    #[test]
    fn fork_inherits_enabled_flag() {
        assert!(TraceRecorder::enabled().fork().is_enabled());
        assert!(!TraceRecorder::disabled().fork().is_enabled());
    }

    #[test]
    fn export_is_deterministic() {
        let build = || {
            let mut r = TraceRecorder::enabled();
            r.complete(1, 2, "s", 0, 4, &[("x", ArgValue::F64(0.125))]);
            r.to_chrome_json()
        };
        assert_eq!(build(), build());
    }
}
