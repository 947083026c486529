//! Deterministic causal tracing and typed metrics for the MESSENGERS
//! reproduction.
//!
//! The paper's central object — a *messenger* migrating between
//! daemons — is exactly the thing conventional per-process logs lose:
//! the interesting state is in flight. This crate records every
//! observable transition (messenger lifecycle, transport frames, GVT
//! protocol, checkpoint/restore, injected faults) as typed
//! [`TraceEvent`]s in per-daemon bounded [`FlightRecorder`] rings, then
//! merges them into a single [`Trace`] with two exporters:
//!
//! * canonical JSONL ([`Trace::to_jsonl`]) — byte-identical across
//!   same-seed runs, which makes "diff two traces" a correctness oracle;
//! * Chrome `trace_event` ([`chrome::to_chrome`]) — loadable in
//!   Perfetto, with messenger migrations drawn as flow arrows.
//!
//! The [`Metric`] registry is the typed face of the string-keyed
//! `Stats` sink: every counter/gauge/histogram the runtime emits is an
//! enum variant with kind and unit metadata, and platforms install
//! [`Metric::validator`] so unregistered keys fail debug assertions.
//!
//! The crate has zero dependencies (runtime *or* workspace) so every
//! other crate can depend on it without cycles; its integration tests
//! close the loop by driving full `msgr-core` clusters as
//! dev-dependencies.

#![warn(missing_docs)]

pub mod chrome;
pub mod event;
pub mod json;
pub mod metrics;
pub mod recorder;

pub use event::{EventKind, TraceEvent};
pub use metrics::{Counters, Metric, MetricKind, Unit};
pub use recorder::{FlightRecorder, TraceConfig};

/// A merged, ordered trace of one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// Events in canonical order: `(rt, daemon, seq)` ascending. The
    /// per-daemon `seq` breaks realtime ties deterministically.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring-buffer bounds, summed over daemons.
    pub dropped: u64,
    /// Per-daemon drop attribution: `(daemon, oldest events dropped)`,
    /// nonzero entries only, sorted by daemon. A truncated ring means
    /// the *oldest* window of that daemon's stream is missing — any
    /// profile or post-mortem built on this trace is partial.
    pub dropped_by: Vec<(u16, u64)>,
}

impl Trace {
    /// Merge per-daemon drains into canonical order. Each part is
    /// `(daemon, events, dropped)` as returned by a recorder drain.
    pub fn from_parts(parts: Vec<(u16, Vec<TraceEvent>, u64)>) -> Trace {
        let mut events = Vec::new();
        let mut dropped = 0;
        let mut dropped_by = Vec::new();
        for (d, evs, n) in parts {
            events.extend(evs);
            dropped += n;
            if n > 0 {
                dropped_by.push((d, n));
            }
        }
        dropped_by.sort_unstable();
        events.sort_by(|a, b| {
            (a.rt, a.daemon, a.seq).partial_cmp(&(b.rt, b.daemon, b.seq)).expect("total order")
        });
        Trace { events, dropped, dropped_by }
    }

    /// Count events of each kind, in first-seen order.
    pub fn counts(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        for ev in &self.events {
            let name = ev.kind.name();
            match out.iter_mut().find(|(n, _)| *n == name) {
                Some((_, c)) => *c += 1,
                None => out.push((name, 1)),
            }
        }
        out
    }

    /// Encode as canonical JSONL: one header line, then one line per
    /// event. Byte-identical for equal traces.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"trace\":\"msgr\",\"version\":1,\"events\":{},\"dropped\":{}",
            self.events.len(),
            self.dropped
        ));
        // Per-daemon attribution only when something was actually lost,
        // so drop-free traces keep their historical header bytes.
        if !self.dropped_by.is_empty() {
            out.push_str(",\"dropped_by\":[");
            for (i, (d, n)) in self.dropped_by.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{d},{n}]"));
            }
            out.push(']');
        }
        out.push_str("}\n");
        for ev in &self.events {
            ev.write_jsonl(&mut out);
            out.push('\n');
        }
        out
    }

    /// Decode and schema-validate a JSONL document produced by
    /// [`Trace::to_jsonl`].
    ///
    /// # Errors
    ///
    /// The first violation found — bad JSON, a bad header, an unknown
    /// event kind, or a missing/mistyped field — with its line number.
    pub fn from_jsonl(src: &str) -> Result<Trace, String> {
        let mut lines = src.lines().enumerate();
        let (_, header) = lines.next().ok_or_else(|| "empty trace".to_string())?;
        let h = json::parse(header).map_err(|e| format!("line 1: {e}"))?;
        if h.get("trace").and_then(json::Json::as_str) != Some("msgr") {
            return Err("line 1: not a msgr trace (missing \"trace\":\"msgr\")".to_string());
        }
        if h.get("version").and_then(json::Json::as_u64) != Some(1) {
            return Err("line 1: unsupported trace version".to_string());
        }
        let declared =
            h.get("events").and_then(json::Json::as_u64).ok_or("line 1: missing event count")?;
        let dropped =
            h.get("dropped").and_then(json::Json::as_u64).ok_or("line 1: missing drop count")?;
        // Optional (absent on drop-free and pre-attribution traces).
        let mut dropped_by = Vec::new();
        if let Some(arr) = h.get("dropped_by").and_then(json::Json::as_arr) {
            for entry in arr {
                let pair = entry.as_arr().ok_or("line 1: malformed dropped_by entry")?;
                match pair {
                    [d, n] => {
                        let d = d
                            .as_u64()
                            .and_then(|d| u16::try_from(d).ok())
                            .ok_or("line 1: malformed dropped_by daemon")?;
                        let n = n.as_u64().ok_or("line 1: malformed dropped_by count")?;
                        dropped_by.push((d, n));
                    }
                    _ => return Err("line 1: dropped_by entries must be [daemon, n]".to_string()),
                }
            }
        }
        let mut events = Vec::new();
        for (idx, line) in lines {
            if line.is_empty() {
                continue;
            }
            let j = json::parse(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
            let ev = TraceEvent::from_json(&j).map_err(|e| format!("line {}: {e}", idx + 1))?;
            events.push(ev);
        }
        if events.len() as u64 != declared {
            return Err(format!(
                "header declares {declared} events but {} lines follow",
                events.len()
            ));
        }
        Ok(Trace { events, dropped, dropped_by })
    }

    /// A human-readable run summary: totals, per-kind counts, and the
    /// recovery timeline (kills, evictions, restores) if any.
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let span = match (self.events.first(), self.events.last()) {
            (Some(a), Some(b)) => b.rt.saturating_sub(a.rt),
            _ => 0,
        };
        let daemons: std::collections::BTreeSet<u16> =
            self.events.iter().map(|e| e.daemon).collect();
        let _ = writeln!(
            out,
            "trace: {} events from {} daemon(s) over {:.3} ms simulated ({} dropped to ring bounds)",
            self.events.len(),
            daemons.len(),
            span as f64 / 1e6,
            self.dropped
        );
        if !self.dropped_by.is_empty() {
            let _ = writeln!(
                out,
                "WARNING: flight-recorder rings truncated — the oldest window of these daemons' \
                 streams is missing:"
            );
            for (d, n) in &self.dropped_by {
                let _ = writeln!(out, "  daemon {d}: {n} oldest event(s) dropped");
            }
        }
        let mut counts = self.counts();
        counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        for (name, n) in counts {
            let _ = writeln!(out, "  {name:<12} {n}");
        }
        let timeline: Vec<&TraceEvent> = self
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::Kill
                        | EventKind::CtrlDecide { .. }
                        | EventKind::GvtEvict { .. }
                        | EventKind::Restore { .. }
                )
            })
            .collect();
        if !timeline.is_empty() {
            let _ = writeln!(out, "recovery timeline:");
            for ev in timeline {
                let at = ev.rt as f64 / 1e6;
                match &ev.kind {
                    EventKind::Kill => {
                        let _ = writeln!(out, "  {at:>10.3} ms  daemon {} killed", ev.daemon);
                    }
                    EventKind::CtrlDecide { victim, successor, seq } => {
                        let _ = writeln!(
                            out,
                            "  {at:>10.3} ms  daemon {} learned decree: bury daemon {victim}, \
                             heir {successor} (instance seq {seq})",
                            ev.daemon
                        );
                    }
                    EventKind::GvtEvict { victim, floor } => {
                        // A dead daemon with no surviving work reports f64::MAX
                        // as its vt floor; print that as "none" rather than a
                        // 300-digit integer.
                        let floor = if *floor >= f64::MAX {
                            "none".to_string()
                        } else {
                            format!("{floor}")
                        };
                        let _ = writeln!(
                            out,
                            "  {at:>10.3} ms  daemon {} evicted daemon {victim} (vt floor {floor})",
                            ev.daemon
                        );
                    }
                    EventKind::Restore { victim, nodes, messengers } => {
                        let _ = writeln!(
                            out,
                            "  {at:>10.3} ms  daemon {} restored daemon {victim}: \
                             {nodes} node(s), {messengers} messenger(s) replayed",
                            ev.daemon
                        );
                    }
                    _ => unreachable!(),
                }
            }
        }
        out
    }

    /// Structural diff against `other`: human-readable descriptions of
    /// the first divergences (empty when the traces are identical).
    /// Reports at most `limit` differences.
    pub fn diff(&self, other: &Trace, limit: usize) -> Vec<String> {
        let mut out = Vec::new();
        if self.dropped != other.dropped {
            out.push(format!("drop counts differ: {} vs {}", self.dropped, other.dropped));
        }
        if self.dropped_by != other.dropped_by {
            out.push(format!(
                "per-daemon drop attributions differ: {:?} vs {:?}",
                self.dropped_by, other.dropped_by
            ));
        }
        if self.events.len() != other.events.len() {
            out.push(format!(
                "event counts differ: {} vs {}",
                self.events.len(),
                other.events.len()
            ));
        }
        for (i, (a, b)) in self.events.iter().zip(&other.events).enumerate() {
            if out.len() >= limit {
                out.push("... (more differences suppressed)".to_string());
                break;
            }
            if a != b {
                let mut la = String::new();
                let mut lb = String::new();
                a.write_jsonl(&mut la);
                b.write_jsonl(&mut lb);
                out.push(format!("event {i} differs:\n  a: {la}\n  b: {lb}"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(daemon: u16, seq: u64, rt: u64, kind: EventKind) -> TraceEvent {
        TraceEvent { daemon, seq, rt, vt: 0.0, gvt: 0.0, kind }
    }

    fn sample() -> Trace {
        Trace::from_parts(vec![
            (
                1,
                vec![
                    ev(1, 1, 500, EventKind::MsgrArrive { mid: 3 }),
                    ev(1, 2, 500, EventKind::MsgrRetire { mid: 3 }),
                ],
                1,
            ),
            (
                0,
                vec![
                    ev(0, 1, 0, EventKind::MsgrInject { mid: 3 }),
                    ev(0, 2, 100, EventKind::MsgrHop { mid: 3, to: 1, bytes: 40 }),
                ],
                0,
            ),
        ])
    }

    #[test]
    fn from_parts_orders_by_rt_then_daemon_then_seq() {
        let t = sample();
        let stamps: Vec<(u64, u16, u64)> =
            t.events.iter().map(|e| (e.rt, e.daemon, e.seq)).collect();
        assert_eq!(stamps, [(0, 0, 1), (100, 0, 2), (500, 1, 1), (500, 1, 2)]);
        assert_eq!(t.dropped, 1);
        assert_eq!(t.dropped_by, [(1, 1)]);
    }

    #[test]
    fn dropped_by_survives_jsonl_and_is_absent_when_clean() {
        let t = sample();
        let doc = t.to_jsonl();
        assert!(doc.lines().next().unwrap().contains("\"dropped_by\":[[1,1]]"));
        assert_eq!(Trace::from_jsonl(&doc).expect("valid"), t);
        let clean = Trace::from_parts(vec![(0, vec![ev(0, 1, 0, EventKind::Kill)], 0)]);
        let doc = clean.to_jsonl();
        assert!(!doc.contains("dropped_by"), "drop-free headers keep their historical bytes");
        assert_eq!(Trace::from_jsonl(&doc).expect("valid"), clean);
    }

    #[test]
    fn summary_warns_about_truncated_rings() {
        let s = sample().summary();
        assert!(s.contains("rings truncated"));
        assert!(s.contains("daemon 1: 1 oldest event(s) dropped"));
    }

    #[test]
    fn jsonl_round_trips_byte_identically() {
        let t = sample();
        let doc = t.to_jsonl();
        let back = Trace::from_jsonl(&doc).expect("valid");
        assert_eq!(back, t);
        assert_eq!(back.to_jsonl(), doc, "canonical encoding");
    }

    #[test]
    fn from_jsonl_rejects_bad_documents() {
        assert!(Trace::from_jsonl("").is_err());
        assert!(Trace::from_jsonl("{\"trace\":\"other\",\"version\":1}").is_err());
        assert!(
            Trace::from_jsonl("{\"trace\":\"msgr\",\"version\":1,\"events\":2,\"dropped\":0}\n")
                .unwrap_err()
                .contains("declares 2"),
            "event-count mismatch is caught"
        );
        let bad = "{\"trace\":\"msgr\",\"version\":1,\"events\":1,\"dropped\":0}\n\
                   {\"d\":0,\"s\":1,\"rt\":0,\"vt\":0,\"gvt\":0,\"ev\":\"warp\"}\n";
        assert!(Trace::from_jsonl(bad).unwrap_err().contains("line 2"));
    }

    #[test]
    fn diff_reports_divergence_and_identity() {
        let a = sample();
        assert!(a.diff(&a.clone(), 10).is_empty());
        let mut b = a.clone();
        b.events[2].kind = EventKind::MsgrArrive { mid: 4 };
        let d = a.diff(&b, 10);
        assert_eq!(d.len(), 1);
        assert!(d[0].contains("event 2 differs"));
    }

    #[test]
    fn summary_names_recovery_timeline() {
        let t = Trace {
            events: vec![
                ev(2, 1, 1_000_000, EventKind::Kill),
                ev(0, 1, 2_000_000, EventKind::GvtEvict { victim: 2, floor: 0.5 }),
                ev(1, 1, 3_000_000, EventKind::Restore { victim: 2, nodes: 4, messengers: 2 }),
            ],
            dropped: 0,
            dropped_by: Vec::new(),
        };
        let s = t.summary();
        assert!(s.contains("recovery timeline:"));
        assert!(s.contains("daemon 2 killed"));
        assert!(s.contains("restored daemon 2"));
        assert!(s.contains("4 node(s), 2 messenger(s)"));
    }
}
