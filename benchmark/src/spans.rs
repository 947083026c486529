//! In-memory spans around the benchmark's own calls into each layer.
//!
//! The load generator is single-threaded, so nesting is a stack. Spans
//! are recorded only while `on` is set (the traced repeat and the
//! probes); with it off `enter`/`exit` cost one branch, which is what
//! lets the same workload code serve the untraced timed repeats.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Span recorder for one workload process.
#[derive(Debug)]
pub struct Spans {
    pub on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans { on: false, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        self.open.push(self.spans.len());
        let parent = self.open.len().checked_sub(2).map(|i| self.open[i]);
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = now;
    }

    /// Run `f` inside a span.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        self.enter(name);
        let out = f(self);
        self.exit();
        out
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of the spans called `name` at or below span `root`.
    pub fn seconds_under(&self, root: usize, name: &str) -> f64 {
        let under_root = |mut i: usize| loop {
            if i == root {
                return true;
            }
            match self.spans[i].parent {
                Some(p) => i = p,
                None => return false,
            }
        };
        // Folded from +0.0: an empty `sum()` of floats is -0.0.
        (root..self.spans.len())
            .filter(|&i| self.spans[i].name == name && under_root(i))
            .fold(0.0, |total, i| total + self.spans[i].seconds())
    }

    /// Seconds of span `i` covered by its direct children.
    pub fn child_seconds(&self, i: usize) -> f64 {
        self.spans.iter().filter(|s| s.parent == Some(i)).map(Span::seconds).sum()
    }

    /// A span's duration minus the part its children cover.
    pub fn self_seconds(&self, i: usize) -> f64 {
        self.spans[i].seconds() - self.child_seconds(i)
    }

    /// One JSON object per line: name, start, end, parent, self time and
    /// the workload every span of this process belongs to.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"workload\": \"{workload}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}, \"self_ns\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                (self.self_seconds(i) * 1e9).round() as u64,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_self_time() {
        let mut s = Spans::new();
        s.enter("ignored while off");
        s.exit();
        assert!(s.all().is_empty());
        s.on = true;
        s.scope("root", |s| {
            s.scope("a", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            s.scope("b", |_| ());
        });
        let all = s.all();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].parent, None);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[2].parent, Some(0));
        assert!(s.child_seconds(0) <= all[0].seconds());
        assert!(s.self_seconds(0) >= 0.0);
        assert!(all[1].seconds() >= 0.002);
        assert_eq!(s.to_jsonl("w").lines().count(), 3);
        s.scope("a", |_| ());
        assert_eq!(s.seconds_under(0, "a"), s.all()[1].seconds());
        assert_eq!(s.seconds_under(0, "missing"), 0.0);
        assert!(s.seconds_under(0, "missing").is_sign_positive());
    }
}
