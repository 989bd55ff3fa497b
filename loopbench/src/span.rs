//! In-memory spans around the benchmark's calls into the program's
//! public functions. The program itself is not instrumented: every span
//! starts and ends in the benchmark's own files.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) span. Times are seconds since the
/// tracer's origin.
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

/// Records spans when on; every method is a no-op when off, so traced
/// and untraced legs run the same code.
pub struct Tracer {
    on: bool,
    origin: Instant,
    run_id: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            run_id: String::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(run_id: String) -> Tracer {
        Tracer {
            on: true,
            run_id,
            ..Tracer::off()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn secs(&self, at: Instant) -> f64 {
        at.duration_since(self.origin).as_secs_f64()
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: self.secs(Instant::now()),
            end: f64::NAN,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `enter` returned; spans close innermost first.
    pub fn exit(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let end = self.secs(Instant::now());
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn scoped<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Adds a span measured elsewhere (e.g. inside a trace sink) as a
    /// child of the innermost open span.
    pub fn add_closed(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: self.secs(start),
            end: self.secs(end),
        });
    }

    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Summed duration of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Each span's duration minus the part its children cover.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end - s.start;
            }
        }
        own
    }

    /// Self time of the outermost spans: traced time no inner span
    /// claims.
    pub fn unattributed(&self) -> f64 {
        let own = self.self_times();
        self.spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.parent.is_none())
            .map(|(_, t)| t)
            .sum()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let own = self.self_times();
        let mut out = String::with_capacity(self.spans.len() * 120);
        for (id, (s, self_s)) in self.spans.iter().zip(&own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":\"{}\",\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\
                 \"start_s\":{},\"end_s\":{},\"self_s\":{self_s}}}",
                self.run_id, s.name, s.start, s.end
            )
            .expect("write to String");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root() {
        let mut t = Tracer::on("test".into());
        let root = t.enter("run");
        t.scoped("a", |t| {
            t.scoped("b", |_| std::hint::black_box((0..10_000).sum::<u64>()));
        });
        let (s, e) = (Instant::now(), Instant::now());
        t.add_closed("c", s, e);
        t.exit(root);
        let own = t.self_times();
        let root_len = t.durations("run")[0];
        assert!((own.iter().sum::<f64>() - root_len).abs() < 1e-12);
        assert!(own.iter().all(|&x| x >= -1e-12));
        assert_eq!(t.unattributed(), own[0]);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.enter("x");
        t.exit(id);
        t.scoped("y", |_| ());
        assert_eq!(t.len(), 0);
    }
}
