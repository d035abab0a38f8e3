//! The benchmark's own spans: one record per public call it makes into the
//! program (set-up phases, submit, flush, close, open) and per component
//! replay, kept in memory and written out when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct SpanRecord {
    parent: Option<usize>,
    job: usize,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder.  While disabled every call is a no-op, so the
/// untimed end-to-end jobs pay nothing for it.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    job: usize,
    spans: Vec<SpanRecord>,
}

impl Tracer {
    /// A recorder whose span times count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Tracer {
            enabled: false,
            origin,
            job: 0,
            spans: Vec::new(),
        }
    }

    /// Attribute the following spans to `job`, and record them only when
    /// `enabled`.
    pub fn start_job(&mut self, job: usize, enabled: bool) {
        self.job = job;
        self.enabled = enabled;
    }

    fn offset(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span whose extent is set by [`Tracer::close`]; returns its id.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        if self.enabled {
            self.spans.push(SpanRecord {
                parent,
                job: self.job,
                name,
                start_ns: 0,
                end_ns: 0,
            });
        }
        self.spans.len().saturating_sub(1)
    }

    /// Set the extent of a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: usize, start: Instant, end: Instant) {
        if self.enabled {
            let (start_ns, end_ns) = (self.offset(start), self.offset(end));
            if let Some(span) = self.spans.get_mut(id) {
                span.start_ns = start_ns;
                span.end_ns = end_ns;
            }
        }
    }

    /// Record a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) {
        let id = self.open(name, parent);
        self.close(id, start, end);
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"job\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.job, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
