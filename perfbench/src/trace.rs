//! In-memory spans recorded around the benchmark's own calls into each
//! layer. Nothing here reaches into the program: a span covers one
//! public call made from this crate.

use std::io::Write;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique within its recorder.
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// Request the span belongs to; spans of one request share it.
    pub request: u64,
    /// Layer-qualified call name, e.g. `check.check`.
    pub name: &'static str,
    /// Start, seconds since the recorder's origin.
    pub start_s: f64,
    /// End, seconds since the recorder's origin.
    pub end_s: f64,
}

impl Span {
    /// Duration, µs.
    pub fn us(&self) -> f64 {
        (self.end_s - self.start_s) * 1e6
    }
}

/// Collects spans for one thread. Disabled recorders drop everything,
/// so the untraced run pays only a branch per call.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    next_id: u64,
    /// Recorded spans, in completion order.
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose ids start at `id_base` (keeps ids unique when
    /// several threads' spans are merged).
    pub fn new(origin: Instant, enabled: bool, id_base: u64) -> Recorder {
        Recorder {
            origin,
            enabled,
            next_id: id_base,
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off; ids keep advancing either way.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Seconds since the origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Records a finished span and returns its id (also when disabled,
    /// so callers can thread parents through unconditionally).
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        start_s: f64,
        end_s: f64,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        if self.enabled {
            self.spans.push(Span {
                id,
                parent,
                request,
                name,
                start_s,
                end_s,
            });
        }
        id
    }

    /// Reserves an id for a parent span recorded after its children.
    pub fn reserve(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a span under an id taken from [`Recorder::reserve`].
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        start_s: f64,
        end_s: f64,
    ) {
        if self.enabled {
            self.spans.push(Span {
                id,
                parent,
                request,
                name,
                start_s,
                end_s,
            });
        }
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(name, request, parent, start, end);
        (out, (end - start) * 1e6)
    }
}

/// Writes spans as JSON lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
            s.id,
            parent,
            s.request,
            s.name,
            s.start_s * 1e6,
            s.end_s * 1e6
        )?;
    }
    out.flush()
}
