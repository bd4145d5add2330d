//! In-memory spans for the traced run. The benchmark wraps each call it
//! makes into a layer's public API in a span; spans stay in memory and are
//! written out as JSON lines when the run ends.

use std::io::Write;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Queries in the call's batch (0 when not a batch call).
    pub batch: u32,
    /// Position in its recorder; `parent` refers to it.
    pub id: usize,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// The request (or replayed batch) the call served.
    pub request: u64,
    /// The recorder (client connection or ladder) that took the span.
    pub recorder: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single-threaded span recorder.
pub struct Spans {
    origin: Instant,
    recorder: u64,
    request: u64,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant, recorder: u64) -> Spans {
        Spans { origin, recorder, request: 0, spans: Vec::new() }
    }

    /// Makes later spans belong to `request`.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    /// Opens a span; returns its handle for [`Spans::close`].
    pub fn open(&mut self, name: &'static str, batch: u32, parent: Option<usize>) -> usize {
        let now = self.now();
        self.spans.push(Span {
            name,
            batch,
            id: self.spans.len(),
            start_ns: now,
            end_ns: now,
            parent,
            request: self.request,
            recorder: self.recorder,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, handle: usize) {
        self.spans[handle].end_ns = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        batch: u32,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let handle = self.open(name, batch, parent);
        let out = f();
        self.close(handle);
        out
    }

    pub fn into_vec(self) -> Vec<Span> {
        self.spans
    }
}

/// Interquartile mean of the durations of the spans named `name` over
/// batches of `batch` (any batch when `None`), in nanoseconds: robust to
/// preemption outliers like a median, and continuous where a median of
/// whole nanoseconds would repeat from run to run.
pub fn iqm_ns(spans: &[Span], name: &str, batch: Option<u32>) -> f64 {
    let v: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name && batch.is_none_or(|b| s.batch == b))
        .map(|s| s.ns() as f64)
        .collect();
    assert!(!v.is_empty(), "no spans named {name} at batch {batch:?}");
    iqm(v)
}

/// Interquartile mean of `v`.
pub fn iqm(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "interquartile mean of nothing");
    v.sort_by(f64::total_cmp);
    let (lo, hi) = (v.len() / 4, v.len() - v.len() / 4);
    v[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
}

/// Writes `spans` as JSON lines: name, start, end, parent, request.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"batch\":{},\"recorder\":{},\"id\":{},\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.batch, s.recorder, s.id, parent, s.request, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
