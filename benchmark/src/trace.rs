//! Spans recorded by the benchmark's own code around its calls into the
//! system, kept in memory and written out when the run ends.

use std::io::Write;
use std::time::Instant;

/// One transaction in this many is traced.
pub const SAMPLE_EVERY: u64 = 16;

/// The span names, in the order a transaction passes through them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Drawing the operation from the generator.
    Gen,
    /// Inside `submit_write` / up to the hand-off of a blocking read.
    Submit,
    /// From the hand-off until the node resolved the transaction (on the
    /// simulator, the whole synchronous session call).
    Wait,
    /// `sim_protocol` only: the `quiesce()` that ends a block.
    Settle,
}

impl SpanKind {
    fn name(self) -> &'static str {
        match self {
            SpanKind::Gen => "gen",
            SpanKind::Submit => "session.submit",
            SpanKind::Wait => "session.wait",
            SpanKind::Settle => "sim.quiesce",
        }
    }
}

/// One recorded span. Spans of one transaction share `tx`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was timed.
    pub kind: SpanKind,
    /// The client thread that recorded it.
    pub client: u64,
    /// The transaction (per-client sequence number).
    pub tx: u64,
    /// Start.
    pub start: Instant,
    /// End.
    pub end: Instant,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end.saturating_duration_since(self.start).as_nanos() as u64
    }
}

/// Writes `spans` as Chrome trace-event JSON (`chrome://tracing`, Perfetto),
/// timestamps in microseconds since `epoch`.
pub fn write_chrome_trace(
    path: &std::path::Path,
    epoch: Instant,
    spans: &[Span],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    for (i, span) in spans.iter().enumerate() {
        let ts = span.start.saturating_duration_since(epoch).as_nanos() as f64 / 1e3;
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{ts:.3},\"dur\":{:.3},\"args\":{{\"tx\":\"{}:{}\"}}}}{comma}",
            span.kind.name(),
            span.client,
            span.nanos() as f64 / 1e3,
            span.client,
            span.tx
        )?;
    }
    writeln!(out, "]")?;
    out.flush()
}
