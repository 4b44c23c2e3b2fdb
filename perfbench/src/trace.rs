//! In-memory span recorder.
//!
//! Every call the replay makes into a layer is wrapped in [`Tracer::span`],
//! keyed by (layer, op, unit, variant, CCM size). Spans are flat (no layer
//! call nests inside another), kept in memory and written out as JSON
//! lines once the replay has ended. A disabled tracer calls straight
//! through: the set-up timing builds the inputs with one.

use std::io::{self, Write};
use std::time::Instant;

/// What a span measured: one call of one public function of one layer.
#[derive(Clone, Copy, Debug)]
pub struct Key {
    /// Crate the call goes into (`suite`, `fuzz`, `regalloc`, `ccm`,
    /// `checker`, `sim`).
    pub layer: &'static str,
    /// Function called, e.g. `allocate_module`.
    pub op: &'static str,
    /// Index into [`Tracer::units`].
    pub unit: u32,
    /// Allocation variant (`baseline`, `postpass`, `postpass+cg`,
    /// `integrated`), `table1` for the compaction study, `reference` for
    /// the pre-allocation simulation, `input` for set-up.
    pub variant: &'static str,
    /// CCM size in bytes, 0 where the call does not depend on it.
    pub ccm: u32,
}

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The call.
    pub key: Key,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Records spans when enabled; a pass-through otherwise.
pub struct Tracer {
    on: bool,
    t0: Instant,
    /// Recorded spans, in call order.
    pub spans: Vec<Span>,
    /// Unit names; [`Key::unit`] indexes this.
    pub units: Vec<String>,
}

impl Tracer {
    /// A tracer that records (`on`) or only calls through.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            units: Vec::new(),
        }
    }

    /// Registers a unit name and returns its index for [`Key::unit`].
    pub fn unit(&mut self, name: &str) -> u32 {
        self.units.push(name.to_string());
        u32::try_from(self.units.len() - 1).expect("fewer than 2^32 units")
    }

    /// Runs `f`, recording its wall-clock interval under `key` when on.
    pub fn span<T>(&mut self, key: Key, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            key,
            start_ns: nanos(start - self.t0),
            dur_ns: nanos(end - start),
        });
        out
    }

    /// Seconds covered by all spans.
    pub fn total_s(&self) -> f64 {
        self.spans.iter().map(|s| s.dur_ns).sum::<u64>() as f64 / 1e9
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    ///
    /// Any write error.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for s in &self.spans {
            let k = &s.key;
            writeln!(
                out,
                "{{\"layer\":\"{}\",\"op\":\"{}\",\"unit\":\"{}\",\"variant\":\"{}\",\"ccm\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                k.layer, k.op, self.units[k.unit as usize], k.variant, k.ccm, s.start_ns, s.dur_ns
            )?;
        }
        Ok(())
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
