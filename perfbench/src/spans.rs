//! In-memory spans recorded around each call the benchmark makes into a
//! layer, written out when the run ends.
//!
//! Spans nest by call order on the recording thread: a span entered while
//! another is open is its child. A span whose name ends in `.replica`
//! times a layer's public function on the same input *beside* the
//! end-to-end call (where that call is opaque); replicas hang off the
//! round span, never off the call they mirror, so self times stay honest.

use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Batch (or tick) index within the round, shared by every span of
    /// one request.
    pub batch: Option<u32>,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds of `at` since this recorder's epoch.
    pub fn ns_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64, batch: Option<u32>) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            batch,
        });
        id
    }

    /// Open a span; it is the parent of every span recorded until `exit`.
    pub fn enter(&mut self, name: &'static str, batch: Option<u32>) -> u32 {
        let now = self.ns_of(Instant::now());
        let id = self.push(name, now, now, batch);
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: u32) {
        let now = self.ns_of(Instant::now());
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = now;
    }

    /// Time one call as a leaf span.
    pub fn leaf<T>(&mut self, name: &'static str, batch: Option<u32>, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, batch);
        let out = f();
        self.exit(id);
        out
    }

    /// Record an interval measured elsewhere (another thread's arrival
    /// stamps) as a child of the innermost open span.
    pub fn add(&mut self, name: &'static str, start: Instant, end: Instant, batch: Option<u32>) {
        let (s, e) = (self.ns_of(start), self.ns_of(end));
        self.push(name, s, e.max(s), batch);
    }

    /// Position to hand to [`Recorder::since`]: the spans of one round.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    pub fn since(&self, mark: usize) -> &[Span] {
        &self.spans[mark..]
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }
}

/// Durations (µs) of every span called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::us)
        .collect()
}

/// Median duration (µs) of the spans called `name`: what one call costs
/// when nobody interrupts it. Zero when there is no such span.
pub fn median_us(spans: &[Span], name: &str) -> f64 {
    crate::estimate::median(&durations_us(spans, name)).unwrap_or(0.0)
}

/// Summed duration (µs) of every span called `name`.
pub fn total_us(spans: &[Span], name: &str) -> f64 {
    durations_us(spans, name).iter().sum()
}

/// Self time of each span, in ns, in the order of `spans`: its duration
/// minus the part its direct children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let index_of: std::collections::HashMap<u32, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index_of.get(&p)) {
            // Clip to the parent's interval: a stamp taken on another
            // thread may straddle its edge.
            let start = s.start_ns.max(spans[p].start_ns);
            let end = s.end_ns.min(spans[p].end_ns);
            own[p] = own[p].saturating_sub(end.saturating_sub(start));
        }
    }
    own
}

/// The trace file: one JSON object holding the spans with their self
/// times, plus who wrote it.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let own = self_times_ns(spans);
    let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [\n");
    for (i, (s, own_ns)) in spans.iter().zip(&own).enumerate() {
        let opt = |v: Option<u32>| v.map_or("null".to_string(), |v| v.to_string());
        out.push_str(&format!(
            "{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"parent\": {}, \"batch\": {}, \"self_ns\": {}}}{}\n",
            s.id,
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.parent),
            opt(s.batch),
            own_ns,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            id,
            name: "t",
            start_ns,
            end_ns,
            parent,
            batch: None,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span(0, 0, 100, None),
            span(1, 10, 40, Some(0)),
            span(2, 15, 25, Some(1)),
            span(3, 50, 70, Some(0)),
        ];
        // Grandchild 2 comes off span 1 only, never off the root.
        assert_eq!(self_times_ns(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn a_child_straddling_its_parent_is_clipped() {
        let spans = vec![span(0, 10, 50, None), span(1, 40, 90, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![30, 50]);
    }

    #[test]
    fn self_times_work_on_a_slice_that_starts_mid_run() {
        let spans = vec![span(7, 0, 10, Some(3)), span(8, 2, 5, Some(7))];
        assert_eq!(self_times_ns(&spans), vec![7, 3]);
    }

    #[test]
    fn recorder_nests_by_call_order() {
        let mut rec = Recorder::new();
        let round = rec.enter("round", None);
        rec.leaf("call", Some(0), || std::hint::black_box(1 + 1));
        rec.exit(round);
        let spans = rec.all();
        assert_eq!(spans[1].parent, Some(round));
        assert_eq!(spans[1].batch, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let json = to_json("w", 7, spans);
        assert!(json.contains("\"self_ns\""), "{json}");
    }
}
