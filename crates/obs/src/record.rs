//! The durable run record: line sinks, the JSONL event schema, the
//! [`RunRecorder`], and the [`Obs`] handle instrumented code is written
//! against.
//!
//! One training run emits one self-describing JSONL stream (schema
//! documented in `docs/RUN_RECORD.md`): a `run_start` event carrying a
//! full config snapshot, one `step` event per optimizer step with the
//! five-phase timing split and comm-volume counters, an `eval` event per
//! validation pass, optional `trial` events from sweeps, and a final
//! `summary` event with per-phase quantiles. Every line is one event:
//! a single-key JSON object whose key is the event type.
//!
//! [`Obs`] is the handle threaded through the trainer, the DDP step, and
//! the data loader. [`Obs::disabled`] is a `None` inside — every
//! instrumentation call short-circuits on one branch, no clock is read,
//! nothing allocates — so instrumented code paths cost nothing measurable
//! when observability is off (asserted by `crates/train/tests/obs_overhead.rs`).

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::de::Content;
use serde::ser::{to_content, SerializeMap as _, SerializeSeq as _};
use serde::{Deserialize, Serialize};

use crate::hist::{Quantiles, StreamingHistogram};
use crate::span::{Phase, PhaseAcc, Span};

/// The run-record schema identifier written into every `run_start` event.
pub const SCHEMA: &str = "matsciml-run-record/v1";

// ---------------------------------------------------------------------------
// Json: an arbitrary JSON value that round-trips through the serde stub
// ---------------------------------------------------------------------------

/// An arbitrary JSON value (a thin wrapper over the serde stub's
/// [`Content`] tree). Used to embed schema-free snapshots — e.g. the full
/// `TrainConfig` — inside typed events without the recorder depending on
/// the trainer's types.
#[derive(Debug, Clone, PartialEq)]
pub struct Json(pub Content);

impl Json {
    /// Snapshot any serializable value into a JSON tree.
    pub fn snapshot<T: Serialize + ?Sized>(value: &T) -> Result<Json, serde_json::Error> {
        Ok(Json(to_content::<T, serde_json::Error>(value)?))
    }

    /// JSON `null`.
    pub fn null() -> Json {
        Json(Content::Null)
    }

    /// Look up a key when the value is an object.
    pub fn get(&self, key: &str) -> Option<&Content> {
        match &self.0 {
            Content::Map(pairs) => pairs
                .iter()
                .find(|(k, _)| matches!(k, Content::Str(s) if s == key))
                .map(|(_, v)| v),
            _ => None,
        }
    }
}

struct JsonRef<'a>(&'a Content);

impl Serialize for JsonRef<'_> {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        match self.0 {
            Content::Null => s.serialize_none(),
            Content::Bool(v) => s.serialize_bool(*v),
            Content::I64(v) => s.serialize_i64(*v),
            Content::U64(v) => s.serialize_u64(*v),
            Content::F32(v) => s.serialize_f32(*v),
            Content::F64(v) => s.serialize_f64(*v),
            Content::Str(v) => s.serialize_str(v),
            Content::Seq(items) => {
                let mut seq = s.serialize_seq(Some(items.len()))?;
                for item in items {
                    seq.serialize_element(&JsonRef(item))?;
                }
                seq.end()
            }
            Content::Map(pairs) => {
                let mut map = s.serialize_map(Some(pairs.len()))?;
                for (k, v) in pairs {
                    map.serialize_entry(&JsonRef(k), &JsonRef(v))?;
                }
                map.end()
            }
        }
    }
}

impl Serialize for Json {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        JsonRef(&self.0).serialize(s)
    }
}

impl<'de> Deserialize<'de> for Json {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        Ok(Json(d.deserialize_content()?))
    }
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// A line-oriented output for recorder artifacts (JSONL event streams,
/// CSV tables). Implementations receive complete lines without trailing
/// newlines.
pub trait Sink: Send {
    /// Append one line.
    fn write_line(&mut self, line: &str);
    /// Flush buffered output (no-op by default).
    fn flush(&mut self) {}
}

/// The no-op sink: discards every line. An [`Obs`] over a `NullSink`
/// still aggregates spans, counters, and histograms (useful for
/// `--trace`-style summaries) but writes no artifact.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl Sink for NullSink {
    fn write_line(&mut self, _line: &str) {}
}

/// A buffered line-per-write file sink, creating parent directories on
/// open. Used for both JSONL run records and CSV training logs.
#[derive(Debug)]
pub struct FileSink {
    out: BufWriter<File>,
}

impl FileSink {
    /// Create (truncate) `path`, creating parent directories first.
    pub fn create(path: impl AsRef<Path>) -> io::Result<FileSink> {
        if let Some(dir) = path.as_ref().parent() {
            std::fs::create_dir_all(dir)?;
        }
        Ok(FileSink {
            out: BufWriter::new(File::create(path)?),
        })
    }
}

impl Sink for FileSink {
    fn write_line(&mut self, line: &str) {
        // Artifact writing must not panic mid-training; errors surface on
        // the explicit flush at run end.
        let _ = self.out.write_all(line.as_bytes());
        let _ = self.out.write_all(b"\n");
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

impl Drop for FileSink {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

/// An in-memory sink for tests: lines land in a shared buffer readable
/// while the recorder still owns the sink.
#[derive(Debug, Default, Clone)]
pub struct MemorySink {
    lines: Arc<Mutex<Vec<String>>>,
}

impl MemorySink {
    /// An empty in-memory sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// A shared handle to the captured lines (clone before boxing the
    /// sink into a recorder).
    pub fn buffer(&self) -> Arc<Mutex<Vec<String>>> {
        Arc::clone(&self.lines)
    }

    /// The captured lines joined by `\n` — ready for [`RunRecord::parse`].
    pub fn contents(&self) -> String {
        self.lines.lock().expect("memory sink poisoned").join("\n")
    }
}

impl Sink for MemorySink {
    fn write_line(&mut self, line: &str) {
        self.lines.lock().expect("memory sink poisoned").push(line.to_string());
    }
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// The `run_start` payload: run identity plus the full config snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunStartEvent {
    /// Schema identifier; always [`SCHEMA`] for records this crate writes.
    pub schema: String,
    /// DDP world size N.
    pub world_size: u64,
    /// Per-rank batch B.
    pub per_rank_batch: u64,
    /// Budgeted optimizer steps.
    pub steps: u64,
    /// Run seed.
    pub seed: u64,
    /// SIMD lane tier the tensor kernels dispatched to: `avx512`,
    /// `avx2`, `sse` or `off`. Throughput depends on it, results do
    /// not. Empty in records written before the field existed.
    #[serde(default)]
    pub simd_isa: String,
    /// Threads in the process's parallel worker pool (the vendored
    /// rayon's pool size: the caller plus its workers). Throughput
    /// depends on it, results do not. 0 in records written before the
    /// field existed.
    #[serde(default)]
    pub threads: u64,
    /// Full training-config snapshot (schema-free JSON).
    pub config: Json,
}

/// The `step` payload: one optimizer step, with the five-phase wall-time
/// split (microseconds) and the step's simulated allreduce wire volume.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StepEvent {
    /// Optimizer step (0-based).
    pub step: u64,
    /// Epoch the step belongs to.
    pub epoch: u64,
    /// Learning rate applied at this step.
    pub lr: f32,
    /// Rank-averaged training loss (`null` in JSON when non-finite).
    pub loss: f32,
    /// Pre-clip global gradient norm.
    pub grad_norm: f32,
    /// Batch materialization time (µs).
    pub data_us: u64,
    /// Forward-pass time (µs, wall-apportioned across rank threads).
    pub forward_us: u64,
    /// Backward-pass time (µs, wall-apportioned across rank threads).
    pub backward_us: u64,
    /// Gradient-reduction time (µs): bucket folds + pairwise tree + scatter.
    pub allreduce_us: u64,
    /// Norm/clip/probe/update time (µs).
    pub optimizer_us: u64,
    /// End-to-end step wall time (µs), excluding any evaluation pass.
    pub total_us: u64,
    /// Simulated ring-allreduce wire volume for this step (bytes):
    /// `2·(N−1)/N ×` flat-bucket gradient bytes.
    pub comm_bytes: u64,
    /// Rank-averaged training metrics.
    pub train: BTreeMap<String, f32>,
}

impl StepEvent {
    /// Sum of the five phase durations — compare against [`Self::total_us`]
    /// to bound unattributed time.
    pub fn phase_sum_us(&self) -> u64 {
        self.data_us + self.forward_us + self.backward_us + self.allreduce_us + self.optimizer_us
    }
}

/// The `eval` payload: one validation pass.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvalEvent {
    /// The optimizer step that triggered the evaluation.
    pub step: u64,
    /// Evaluation wall time (µs).
    pub duration_us: u64,
    /// Mean validation metrics over the evaluated batches.
    pub metrics: BTreeMap<String, f32>,
}

/// The `trial` payload: one completed hyperparameter-sweep trial.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrialEvent {
    /// Trial index (0-based) within the sweep.
    pub index: u64,
    /// Total trials in the sweep.
    pub total: u64,
    /// Name of the validation metric being minimized.
    pub objective_metric: String,
    /// Final objective value (`null` in JSON when non-finite).
    pub objective: f32,
    /// Loss-spike count during the trial.
    pub spikes: u64,
    /// The trial's training-config snapshot.
    pub config: Json,
}

/// The `summary` payload: run totals, per-phase quantiles, and counters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SummaryEvent {
    /// Optimizer steps actually run.
    pub steps: u64,
    /// Whole-run wall time (µs).
    pub wall_time_us: u64,
    /// True when early stopping fired before the step budget was spent.
    pub stopped_early: bool,
    /// Optimizer steps skipped on non-finite gradients.
    pub skipped_updates: u64,
    /// Steps at which the instability probe flagged loss spikes.
    pub spike_steps: Vec<u64>,
    /// Per-histogram quantile summaries (keys like `phase/forward_us`).
    pub phases: BTreeMap<String, Quantiles>,
    /// Final counter values (keys like `comm/allreduce_bytes`).
    pub counters: BTreeMap<String, u64>,
    /// Final validation metrics (empty when the run never evaluated).
    pub final_val: BTreeMap<String, f32>,
}

/// One line of a run record. Serialized externally tagged — each JSONL
/// line is `{"<event type>": {...payload...}}` — with lowercase variant
/// names so the wire format matches `docs/RUN_RECORD.md` directly.
#[allow(non_camel_case_types)]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Event {
    /// Run header: schema + config snapshot. Always the first line.
    run_start(RunStartEvent),
    /// One optimizer step with phase timings.
    step(StepEvent),
    /// One validation pass.
    eval(EvalEvent),
    /// One sweep trial (only in sweep streams).
    trial(TrialEvent),
    /// Run footer: totals and quantiles. Always the last line.
    summary(SummaryEvent),
}

impl Event {
    /// The lowercase event-type name (the JSONL line's single key).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::run_start(_) => "run_start",
            Event::step(_) => "step",
            Event::eval(_) => "eval",
            Event::trial(_) => "trial",
            Event::summary(_) => "summary",
        }
    }
}

// ---------------------------------------------------------------------------
// RunRecorder
// ---------------------------------------------------------------------------

/// Aggregation state plus the event sink for one training run: a
/// [`PhaseAcc`] for span timing, named counters, named streaming
/// histograms, and the line sink the JSONL events go to.
///
/// The recorder is shared behind an [`Obs`] handle; all of its methods
/// take `&self` and are thread-safe.
///
/// ```
/// use matsciml_obs::{Event, MemorySink, Obs, RunRecord, RunRecorder, StepEvent};
/// use std::collections::BTreeMap;
///
/// let sink = MemorySink::new();
/// let buffer = sink.buffer();
/// let recorder = RunRecorder::new(Box::new(sink));
/// recorder.emit(&Event::step(StepEvent {
///     step: 0, epoch: 0, lr: 1e-3, loss: 0.5, grad_norm: 1.0,
///     data_us: 10, forward_us: 40, backward_us: 80, allreduce_us: 5,
///     optimizer_us: 15, total_us: 152, comm_bytes: 4096,
///     train: BTreeMap::new(),
/// }));
///
/// let text = buffer.lock().unwrap().join("\n");
/// let record = RunRecord::parse(&text).unwrap();
/// assert_eq!(record.steps().count(), 1);
/// assert_eq!(record.steps().next().unwrap().phase_sum_us(), 150);
/// ```
pub struct RunRecorder {
    acc: PhaseAcc,
    counters: Mutex<BTreeMap<&'static str, u64>>,
    hists: Mutex<BTreeMap<&'static str, StreamingHistogram>>,
    sink: Mutex<Box<dyn Sink>>,
}

impl RunRecorder {
    /// A recorder writing events to `sink`.
    pub fn new(sink: Box<dyn Sink>) -> RunRecorder {
        RunRecorder {
            acc: PhaseAcc::new(),
            counters: Mutex::new(BTreeMap::new()),
            hists: Mutex::new(BTreeMap::new()),
            sink: Mutex::new(sink),
        }
    }

    /// A recorder writing JSONL to `path` (parents created).
    pub fn jsonl(path: impl AsRef<Path>) -> io::Result<RunRecorder> {
        Ok(RunRecorder::new(Box::new(FileSink::create(path)?)))
    }

    /// The span accumulator bank.
    pub fn acc(&self) -> &PhaseAcc {
        &self.acc
    }

    /// Serialize one event and append it to the sink.
    pub fn emit(&self, event: &Event) {
        match serde_json::to_string(event) {
            Ok(line) => self.sink.lock().expect("sink poisoned").write_line(&line),
            Err(e) => eprintln!("matsciml-obs: dropping unserializable event: {e}"),
        }
    }

    /// Add `delta` to the named counter.
    pub fn count(&self, name: &'static str, delta: u64) {
        *self
            .counters
            .lock()
            .expect("counters poisoned")
            .entry(name)
            .or_insert(0) += delta;
    }

    /// Snapshot all counters.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.counters
            .lock()
            .expect("counters poisoned")
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect()
    }

    /// Record one observation into the named streaming histogram.
    pub fn observe(&self, name: &'static str, value: f64) {
        self.hists
            .lock()
            .expect("histograms poisoned")
            .entry(name)
            .or_default()
            .observe(value);
    }

    /// Quantile summaries of every histogram.
    pub fn quantiles(&self) -> BTreeMap<String, Quantiles> {
        self.hists
            .lock()
            .expect("histograms poisoned")
            .iter()
            .map(|(k, h)| (k.to_string(), h.quantiles()))
            .collect()
    }

    /// Flush the sink.
    pub fn flush(&self) {
        self.sink.lock().expect("sink poisoned").flush();
    }
}

// ---------------------------------------------------------------------------
// Obs: the handle instrumented code is written against
// ---------------------------------------------------------------------------

/// The observability handle threaded through training code. Either
/// disabled (`None` inside — every call is one branch, no clock reads, no
/// locks) or backed by a shared [`RunRecorder`].
///
/// Cloning an `Obs` clones the handle, not the recorder: clones aggregate
/// into the same run record.
#[derive(Clone, Default)]
pub struct Obs {
    rec: Option<Arc<RunRecorder>>,
}

impl Obs {
    /// The disabled handle: all instrumentation short-circuits.
    pub fn disabled() -> Obs {
        Obs { rec: None }
    }

    /// An enabled handle over `recorder`.
    pub fn recording(recorder: RunRecorder) -> Obs {
        Obs {
            rec: Some(Arc::new(recorder)),
        }
    }

    /// An enabled handle writing JSONL to `path` (parents created).
    pub fn jsonl(path: impl AsRef<Path>) -> io::Result<Obs> {
        Ok(Obs::recording(RunRecorder::jsonl(path)?))
    }

    /// An enabled handle over the no-op sink: aggregates spans, counters,
    /// and histograms (e.g. for `--trace` summaries) but writes nothing.
    pub fn null() -> Obs {
        Obs::recording(RunRecorder::new(Box::new(NullSink)))
    }

    /// Whether instrumentation is live.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.rec.is_some()
    }

    /// The backing recorder, when enabled.
    pub fn recorder(&self) -> Option<&RunRecorder> {
        self.rec.as_deref()
    }

    /// Start a span over `phase`; `None` (and no clock read) when disabled.
    #[inline]
    pub fn span(&self, phase: Phase) -> Option<Span<'_>> {
        self.rec.as_ref().map(|r| Span::new(r.acc(), phase))
    }

    /// A raw monotonic timestamp for multi-section timing; `None` (and no
    /// clock read) when disabled. Pair with [`Obs::lap_ns`].
    #[inline]
    pub fn timer(&self) -> Option<Instant> {
        self.rec.as_ref().map(|_| Instant::now())
    }

    /// Nanoseconds since a [`Obs::timer`] timestamp (0 when disabled).
    #[inline]
    pub fn lap_ns(t: Option<Instant>) -> u64 {
        t.map_or(0, |t0| t0.elapsed().as_nanos() as u64)
    }

    /// Add `ns` to `phase` directly (used for wall-apportioned phases).
    #[inline]
    pub fn add_phase_ns(&self, phase: Phase, ns: u64) {
        if let Some(r) = &self.rec {
            r.acc().add_ns(phase, ns);
        }
    }

    /// Drain `phase`, returning whole microseconds (0 when disabled).
    #[inline]
    pub fn take_phase_us(&self, phase: Phase) -> u64 {
        self.rec.as_ref().map_or(0, |r| r.acc().take_ns(phase) / 1_000)
    }

    /// Add `delta` to a named counter (no-op when disabled).
    #[inline]
    pub fn count(&self, name: &'static str, delta: u64) {
        if let Some(r) = &self.rec {
            r.count(name, delta);
        }
    }

    /// Current value of a named counter (0 when disabled or absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.rec
            .as_ref()
            .and_then(|r| r.counters.lock().expect("counters poisoned").get(name).copied())
            .unwrap_or(0)
    }

    /// Record into a named streaming histogram (no-op when disabled).
    #[inline]
    pub fn observe(&self, name: &'static str, value: f64) {
        if let Some(r) = &self.rec {
            r.observe(name, value);
        }
    }

    /// Emit one event (no-op when disabled).
    pub fn emit(&self, event: &Event) {
        if let Some(r) = &self.rec {
            r.emit(event);
        }
    }

    /// Flush the sink (no-op when disabled).
    pub fn flush(&self) {
        if let Some(r) = &self.rec {
            r.flush();
        }
    }
}

// ---------------------------------------------------------------------------
// RunRecord: parse + validate a recorded stream
// ---------------------------------------------------------------------------

/// A parsed run record: the event stream read back from JSONL, with the
/// structural validation the schema promises.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The events, in stream order.
    pub events: Vec<Event>,
}

impl RunRecord {
    /// Parse a JSONL stream (blank lines ignored).
    pub fn parse(text: &str) -> Result<RunRecord, serde_json::Error> {
        let events = text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(serde_json::from_str::<Event>)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(RunRecord { events })
    }

    /// The run header, if present.
    pub fn run_start(&self) -> Option<&RunStartEvent> {
        self.events.iter().find_map(|e| match e {
            Event::run_start(r) => Some(r),
            _ => None,
        })
    }

    /// All step events, in order.
    pub fn steps(&self) -> impl Iterator<Item = &StepEvent> {
        self.events.iter().filter_map(|e| match e {
            Event::step(s) => Some(s),
            _ => None,
        })
    }

    /// All eval events, in order.
    pub fn evals(&self) -> impl Iterator<Item = &EvalEvent> {
        self.events.iter().filter_map(|e| match e {
            Event::eval(v) => Some(v),
            _ => None,
        })
    }

    /// The run footer, if present.
    pub fn summary(&self) -> Option<&SummaryEvent> {
        self.events.iter().find_map(|e| match e {
            Event::summary(s) => Some(s),
            _ => None,
        })
    }

    /// Metrics of the last evaluation in the stream — replaying the
    /// record's answer to "what did validation end at?".
    pub fn final_eval_metrics(&self) -> Option<&BTreeMap<String, f32>> {
        self.events.iter().rev().find_map(|e| match e {
            Event::eval(v) => Some(&v.metrics),
            _ => None,
        })
    }

    /// Check the structural invariants `docs/RUN_RECORD.md` documents:
    /// the stream starts with a `run_start` carrying the known schema id,
    /// ends with a `summary`, step indices are strictly increasing, every
    /// eval references an emitted step, and each step's phase timings sum
    /// to no more than its `total_us` (plus 1ms rounding slack).
    pub fn validate(&self) -> Result<(), String> {
        let first = self.events.first().ok_or("empty run record")?;
        let Event::run_start(start) = first else {
            return Err(format!("first event is `{}`, expected `run_start`", first.kind()));
        };
        if start.schema != SCHEMA {
            return Err(format!(
                "schema `{}` does not match this reader's `{SCHEMA}`",
                start.schema
            ));
        }
        match self.events.last() {
            Some(Event::summary(_)) => {}
            Some(other) => {
                return Err(format!("last event is `{}`, expected `summary`", other.kind()))
            }
            None => unreachable!("non-empty checked above"),
        }
        let mut prev_step: Option<u64> = None;
        let mut seen_steps = Vec::new();
        for s in self.steps() {
            if let Some(p) = prev_step {
                if s.step <= p {
                    return Err(format!("step indices not increasing: {p} then {}", s.step));
                }
            }
            prev_step = Some(s.step);
            seen_steps.push(s.step);
            if s.phase_sum_us() > s.total_us + 1_000 {
                return Err(format!(
                    "step {}: phase sum {}µs exceeds total {}µs",
                    s.step,
                    s.phase_sum_us(),
                    s.total_us
                ));
            }
        }
        for v in self.evals() {
            if !seen_steps.contains(&v.step) {
                return Err(format!("eval at step {} has no matching step event", v.step));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_event(step: u64) -> StepEvent {
        StepEvent {
            step,
            epoch: 0,
            lr: 1e-3,
            loss: 0.5,
            grad_norm: 2.0,
            data_us: 100,
            forward_us: 400,
            backward_us: 800,
            allreduce_us: 50,
            optimizer_us: 150,
            total_us: 1550,
            comm_bytes: 1024,
            train: [("loss".to_string(), 0.5)].into_iter().collect(),
        }
    }

    fn start_event() -> RunStartEvent {
        RunStartEvent {
            schema: SCHEMA.to_string(),
            world_size: 2,
            per_rank_batch: 4,
            steps: 2,
            seed: 7,
            simd_isa: "avx2".to_string(),
            threads: 2,
            config: Json::snapshot(&[("lr".to_string(), 0.001f32)].into_iter().collect::<BTreeMap<_, _>>())
                .unwrap(),
        }
    }

    fn summary_event() -> SummaryEvent {
        SummaryEvent {
            steps: 2,
            wall_time_us: 3100,
            stopped_early: false,
            skipped_updates: 0,
            spike_steps: vec![1],
            phases: BTreeMap::new(),
            counters: [("comm/allreduce_bytes".to_string(), 2048)].into_iter().collect(),
            final_val: [("mae".to_string(), 0.25)].into_iter().collect(),
        }
    }

    #[test]
    fn events_roundtrip_through_jsonl() {
        let events = [
            Event::run_start(start_event()),
            Event::step(step_event(0)),
            Event::eval(EvalEvent {
                step: 0,
                duration_us: 900,
                metrics: [("mae".to_string(), 0.3)].into_iter().collect(),
            }),
            Event::step(step_event(1)),
            Event::summary(summary_event()),
        ];
        let recorder = RunRecorder::new(Box::new(MemorySink::new()));
        // Render through the same path the recorder uses.
        let text: Vec<String> = events.iter().map(|e| serde_json::to_string(e).unwrap()).collect();
        drop(recorder);
        let record = RunRecord::parse(&text.join("\n")).unwrap();
        record.validate().unwrap();
        assert_eq!(record.events.len(), 5);
        assert_eq!(record.steps().count(), 2);
        assert_eq!(record.evals().count(), 1);
        assert_eq!(record.run_start().unwrap().world_size, 2);
        assert_eq!(record.summary().unwrap().spike_steps, vec![1]);
        assert_eq!(record.final_eval_metrics().unwrap()["mae"], 0.3);
    }

    #[test]
    fn run_start_without_simd_isa_or_threads_still_parses() {
        let line = serde_json::to_string(&Event::run_start(start_event())).unwrap();
        assert!(line.contains("\"simd_isa\":\"avx2\",\"threads\":2,"), "got {line}");
        let old = line.replace("\"simd_isa\":\"avx2\",\"threads\":2,", "");
        assert_ne!(old, line);
        let text = [old, serde_json::to_string(&Event::summary(summary_event())).unwrap()].join("\n");
        let record = RunRecord::parse(&text).unwrap();
        record.validate().unwrap();
        let start = record.run_start().unwrap();
        assert_eq!((start.simd_isa.as_str(), start.threads), ("", 0));
    }

    #[test]
    fn wire_format_is_single_key_lowercase_objects() {
        let line = serde_json::to_string(&Event::step(step_event(3))).unwrap();
        assert!(line.starts_with("{\"step\":{"), "got {line}");
        let line = serde_json::to_string(&Event::run_start(start_event())).unwrap();
        assert!(line.starts_with("{\"run_start\":{"), "got {line}");
    }

    #[test]
    fn obs_handles_share_one_recorder() {
        let sink = MemorySink::new();
        let buffer = sink.buffer();
        let obs = Obs::recording(RunRecorder::new(Box::new(sink)));
        let clone = obs.clone();
        obs.count("x", 2);
        clone.count("x", 3);
        assert_eq!(obs.counter("x"), 5);
        clone.emit(&Event::step(step_event(0)));
        assert_eq!(buffer.lock().unwrap().len(), 1);
    }

    #[test]
    fn disabled_obs_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.enabled());
        assert!(obs.span(Phase::Forward).is_none());
        assert!(obs.timer().is_none());
        assert_eq!(Obs::lap_ns(None), 0);
        obs.count("x", 1);
        assert_eq!(obs.counter("x"), 0);
        obs.observe("h", 1.0);
        obs.emit(&Event::step(step_event(0)));
        obs.flush(); // all no-ops; nothing to assert beyond not panicking
    }

    #[test]
    fn validate_rejects_malformed_streams() {
        // Missing run_start.
        let text = serde_json::to_string(&Event::summary(summary_event())).unwrap();
        assert!(RunRecord::parse(&text).unwrap().validate().is_err());

        // Wrong schema id.
        let mut start = start_event();
        start.schema = "other/v0".into();
        let text = [
            serde_json::to_string(&Event::run_start(start)).unwrap(),
            serde_json::to_string(&Event::summary(summary_event())).unwrap(),
        ]
        .join("\n");
        let err = RunRecord::parse(&text).unwrap().validate().unwrap_err();
        assert!(err.contains("schema"), "{err}");

        // Phase sum exceeding total.
        let mut bad = step_event(0);
        bad.total_us = 10;
        let text = [
            serde_json::to_string(&Event::run_start(start_event())).unwrap(),
            serde_json::to_string(&Event::step(bad)).unwrap(),
            serde_json::to_string(&Event::summary(summary_event())).unwrap(),
        ]
        .join("\n");
        let err = RunRecord::parse(&text).unwrap().validate().unwrap_err();
        assert!(err.contains("phase sum"), "{err}");

        // Non-increasing step indices.
        let text = [
            serde_json::to_string(&Event::run_start(start_event())).unwrap(),
            serde_json::to_string(&Event::step(step_event(1))).unwrap(),
            serde_json::to_string(&Event::step(step_event(1))).unwrap(),
            serde_json::to_string(&Event::summary(summary_event())).unwrap(),
        ]
        .join("\n");
        assert!(RunRecord::parse(&text).unwrap().validate().is_err());
    }

    #[test]
    fn json_snapshot_roundtrips_nested_values() {
        #[derive(Serialize)]
        struct Cfg {
            lr: f32,
            steps: u64,
            clip: Option<f32>,
            name: String,
        }
        let j = Json::snapshot(&Cfg {
            lr: 1e-3,
            steps: 20,
            clip: None,
            name: "run".into(),
        })
        .unwrap();
        let s = serde_json::to_string(&j).unwrap();
        let back: Json = serde_json::from_str(&s).unwrap();
        assert_eq!(back.get("steps"), Some(&Content::I64(20)));
        assert_eq!(back.get("name"), Some(&Content::Str("run".into())));
        assert_eq!(back.get("clip"), Some(&Content::Null));
        assert!(back.get("missing").is_none());
    }

    #[test]
    fn nonfinite_metrics_survive_as_nan() {
        let mut ev = step_event(0);
        ev.loss = f32::NAN; // a diverged step — exactly what Figs. 3/6 record
        let line = serde_json::to_string(&Event::step(ev)).unwrap();
        let back: Event = serde_json::from_str(&line).unwrap();
        match back {
            Event::step(s) => assert!(s.loss.is_nan()),
            other => panic!("wrong variant {}", other.kind()),
        }
    }
}
