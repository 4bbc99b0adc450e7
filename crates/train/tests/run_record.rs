//! End-to-end run-record validation: a real 2-rank, 20-step training run
//! recorded through a memory sink must produce a JSONL stream that
//! satisfies the schema in `docs/RUN_RECORD.md` — every event type
//! present, phase timings partitioning step wall time, comm counters
//! matching the analytic ring-allreduce payload — and must replay into
//! the same final `MetricMap` the trainer returned.

use matsciml_datasets::{Compose, DataLoader, DatasetId, Split, SyntheticMaterialsProject};
use matsciml_models::EgnnConfig;
use matsciml_obs::{Event, MemorySink, Obs, RunRecord, RunRecorder};
use matsciml_train::{
    MetricMap, TargetKind, TaskHeadConfig, TaskModel, TrainConfig, Trainer, COMM_ALLREDUCE_BYTES,
    EDGE_BYTES_SAVED, EDGE_FUSED_CALLS,
};

const WORLD: usize = 2;
const PER_RANK: usize = 4;
const STEPS: u64 = 20;

fn recorded_run() -> (RunRecord, matsciml_train::TrainLog, usize) {
    let ds = SyntheticMaterialsProject::new(160, 17);
    let pipeline = Compose::standard(4.5, Some(12));
    let batch = WORLD * PER_RANK;
    let train_dl = DataLoader::new(&ds, Some(&pipeline), Split::Train, 0.2, batch, 17);
    let val_dl = DataLoader::new(&ds, Some(&pipeline), Split::Val, 0.2, batch, 17);
    let mut model = TaskModel::egnn(
        EgnnConfig::small(8),
        &[TaskHeadConfig::regression(DatasetId::MaterialsProject, TargetKind::BandGap, 16, 1)],
        17,
    );
    let grad_bytes = model.params.bucket_layout().bytes();
    let cfg = TrainConfig {
        world_size: WORLD,
        per_rank_batch: PER_RANK,
        steps: STEPS,
        base_lr: 1e-3,
        eval_every: 5,
        eval_batches: 2,
        parallel_ranks: true,
        seed: 17,
        ..Default::default()
    };

    let sink = MemorySink::new();
    let buffer = sink.buffer();
    let obs = Obs::recording(RunRecorder::new(Box::new(sink)));
    let log = Trainer::new(cfg).train_observed(&mut model, &train_dl, Some(&val_dl), &obs);
    obs.flush();

    let text = buffer.lock().unwrap().join("\n");
    let record = RunRecord::parse(&text).expect("run record must parse");
    (record, log, grad_bytes)
}

#[test]
fn two_rank_run_record_validates_and_replays() {
    let (record, log, grad_bytes) = recorded_run();

    // Structural validation per docs/RUN_RECORD.md.
    record.validate().expect("run record must validate");

    // Every event type the trainer can emit is present.
    let start = record.run_start().expect("run_start present");
    assert_eq!(start.schema, matsciml_obs::SCHEMA);
    assert_eq!(start.world_size, WORLD as u64);
    assert_eq!(start.per_rank_batch, PER_RANK as u64);
    assert_eq!(start.steps, STEPS);
    // The lane tier is recorded, and it is the one the kernels used.
    assert_eq!(start.simd_isa, matsciml_tensor::simd_isa());
    assert!(["avx512", "avx2", "sse", "off"].contains(&start.simd_isa.as_str()));
    // The config snapshot embeds the full TrainConfig.
    assert!(start.config.get("gamma").is_some(), "config snapshot carries TrainConfig fields");

    assert_eq!(record.steps().count(), STEPS as usize);
    assert!(record.evals().count() >= 2, "eval_every=5 over 20 steps evaluates repeatedly");
    let summary = record.summary().expect("summary present");
    assert_eq!(summary.steps, STEPS);

    // Step events mirror the TrainLog records exactly.
    assert_eq!(log.records.len(), STEPS as usize);
    for (ev, rec) in record.steps().zip(&log.records) {
        assert_eq!(ev.step, rec.step);
        assert_eq!(ev.epoch, rec.epoch);
        assert_eq!(ev.lr, rec.lr);
        assert_eq!(ev.grad_norm, rec.grad_norm);
        assert_eq!(ev.train, rec.train.0, "step {} train metrics", ev.step);
        // World 2 ring payload: 2·(N−1)/N = 1× the flat gradient bytes.
        assert_eq!(ev.comm_bytes, grad_bytes as u64, "step {} comm volume", ev.step);
    }

    // The acceptance bound: phase timings sum to within 10% of the total
    // step wall time (aggregated over the run — per-step noise on a busy
    // machine is real; systematic unattributed time is the bug this
    // catches).
    let total: u64 = record.steps().map(|s| s.total_us).sum();
    let attributed: u64 = record.steps().map(|s| s.phase_sum_us()).sum();
    assert!(total > 0, "steps took measurable time");
    assert!(attributed <= total + STEPS * 1_000, "phases cannot exceed wall time");
    assert!(
        attributed as f64 >= 0.9 * total as f64,
        "phase split attributes only {attributed}µs of {total}µs (<90%)"
    );

    // Comm counters in the summary equal per-step volume × steps.
    assert_eq!(
        summary.counters[COMM_ALLREDUCE_BYTES],
        STEPS * grad_bytes as u64
    );
    assert_eq!(
        summary.counters["data/samples_loaded"],
        STEPS * (WORLD * PER_RANK) as u64
    );
    // The encoder's edge stages ran on the fused kernels, which count
    // their calls and the intermediate bytes they avoided.
    assert!(
        summary.counters[EDGE_FUSED_CALLS] > 0 && summary.counters[EDGE_BYTES_SAVED] > 0,
        "an observed run must count fused edge calls and saved bytes"
    );

    // Phase quantiles were aggregated for every step phase.
    for key in ["phase/data_us", "phase/forward_us", "phase/backward_us", "phase/allreduce_us", "phase/optimizer_us", "phase/step_us"] {
        let q = summary
            .phases
            .get(key)
            .unwrap_or_else(|| panic!("summary missing histogram {key}"));
        assert_eq!(q.count, STEPS, "{key} observed once per step");
    }

    // Replay: the record's final eval metrics reconstruct the exact
    // MetricMap the trainer returned.
    let replayed = MetricMap(record.final_eval_metrics().expect("eval events present").clone());
    assert_eq!(&replayed, log.final_val().expect("trainer evaluated"));
    assert_eq!(MetricMap(summary.final_val.clone()), replayed);

    // Summary run facts agree with the log.
    assert_eq!(summary.stopped_early, log.stopped_early);
    assert_eq!(summary.skipped_updates, log.skipped_updates);
    assert_eq!(summary.spike_steps, log.spike_steps);
}

#[test]
fn event_stream_ordering_is_run_start_steps_summary() {
    let (record, _, _) = recorded_run();
    assert!(matches!(record.events.first(), Some(Event::run_start(_))));
    assert!(matches!(record.events.last(), Some(Event::summary(_))));
    // Each eval immediately follows its step event.
    for (i, e) in record.events.iter().enumerate() {
        if let Event::eval(v) = e {
            match &record.events[i - 1] {
                Event::step(s) => assert_eq!(s.step, v.step, "eval follows its own step"),
                other => panic!(
                    "eval at step {} preceded by {:?} event",
                    v.step,
                    other.kind()
                ),
            }
        }
    }
}
