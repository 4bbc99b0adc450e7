//! Resident gradient memory of a large-world DDP step.
//!
//! This lives in its own integration-test binary on purpose: the bucket
//! live/peak byte counters are process-global, and the unit tests in the
//! library binary run on concurrent threads that would inflate the peak.

use matsciml_datasets::{
    Dataset, DatasetId, GraphTransform, Sample, SyntheticMaterialsProject, Transform,
};
use matsciml_models::EgnnConfig;
use matsciml_nn::bucket::{bucket_bytes_live, bucket_bytes_peak, reset_bucket_peak, MAX_REDUCE_SLOTS};
use matsciml_obs::Obs;
use matsciml_train::ddp::{ddp_step, DdpConfig, DdpTapes, StepInput};
use matsciml_train::{TargetKind, TaskHeadConfig, TaskModel};

/// A world-512 step must keep `reduce_slots(512) = MAX_REDUCE_SLOTS`
/// gradient buffers resident — O(threads × param-bytes), independent of the
/// world size — instead of 512 per-rank gradient sets.
#[test]
fn world_512_step_keeps_constant_gradient_memory() {
    let world = 512usize;
    let mut model = TaskModel::egnn(
        EgnnConfig::small(8),
        &[TaskHeadConfig {
            dropout: 0.0,
            ..TaskHeadConfig::regression(DatasetId::MaterialsProject, TargetKind::BandGap, 16, 1)
        }],
        1,
    );
    let ds = SyntheticMaterialsProject::new(world, 3);
    let t = GraphTransform::radius(4.0, Some(12));
    let samples: Vec<Sample> = (0..world).map(|i| t.apply(ds.sample(i))).collect();

    let cfg = DdpConfig {
        world_size: world,
        per_rank_batch: 1,
        parallel: true,
        seed: 3,
        overlap: false,
    };

    let bucket_bytes = model.params.bucket_layout().bytes();
    assert!(bucket_bytes > 0);

    reset_bucket_peak();
    let metrics = ddp_step(
        &mut model,
        StepInput::Samples(&samples),
        &cfg,
        0,
        &Obs::disabled(),
        &mut DdpTapes::new(),
    );
    assert!(metrics.get("loss").unwrap().is_finite());

    // The accounting counts every slot's buffer, the store's arena
    // included, so the peak is exactly the slot bound.
    let peak = bucket_bytes_peak();
    assert_eq!(
        peak,
        MAX_REDUCE_SLOTS * bucket_bytes,
        "world-{world} step peaked at {peak} resident gradient bytes, not \
         {MAX_REDUCE_SLOTS} slots × {bucket_bytes} bucket bytes; a buffer is \
         uncounted or virtual ranks are not streaming"
    );
    // And well under what the collect-then-reduce scheme would have held.
    assert!(
        peak < world * bucket_bytes / 4,
        "peak {peak} is within 4x of the O(world) collect-all footprint"
    );
    // Everything is released once the step returns.
    assert_eq!(bucket_bytes_live(), 0, "buckets leaked past the step");
}
