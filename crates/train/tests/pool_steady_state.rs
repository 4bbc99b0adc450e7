//! Steady-state allocation acceptance: after warmup, training steps on
//! a fixed batch — `ddp_step` followed by the optimizer sweep, as the
//! trainer runs them — must allocate **zero** new tensor buffers: every
//! take is a pool hit. Lives in its own test binary (one test, nothing
//! parallel) because the pool counters are process-global.

use matsciml_datasets::{
    DataLoader, Dataset, DatasetId, GraphTransform, Sample, Split, SyntheticMaterialsProject,
    Transform,
};
use matsciml_models::EgnnConfig;
use matsciml_obs::Obs;
use matsciml_opt::{AdamW, AdamWConfig, InstabilityProbe};
use matsciml_train::ddp::{ddp_step, DdpConfig, DdpTapes, StepInput};
use matsciml_train::{collate_ranks, Batch, TargetKind, TaskHeadConfig, TaskModel};
use matsciml_tensor::pool_stats;

#[test]
fn steady_state_steps_are_all_pool_hits() {
    // The last arm collates on a read-ahead worker thread, as the
    // trainer's worker-side collation does, so the batches are built on
    // one thread and consumed (and dropped) on others.
    for (world_size, per_rank_batch, overlap, readahead) in
        [(2, 4, false, false), (4, 2, true, false), (4, 2, true, true)]
    {
        let mut model = TaskModel::egnn(
            EgnnConfig::small(8),
            &[TaskHeadConfig::regression(DatasetId::MaterialsProject, TargetKind::BandGap, 16, 1)],
            17,
        );
        let ds = SyntheticMaterialsProject::new(16, 17);
        let t = GraphTransform::radius(4.5, Some(12));
        let samples: Vec<_> = (0..8).map(|i| t.apply(ds.sample(i))).collect();
        let cfg = DdpConfig { world_size, per_rank_batch, parallel: true, seed: 17, overlap };
        let obs = Obs::disabled();
        let mut tapes = DdpTapes::new();
        let mut opt = AdamW::new(&model.params, AdamWConfig::default());
        let mut probe = InstabilityProbe::new(16, 3.0);
        let loader = DataLoader::new(&ds, Some(&t), Split::Train, 0.0, 8, 17);
        let batch_idx: Vec<usize> = (0..8).collect();
        let stage = |s: Vec<Sample>| -> Vec<Batch> { collate_ranks(&s, per_rank_batch) };

        std::thread::scope(|scope| {
            let mut ra = readahead.then(|| loader.spawn_readahead_with(scope, 1, 2, &stage));
            let mut train_step = |step: u64| {
                let batches = ra.as_mut().map(|ra| {
                    ra.request(&batch_idx);
                    ra.take_observed(&loader, &batch_idx, &obs)
                });
                let input = match &batches {
                    Some(b) => StepInput::Collated(b),
                    None => StepInput::Samples(&samples),
                };
                let metrics = ddp_step(&mut model, input, &cfg, step, &obs, &mut tapes);
                let loss = metrics.get("loss").unwrap();
                opt.step_observed(&mut model.params, &mut probe, loss, None, false);
            };

            // Warmup: the first steps populate the pool (misses are
            // expected here) and the loop reaches its steady buffer
            // census.
            for step in 0..3 {
                train_step(step);
            }
            let before = pool_stats();
            for step in 3..13 {
                train_step(step);
            }
            let delta = pool_stats().since(&before);

            let tag = format!("world {world_size}, overlap {overlap}, read-ahead {readahead}");
            assert!(delta.hits > 0, "{tag}: steady-state steps must draw from the pool");
            assert_eq!(
                delta.misses, 0,
                "{tag}: steady-state steps allocated {} fresh buffers ({} bytes) — the pool \
                 must serve all of them",
                delta.misses, delta.bytes_fresh
            );
            assert_eq!(delta.hit_rate(), 1.0, "{tag}");
        });
    }
}
