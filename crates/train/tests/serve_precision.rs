//! A server's precision is its model's: starting, running and shutting
//! down a reduced-precision `InferenceServer` leaves every other forward
//! in the process — a plain `TaskModel::predict`, or an f32 server next
//! to it — on the exact f32 kernels, bit for bit.

use matsciml_datasets::{Compose, Dataset, DatasetId, Sample, SyntheticMaterialsProject, Transform};
use matsciml_models::EgnnConfig;
use matsciml_nn::ParamId;
use matsciml_obs::Obs;
use matsciml_tensor::{max_rel_error, Precision};
use matsciml_train::{InferenceServer, ServeConfig, TargetKind, TaskHeadConfig, TaskModel};

const CUTOFF: f32 = 4.5;
const MAXN: Option<usize> = Some(12);
const N: usize = 8;

/// A model whose predictions are visibly nonzero: fresh heads are
/// zero-initialized, so every tensor gets deterministic weight surgery.
fn perturbed() -> TaskModel {
    let mut m = TaskModel::egnn(
        EgnnConfig::small(16),
        &[TaskHeadConfig::regression(DatasetId::MaterialsProject, TargetKind::BandGap, 32, 1)],
        7,
    );
    for i in 0..m.params.len() {
        for (j, v) in m.params.value_mut(ParamId(i)).as_mut_slice().iter_mut().enumerate() {
            *v += ((i * 31 + j * 7) % 13) as f32 * 0.01 - 0.06;
        }
    }
    m
}

fn raw_samples() -> Vec<Sample> {
    let ds = SyntheticMaterialsProject::new(N, 11);
    (0..N).map(|i| ds.sample(i)).collect()
}

fn server(precision: Precision) -> InferenceServer {
    InferenceServer::start(
        perturbed(),
        Compose::standard(CUTOFF, MAXN),
        None,
        ServeConfig { workers: 1, precision, ..Default::default() },
        Obs::disabled(),
    )
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn f32_predict_is_unchanged_by_an_f16_server_lifetime() {
    let pipeline = Compose::standard(CUTOFF, MAXN);
    let wired: Vec<Sample> = raw_samples().into_iter().map(|s| pipeline.apply(s)).collect();
    let model = perturbed();
    let before = model.predict(&wired, 0);

    let f16 = server(Precision::F16);
    let served = f16.predict_samples(raw_samples()).unwrap();
    let served: Vec<f32> = served.into_iter().flatten().collect();
    let err = max_rel_error(before.as_slice(), &served);
    assert!(err <= 1e-2, "f16 serving drifted {err:.3e} from f32");
    f16.shutdown();
    drop(f16);

    let after = model.predict(&wired, 0);
    assert_eq!(
        bits(after.as_slice()),
        bits(before.as_slice()),
        "an f32 predict after an f16 server changed bits"
    );
}

#[test]
fn f32_and_f16_servers_share_a_process() {
    let pipeline = Compose::standard(CUTOFF, MAXN);
    let singles: Vec<Vec<u32>> = raw_samples()
        .into_iter()
        .map(|s| bits(perturbed().predict(&[pipeline.apply(s)], 0).as_slice()))
        .collect();

    // The f32 server starts first; the f16 one must not change its tier.
    let exact = server(Precision::F32);
    let half = server(Precision::F16);
    for round in 0..3 {
        for (i, sample) in raw_samples().into_iter().enumerate() {
            let h = half.predict_samples(vec![sample.clone()]).unwrap();
            let e = exact.predict_samples(vec![sample]).unwrap();
            assert_eq!(bits(&e[0]), singles[i], "round {round}, structure {i}: f32 server ≠ predict");
            let err = max_rel_error(&e[0], &h[0]);
            assert!(err <= 1e-2, "round {round}, structure {i}: f16 drifted {err:.3e}");
        }
    }
}
