//! Seeded inputs: the four Table-1 datasets with their item ids
//! permuted by the benchmark seed. The score multiset is the paper's
//! calibration; only which item carries which score depends on the
//! seed, so the program never sees ids in rank order.

use dp_data::{DatasetSpec, ScoreVector};
use dp_mechanisms::{counter_seed, DpRng};

/// Metric slug of a Table-1 dataset.
pub fn slug(spec: &DatasetSpec) -> &'static str {
    match spec.name {
        "BMS-POS" => "bms_pos",
        "Kosarak" => "kosarak",
        "AOL" => "aol",
        "Zipf" => "zipf",
        other => panic!("no slug for dataset {other}"),
    }
}

/// The dataset's supports, Fisher–Yates-permuted by `seed`.
pub fn generate(spec: &DatasetSpec, seed: u64) -> ScoreVector {
    let mut supports = spec.supports();
    let mut rng = DpRng::seed_from_u64(counter_seed(seed, spec.n_items as u64));
    rng.shuffle(&mut supports);
    ScoreVector::from_supports(&supports).expect("generators produce nonempty finite supports")
}
