//! Layer probes for the traced run: each layer's public function timed
//! from outside at fixed shapes (rates), and at a traced cell's own
//! shapes (modelled children of a driver span).

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use dp_data::{GroupedSnapshot, LiveScores};
use dp_mechanisms::fastmath::ln_into;
use dp_mechanisms::wal::replay_file;
use dp_mechanisms::{
    counter_seed, BatchSample, BudgetLedger, DpRng, Exponential, FsyncPolicy, Gumbel, GumbelMax,
    Laplace, LedgerWal, NoiseBuffer, NoiseKernel,
};
use svt_core::streaming::SparseOrder;
use svt_experiments::runner::PreparedDataset;

use crate::report::Metrics;
use crate::stats::{median, percentile};

/// Median wall-clock in ns of `reps` calls of `f`.
fn time_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        times.push(t0.elapsed().as_nanos() as f64);
    }
    median(&times)
}

/// Layer costs modelled at one driver span's shapes (ns per run).
#[derive(Debug, Clone, Copy, Default)]
pub struct ShapeCost {
    /// Examination order: lazy steps or the eager shuffle.
    pub order_ns: f64,
    /// Query-noise fill for every observed item.
    pub noise_ns: f64,
    /// Score reads at the examined positions.
    pub gather_ns: f64,
    /// Grouped Gumbel key peeling (EM).
    pub em_ns: f64,
    /// Items the driver observed (denominator of its self time).
    pub items: f64,
}

impl ShapeCost {
    /// Sum of the modelled children.
    pub fn total(&self) -> f64 {
        self.order_ns + self.noise_ns + self.gather_ns + self.em_ns
    }
}

/// Longest fill timed directly; longer shapes scale linearly from it.
const SHAPE_CAP: usize = 1 << 20;

fn lazy_order_ns(n: usize, steps: usize, rng: &mut DpRng) -> f64 {
    let steps = steps.clamp(1, n);
    let mut order = SparseOrder::new();
    let mut block = vec![0u32; 64];
    time_ns(3, || {
        order.reset(n);
        let mut left = steps;
        while left > 0 {
            let m = left.min(block.len());
            order.step_block(rng, &mut block[..m]);
            left -= m;
        }
        black_box(&block);
    })
}

fn fill_ns<D: BatchSample>(dist: &D, count: usize, rng: &mut DpRng) -> f64 {
    let m = count.clamp(1, SHAPE_CAP);
    let mut buf = vec![0.0; m];
    let t = time_ns(3, || {
        dist.sample_into_kernel(rng, &mut buf, NoiseKernel::Vectorized);
        black_box(&buf);
    });
    t * count.max(1) as f64 / m as f64
}

fn gather_ns(scores: &[f64], count: usize, rng: &mut DpRng) -> f64 {
    let m = count.clamp(1, SHAPE_CAP);
    let idx: Vec<u32> = (0..m).map(|_| rng.index(scores.len()) as u32).collect();
    let t = time_ns(3, || {
        let s: f64 = idx.iter().map(|&i| scores[i as usize]).sum();
        black_box(s);
    });
    t * count.max(1) as f64 / m as f64
}

fn gumbel_keys_ns(keys: usize, rng: &mut DpRng) -> f64 {
    time_ns(3, || {
        let mut gm = GumbelMax::new(Gumbel::standard(), 1 << 40).expect("m > 0");
        for _ in 0..keys {
            black_box(gm.next_key_with(rng, NoiseKernel::Vectorized));
        }
    })
}

/// The layer functions a driver calls, re-timed at a traced AOL
/// cell's mean shape. The drivers do not expose their internals, so
/// these are modelled children: ReTr's observed count is taken as
/// `examined × passes`, SVT-RV's as the whole list, EM's key count as
/// `groups + c`.
pub fn shape_cost(
    alg: &str,
    c: usize,
    examined: f64,
    passes: f64,
    aol: &PreparedDataset,
    seed: u64,
) -> ShapeCost {
    let scores = aol.scores().as_slice();
    let n = scores.len();
    let mut rng = DpRng::seed_from_u64(counter_seed(seed, 0x5ba9e));
    let examined = examined.round() as usize;
    let laplace = Laplace::new(1.0).expect("positive scale");
    match alg {
        "em" => {
            let keys = aol.sweep_context().groups().num_groups() + c;
            ShapeCost {
                em_ns: gumbel_keys_ns(keys, &mut rng),
                items: keys as f64,
                ..ShapeCost::default()
            }
        }
        "rv" => {
            let mut order = SparseOrder::new();
            ShapeCost {
                order_ns: time_ns(3, || order.reset_eager(n, &mut rng)),
                noise_ns: fill_ns(&laplace, n, &mut rng),
                gather_ns: gather_ns(scores, n, &mut rng),
                em_ns: 0.0,
                items: n as f64,
            }
        }
        _ => {
            let observed = (examined as f64 * passes.max(1.0)).round() as usize;
            let noise_ns = if alg == "exp" {
                fill_ns(
                    &Exponential::new(1.0).expect("positive scale"),
                    observed,
                    &mut rng,
                )
            } else {
                fill_ns(&laplace, observed, &mut rng)
            };
            ShapeCost {
                order_ns: lazy_order_ns(n, examined, &mut rng),
                noise_ns,
                gather_ns: gather_ns(scores, observed, &mut rng),
                em_ns: 0.0,
                items: observed as f64,
            }
        }
    }
}

const PROBE_LEN: usize = 1 << 16;
const PROBE_REPS: usize = 16;

fn per_value(total_ns: f64, values: usize) -> f64 {
    total_ns / values as f64
}

/// Fixed-shape rates of the RNG, noise, ln, order and score layers,
/// measured on the AOL dataset where a shape needs data.
pub fn probe_rates(aol: &PreparedDataset, seed: u64, metrics: &mut Metrics) {
    let mut rng = DpRng::seed_from_u64(counter_seed(seed, 0x1a7e5));
    let mut words = vec![0u64; PROBE_LEN];
    let t = time_ns(PROBE_REPS, || {
        rng.fill_u64s(&mut words);
        black_box(&words);
    });
    metrics.set("rng.bulk_ns_per_word", per_value(t, PROBE_LEN), "ns");
    let t = time_ns(PROBE_REPS, || {
        let mut acc = 0u64;
        for _ in 0..PROBE_LEN {
            acc ^= rng.next_u64();
        }
        black_box(acc);
    });
    metrics.set("rng.next_u64_ns", per_value(t, PROBE_LEN), "ns");
    let n = aol.scores().len();
    let t = time_ns(PROBE_REPS, || {
        let mut acc = 0usize;
        for i in 0..PROBE_LEN {
            acc ^= rng.index(n - i);
        }
        black_box(acc);
    });
    metrics.set("rng.index_ns", per_value(t, PROBE_LEN), "ns");

    let mut buf = vec![0.0; PROBE_LEN];
    let laplace = Laplace::new(10.0).expect("positive scale");
    let exp = Exponential::new(10.0).expect("positive scale");
    for (kernel, kname) in [
        (NoiseKernel::Reference, "reference"),
        (NoiseKernel::Vectorized, "vectorized"),
    ] {
        let t = time_ns(PROBE_REPS, || {
            laplace.sample_into_kernel(&mut rng, &mut buf, kernel);
            black_box(&buf);
        });
        metrics.set(
            format!("noise.laplace_ns_per_value.{kname}"),
            per_value(t, PROBE_LEN),
            "ns",
        );
        let t = time_ns(PROBE_REPS, || {
            exp.sample_into_kernel(&mut rng, &mut buf, kernel);
            black_box(&buf);
        });
        metrics.set(
            format!("noise.exp_ns_per_value.{kname}"),
            per_value(t, PROBE_LEN),
            "ns",
        );
        let t = time_ns(PROBE_REPS, || {
            let mut gm = GumbelMax::new(Gumbel::standard(), 1 << 40).expect("m > 0");
            for _ in 0..PROBE_LEN {
                black_box(gm.next_key_with(&mut rng, kernel));
            }
        });
        metrics.set(
            format!("noise.gumbelmax_ns_per_value.{kname}"),
            per_value(t, PROBE_LEN),
            "ns",
        );
    }
    let mut nb = NoiseBuffer::new();
    let t = time_ns(PROBE_REPS, || {
        let mut acc = 0.0;
        for _ in 0..PROBE_LEN {
            acc += nb.next(&laplace, &mut rng);
        }
        black_box(acc);
    });
    metrics.set("noise.buffer_next_ns", per_value(t, PROBE_LEN), "ns");
    rng.fill_open_uniform(&mut buf);
    let mut out = vec![0.0; PROBE_LEN];
    let t = time_ns(PROBE_REPS, || {
        ln_into(&buf, &mut out);
        black_box(&out);
    });
    metrics.set("fastmath.ln_ns_per_value", per_value(t, PROBE_LEN), "ns");

    let steps = n / 16;
    metrics.set(
        "order.lazy_ns_per_step",
        lazy_order_ns(n, steps, &mut rng) / steps as f64,
        "ns",
    );
    let mut order = SparseOrder::new();
    let t = time_ns(3, || order.reset_eager(n, &mut rng));
    metrics.set("order.eager_ns_per_item", per_value(t, n), "ns");

    let scores = aol.scores().as_slice();
    let t = time_ns(5, || {
        black_box(scores.iter().sum::<f64>());
    });
    metrics.set("scores.seq_read_ns_per_item", per_value(t, n), "ns");
    let idx: Vec<u32> = (0..SHAPE_CAP).map(|_| rng.index(n) as u32).collect();
    let t = time_ns(5, || {
        black_box(idx.iter().map(|&i| scores[i as usize]).sum::<f64>());
    });
    metrics.set("scores.gather_ns_per_item", per_value(t, SHAPE_CAP), "ns");
    let groups: &GroupedSnapshot = aol.sweep_context().groups();
    let t = time_ns(5, || {
        black_box(
            idx.iter()
                .map(|&i| groups.score_of_item(i as usize))
                .sum::<f64>(),
        );
    });
    metrics.set("groups.resolve_ns_per_item", per_value(t, SHAPE_CAP), "ns");
}

/// `LiveScores` incremental updates and snapshot publication on the
/// AOL and Kosarak datasets.
pub fn probe_live(aol: &[f64], kosarak: &[f64], seed: u64, metrics: &mut Metrics) {
    let mut rng = DpRng::seed_from_u64(counter_seed(seed, 0x11fe));
    for (name, scores, updates) in [("aol", aol, 2000), ("kosarak", kosarak, 2000)] {
        let mut live = LiveScores::from_scores(scores).expect("finite scores");
        let mut times = Vec::with_capacity(updates);
        for _ in 0..updates {
            let item = rng.index(scores.len());
            let t0 = Instant::now();
            live.increment(item, 1.0).expect("in range");
            times.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
        metrics.set(format!("live.update_us.{name}"), median(&times), "us");
        if name == "aol" {
            let mut snaps = Vec::new();
            for _ in 0..7 {
                live.increment(rng.index(scores.len()), 1.0)
                    .expect("in range");
                let t0 = Instant::now();
                black_box(live.snapshot());
                snaps.push(t0.elapsed().as_nanos() as f64 / 1e3);
            }
            metrics.set("live.snapshot_us.aol", median(&snaps), "us");
        }
    }
}

/// Charges appended through a file-backed `FsyncPolicy::Always` WAL,
/// replay of that log, and a ledger chain audit of the same length.
pub fn probe_wal(dir: &Path, metrics: &mut Metrics) -> Result<(), String> {
    const CHARGES: usize = 1000;
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join("probe.log");
    let _ = std::fs::remove_file(&path);
    let mut wal = LedgerWal::open(&path, FsyncPolicy::Always).map_err(|e| e.to_string())?;
    let mut ledger = BudgetLedger::new(7, 1e9).map_err(|e| e.to_string())?;
    wal.append_tenant(7, 1e9).map_err(|e| e.to_string())?;
    let mut times = Vec::with_capacity(CHARGES);
    for s in 0..CHARGES as u64 {
        let receipt = ledger
            .prepare_charge(s, "probe", 0.5)
            .map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        wal.append_charge(&receipt).map_err(|e| e.to_string())?;
        times.push(t0.elapsed().as_nanos() as f64 / 1e3);
        ledger.apply_prepared(receipt).map_err(|e| e.to_string())?;
    }
    drop(wal);
    metrics.set("wal.append_sync_us.p50", median(&times), "us");
    metrics.set(
        "wal.append_sync_us.p99",
        percentile(&times, 0.99).ok_or("too few WAL appends for p99")?,
        "us",
    );
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    metrics.set(
        "wal.bytes_per_open",
        bytes as f64 / (CHARGES + 1) as f64,
        "B",
    );
    let mut replay_err = None;
    let t = time_ns(5, || match replay_file(&path) {
        Ok(r) if r.records == CHARGES + 1 => {}
        Ok(r) => replay_err = Some(format!("replayed {} records", r.records)),
        Err(e) => replay_err = Some(e.to_string()),
    });
    if let Some(e) = replay_err {
        return Err(e);
    }
    metrics.set("wal.replay_ms", t / 1e6, "ms");
    let mut verify_err = None;
    let t = time_ns(5, || {
        if let Err(e) = ledger.verify_chain() {
            verify_err = Some(e.to_string());
        }
    });
    if let Some(e) = verify_err {
        return Err(e);
    }
    metrics.set("ledger.verify_chain_us", t / 1e3, "us");
    std::fs::remove_file(&path).map_err(|e| e.to_string())
}
