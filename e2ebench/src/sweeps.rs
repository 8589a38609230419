//! The three sweep workloads: the figure-5 non-interactive line-up, the
//! figure-4 streaming line-up plus SVT-Exp, and SVT-RV's whole-list
//! runs. Untimed passes go through the public runner
//! (`svt_experiments::runner::run_sweep`) at one worker thread; the
//! traced pass calls the `svt_core` drivers run by run so it can time
//! them and read their shapes, and checks that every traced cell equals
//! the runner's.

use std::time::Instant;

use dp_data::{DatasetSpec, GroupedSnapshot};
use dp_mechanisms::{counter_seed, DpRng};
use svt_core::alg::Alg2;
use svt_core::allocation::BudgetRatio;
use svt_core::em_select::EmTopC;
use svt_core::noninteractive::SvtSelectConfig;
use svt_core::retraversal::{svt_retraversal_into, IncrementUnit, RetraversalConfig};
use svt_core::streaming::{
    exp_noise_select_from, revisited_select_from, select_streaming, svt_select_into, RunScratch,
};
use svt_experiments::metrics::MeanStd;
use svt_experiments::runner::{run_cell, run_sweep, CellResult, PreparedDataset};
use svt_experiments::simulate::exact::ExactContext;
use svt_experiments::simulate::RunOutcome;
use svt_experiments::spec::{AlgorithmSpec, ExperimentConfig, SimulationMode};

use crate::checks::{check_cell, check_digests, check_run, check_same_cell, digest, Checks};
use crate::data;
use crate::layers::{self, ShapeCost};
use crate::report::Metrics;
use crate::stats::{another_pass, median, parallel_efficiency};
use crate::trace::Tracer;

/// The paper's privacy budget per selection task.
pub const EPSILON: f64 = 0.1;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Workers in the parallel-efficiency pass: the two vCPUs the benchmark
/// is sized for.
const PARALLEL_THREADS: usize = 2;

/// One sweep workload: a line-up over datasets and a cutoff grid.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Workload name.
    pub name: &'static str,
    /// Short form used in per-cell metric names.
    pub short: &'static str,
    /// `(slug, algorithm)` in line-up order.
    pub lineup: Vec<(&'static str, AlgorithmSpec)>,
    /// Datasets swept.
    pub datasets: Vec<DatasetSpec>,
    /// Cutoff grid.
    pub c_values: Vec<usize>,
    /// Runs per cell.
    pub runs: usize,
    /// The Exact ≡ Grouped cross-check cell: line-up index, dataset
    /// index, cutoff.
    pub check_cell: (usize, usize, usize),
}

const C23: BudgetRatio = BudgetRatio::OneToCTwoThirds;

/// Figure 5: SVT-S-1:c^(2/3), SVT-ReTr-1D…5D and EM.
pub fn fig5_nonint() -> Sweep {
    let retr = |k: f64| AlgorithmSpec::Retraversal {
        ratio: C23,
        increment_d: k,
    };
    Sweep {
        name: "fig5_nonint",
        short: "fig5",
        lineup: vec![
            ("s_1toc23", AlgorithmSpec::Standard { ratio: C23 }),
            ("retr_1d", retr(1.0)),
            ("retr_2d", retr(2.0)),
            ("retr_3d", retr(3.0)),
            ("retr_4d", retr(4.0)),
            ("retr_5d", retr(5.0)),
            ("em", AlgorithmSpec::Em),
        ],
        datasets: DatasetSpec::all(),
        c_values: vec![25, 100, 300],
        runs: 2,
        check_cell: (3, 1, 100),
    }
}

/// Figure 4: SVT-DPBook, SVT-S at 1:1, 1:3, 1:c, 1:c^(2/3), plus
/// SVT-Exp-1:c^(2/3), over the paper's full cutoff grid.
pub fn fig4_stream() -> Sweep {
    let s = |ratio| AlgorithmSpec::Standard { ratio };
    Sweep {
        name: "fig4_stream",
        short: "fig4",
        lineup: vec![
            ("dpbook", AlgorithmSpec::DpBook),
            ("s_1to1", s(BudgetRatio::OneToOne)),
            ("s_1to3", s(BudgetRatio::OneToThree)),
            ("s_1toc", s(BudgetRatio::OneToC)),
            ("s_1toc23", s(C23)),
            ("exp", AlgorithmSpec::ExpNoise { ratio: C23 }),
        ],
        datasets: DatasetSpec::all(),
        c_values: (1..=12).map(|i| i * 25).collect(),
        runs: 20,
        check_cell: (0, 0, 50),
    }
}

/// SVT-RV-1:c^(2/3) on Kosarak (fits in L2) and AOL (does not).
pub fn rv_whole() -> Sweep {
    Sweep {
        name: "rv_whole",
        short: "rv",
        lineup: vec![("rv", AlgorithmSpec::Revisited { ratio: C23 })],
        datasets: vec![DatasetSpec::kosarak(), DatasetSpec::aol()],
        c_values: vec![25, 100, 300],
        runs: 6,
        check_cell: (0, 0, 25),
    }
}

/// All sweep workloads.
pub fn all() -> Vec<Sweep> {
    vec![fig5_nonint(), fig4_stream(), rv_whole()]
}

/// Prepared inputs of one sweep.
pub struct Setup {
    /// `(slug, dataset)` in the sweep's dataset order.
    pub datasets: Vec<(&'static str, PreparedDataset)>,
    /// Wall-clock of generating the inputs.
    pub generate_s: f64,
    /// Wall-clock of building every `SweepContext` (the one sort).
    pub build_s: f64,
}

/// Generates the sweep's datasets from `seed` and builds their contexts.
pub fn setup(sweep: &Sweep, seed: u64) -> Setup {
    let t0 = Instant::now();
    let scores: Vec<_> = sweep
        .datasets
        .iter()
        .map(|d| data::generate(d, seed))
        .collect();
    let generate_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let datasets: Vec<_> = sweep
        .datasets
        .iter()
        .zip(scores)
        .map(|(spec, s)| {
            let prepared = PreparedDataset::new(spec.name, s);
            prepared.sweep_context();
            (data::slug(spec), prepared)
        })
        .collect();
    Setup {
        datasets,
        generate_s,
        build_s: t1.elapsed().as_secs_f64(),
    }
}

/// Sets up [`SETUP_REPS`] times; returns the last set-up and the median
/// set-up time.
pub fn timed_setup(sweep: &Sweep, seed: u64) -> (Setup, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let s = setup(sweep, seed);
        times.push(s.generate_s + s.build_s);
        last = Some(s);
    }
    (last.expect("at least one set-up"), median(&times))
}

fn config(sweep: &Sweep, seed: u64, threads: usize) -> ExperimentConfig {
    ExperimentConfig {
        epsilon: EPSILON,
        runs: sweep.runs,
        c_values: sweep.c_values.clone(),
        seed: counter_seed(seed, 0x5eed),
        threads,
        mode: SimulationMode::Auto,
    }
}

/// One untraced pass of the whole grid through the runner; returns its
/// wall-clock and the cell results in dataset-major order.
pub fn pass(sweep: &Sweep, setup: &Setup, seed: u64, threads: usize) -> (f64, Vec<CellResult>) {
    let cfg = config(sweep, seed, threads);
    let algs: Vec<AlgorithmSpec> = sweep.lineup.iter().map(|&(_, a)| a).collect();
    let t0 = Instant::now();
    let mut cells = Vec::new();
    for (_, ds) in &setup.datasets {
        cells.extend(run_sweep(ds, &algs, &cfg).expect("sweep configurations are valid"));
    }
    (t0.elapsed().as_secs_f64(), cells)
}

/// The untraced measurement: set-up, then whole-grid passes for
/// `seconds` (at least three), then the output checks. The first two
/// passes repeat one seed, for the determinism check; every later pass
/// draws its runs from a seed of its own, so `sweep_s`, the mean pass
/// over distinct draws, averages over the randomness of the runs' work
/// (ReTr's pass count) instead of resting on one draw of it. The mean,
/// not the median: that work is a skewed mixture, and its expected
/// cost is what a full reproduction pays.
pub fn measure(sweep: &Sweep, seed: u64, seconds: f64, checks: &mut Checks, metrics: &mut Metrics) {
    let (setup, setup_s) = timed_setup(sweep, seed);
    let t0 = Instant::now();
    let mut times = Vec::new();
    let mut digests = Vec::new();
    let mut first_cells = None;
    let mut rss = crate::PeakRss::default();
    while another_pass(&times, 3, t0.elapsed().as_secs_f64(), seconds) {
        let pass_seed = counter_seed(seed, times.len().saturating_sub(1) as u64);
        rss.start_pass();
        let (t, cells) = pass(sweep, &setup, pass_seed, 1);
        rss.end_pass();
        times.push(t);
        if digests.len() < 2 {
            digests.push(digest(&cells));
        }
        first_cells.get_or_insert(cells);
    }
    checks.record(
        "same-seed repetition digest",
        check_digests(digests[0], digests[1]),
    );
    // The repetition pass re-measures pass 0's draw; leave it out so
    // every draw counts once.
    let distinct: Vec<f64> = times
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != 1)
        .map(|(_, &t)| t)
        .collect();
    rss.record(checks, metrics);
    output_checks(
        sweep,
        &setup,
        counter_seed(seed, 0),
        &first_cells.expect("passes ran"),
        checks,
    );
    eprintln!("{}: {} passes {:?}", sweep.name, times.len(), times);
    metrics.set("setup_s", setup_s, "s");
    metrics.set(
        "sweep_s",
        distinct.iter().sum::<f64>() / distinct.len() as f64,
        "s",
    );
}

/// Per-cell bounds, one sampled run per cell for the selection bound,
/// and the designated Exact ≡ Grouped cell.
fn output_checks(
    sweep: &Sweep,
    setup: &Setup,
    seed: u64,
    cells: &[CellResult],
    checks: &mut Checks,
) {
    for cell in cells {
        checks.record(
            &format!("{} c={}", cell.algorithm, cell.c),
            check_cell(cell),
        );
    }
    let mut scratch = RunScratch::new();
    for (d, (_, ds)) in setup.datasets.iter().enumerate() {
        for &c in &sweep.c_values {
            let ctx = ExactContext::new(ds.scores(), ds.sweep_context(), c);
            for (a, (slug, alg)) in sweep.lineup.iter().enumerate() {
                let mut rng =
                    DpRng::seed_from_u64(counter_seed(seed, (d * 1000 + a) as u64 + c as u64));
                let outcome = ctx
                    .run_once_into(alg, EPSILON, &mut rng, &mut scratch)
                    .expect("valid configuration");
                checks.record(
                    &format!("{slug} on {} c={c}", ds.name),
                    check_run(scratch.selected().len(), c, outcome),
                );
            }
        }
    }
    let (a, d, c) = sweep.check_cell;
    let ds = &setup.datasets[d].1;
    let alg = &sweep.lineup[a].1;
    let mut exact = config(sweep, seed, 1);
    exact.mode = SimulationMode::Exact;
    let mut grouped = exact.clone();
    grouped.mode = SimulationMode::Grouped;
    let e = run_cell(ds, alg, c, &exact).expect("valid configuration");
    let g = run_cell(ds, alg, c, &grouped).expect("valid configuration");
    checks.record(
        "Exact and Grouped engines agree",
        check_same_cell(("Exact", &e), ("Grouped", &g)),
    );
}

/// The runner's per-cell seed (`svt_experiments::runner`), restated so
/// the traced pass draws the same runs as the untraced one and
/// `trace.overhead_share` compares equal work. The traced pass checks
/// each of its cells against the runner's, so a drift here, in the
/// drivers' configuration or in the exact engine's dispatch fails the
/// run.
fn runner_cell_seed(cfg: &ExperimentConfig, alg: &AlgorithmSpec, c: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in alg.label().bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    cfg.seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(c as u64)
        .wrapping_add(h)
}

/// A cell's outcomes folded in run order, as the runner aggregates
/// them.
fn fold_cell(alg: &AlgorithmSpec, c: usize, outcomes: &[RunOutcome]) -> CellResult {
    let mut ser = MeanStd::default();
    let mut fnr = MeanStd::default();
    for o in outcomes {
        ser.push(o.ser);
        fnr.push(o.fnr);
    }
    CellResult {
        algorithm: alg.label(),
        c,
        ser: ser.into(),
        fnr: fnr.into(),
    }
}

/// What a driver call reports about its own shape.
#[derive(Debug, Clone, Copy, Default)]
struct DriverRun {
    examined: usize,
    passes: usize,
}

/// The `svt_core` driver behind each algorithm, called as the exact
/// engine (`ExactContext::run_once_into`) calls it.
fn drive(
    alg: &AlgorithmSpec,
    scores: &[f64],
    groups: &GroupedSnapshot,
    threshold: f64,
    c: usize,
    rng: &mut DpRng,
    scratch: &mut RunScratch,
) -> svt_core::Result<DriverRun> {
    let mut passes = 1;
    match *alg {
        AlgorithmSpec::DpBook => {
            let mut alg2 = Alg2::new(EPSILON, 1.0, c, rng)?;
            select_streaming(&mut alg2, scores, threshold, rng, scratch)?;
        }
        AlgorithmSpec::Standard { ratio } => {
            svt_select_into(
                scores,
                threshold,
                &SvtSelectConfig::counting(EPSILON, c, ratio),
                rng,
                scratch,
            )?;
        }
        AlgorithmSpec::Retraversal { ratio, increment_d } => {
            let cfg = RetraversalConfig {
                select: SvtSelectConfig::counting(EPSILON, c, ratio),
                increment: increment_d,
                unit: IncrementUnit::NoiseStdDev,
                max_passes: 64,
            };
            passes = svt_retraversal_into(scores, threshold, &cfg, rng, scratch)?.passes;
        }
        AlgorithmSpec::Em => {
            EmTopC::new(EPSILON, c, 1.0, true)?.select_grouped_into(groups, rng, scratch)?;
            passes = 0;
        }
        AlgorithmSpec::Revisited { ratio } => {
            revisited_select_from(
                scores,
                threshold,
                &SvtSelectConfig::counting(EPSILON, c, ratio),
                rng,
                scratch,
            )?;
        }
        AlgorithmSpec::ExpNoise { ratio } => {
            exp_noise_select_from(
                scores,
                threshold,
                &SvtSelectConfig::counting(EPSILON, c, ratio),
                rng,
                scratch,
            )?;
        }
    }
    Ok(DriverRun {
        examined: scratch.examined(),
        passes,
    })
}

/// One traced AOL cell: mean driver time and shapes per run.
#[derive(Debug, Clone)]
pub struct DriverCell {
    /// Workload name.
    pub workload: &'static str,
    /// Algorithm slug.
    pub alg: &'static str,
    /// Cutoff.
    pub c: usize,
    /// Mean wall-clock of the run span.
    pub run_ns: f64,
    /// Mean wall-clock of the driver span.
    pub driver_ns: f64,
    /// Mean items examined (positions the order emitted).
    pub examined: f64,
    /// Mean passes (ReTr; 1 for one-pass drivers, 0 for EM).
    pub passes: f64,
    /// Modelled layer costs at the cell's mean shape.
    pub modelled: ShapeCost,
    /// The driver spans of the cell's runs.
    driver_spans: Vec<usize>,
    /// Mean driver self time: the span minus its modelled children.
    pub self_ns: f64,
}

/// The traced run of one sweep: an untraced one-thread pass, a traced
/// pass with workload → dataset → cell → run → driver spans, and a
/// two-thread pass for the runner's parallel efficiency. Returns the
/// AOL driver cells, for the driver metrics and the reconstruction.
pub fn traced(
    sweep: &Sweep,
    setup: &Setup,
    seed: u64,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
    checks: &mut Checks,
) -> Vec<DriverCell> {
    let (untraced_s, cells) = pass(sweep, setup, seed, 1);
    for cell in &cells {
        checks.record(
            &format!("{} c={}", cell.algorithm, cell.c),
            check_cell(cell),
        );
    }
    let (two_thread_s, cells2) = pass(sweep, setup, seed, PARALLEL_THREADS);
    checks.record(
        "thread count leaves results unchanged",
        check_digests(digest(&cells), digest(&cells2)),
    );

    let cfg = config(sweep, seed, 1);
    let t0 = Instant::now();
    let w_span = tracer.begin(sweep.name);
    let mut scratch = RunScratch::new();
    let mut aol_cells = Vec::new();
    let grid = sweep.c_values.len() as f64 * sweep.runs as f64;
    let mut outcomes = Vec::with_capacity(sweep.runs);
    let mut traced_cells = vec![None; cells.len()];
    for (d, (slug, ds)) in setup.datasets.iter().enumerate() {
        let ctx = ds.sweep_context();
        let scores = ds.scores().as_slice();
        let d_span = tracer.begin(format!("{}/{slug}", sweep.name));
        let mut cell_ns = vec![0.0; sweep.lineup.len()];
        for (ci, &c) in sweep.c_values.iter().enumerate() {
            let cut = ctx.cut(c);
            for (a, &(alg_slug, alg)) in sweep.lineup.iter().enumerate() {
                let c_span = tracer.begin(format!("cell/{alg_slug}/{slug}/{c}"));
                let mut acc = DriverCell {
                    workload: sweep.name,
                    alg: alg_slug,
                    c,
                    run_ns: 0.0,
                    driver_ns: 0.0,
                    examined: 0.0,
                    passes: 0.0,
                    modelled: ShapeCost::default(),
                    driver_spans: Vec::with_capacity(sweep.runs),
                    self_ns: 0.0,
                };
                let cell_seed = runner_cell_seed(&cfg, &alg, c);
                outcomes.clear();
                for r in 0..sweep.runs {
                    let mut rng = DpRng::seed_from_u64(counter_seed(cell_seed, r as u64));
                    let run_span = tracer.begin("run");
                    let drv_span = tracer.begin("svt_core::driver");
                    let shape = drive(
                        &alg,
                        scores,
                        ctx.groups(),
                        cut.threshold,
                        c,
                        &mut rng,
                        &mut scratch,
                    )
                    .expect("valid configuration");
                    acc.driver_ns += tracer.end(drv_span) as f64;
                    acc.driver_spans.push(drv_span);
                    let outcome = ctx.outcome(&cut, scratch.selected());
                    acc.run_ns += tracer.end(run_span) as f64;
                    acc.examined += shape.examined as f64;
                    acc.passes += shape.passes as f64;
                    checks.record(
                        "traced run",
                        check_run(scratch.selected().len(), c, outcome),
                    );
                    outcomes.push(outcome);
                }
                tracer.end(c_span);
                // The runner's order: dataset-major, then algorithm,
                // then cutoff.
                let at = (d * sweep.lineup.len() + a) * sweep.c_values.len() + ci;
                traced_cells[at] = Some(fold_cell(&alg, c, &outcomes));
                cell_ns[a] += acc.run_ns;
                if *slug == "aol" {
                    let runs = sweep.runs as f64;
                    acc.run_ns /= runs;
                    acc.driver_ns /= runs;
                    acc.examined /= runs;
                    acc.passes /= runs;
                    aol_cells.push(acc);
                }
            }
        }
        tracer.end(d_span);
        for (a, &(alg_slug, _)) in sweep.lineup.iter().enumerate() {
            metrics.set(
                format!("cell.{}.{alg_slug}.{slug}.ns_per_run", sweep.short),
                cell_ns[a] / grid,
                "ns",
            );
        }
    }
    tracer.end(w_span);
    let traced_s = t0.elapsed().as_secs_f64();
    for (traced, runner) in traced_cells.iter().zip(&cells) {
        checks.record(
            &format!("traced {} c={}", runner.algorithm, runner.c),
            traced
                .as_ref()
                .ok_or_else(|| "no traced cell".to_owned())
                .and_then(|t| check_same_cell(("traced", t), ("runner", runner))),
        );
    }

    // Modelled children at each AOL cell's mean shape, outside the
    // timed pass so the re-timing does not count as trace overhead.
    if let Some((_, aol)) = setup.datasets.iter().find(|(s, _)| *s == "aol") {
        for cell in &mut aol_cells {
            let m = layers::shape_cost(cell.alg, cell.c, cell.examined, cell.passes, aol, seed);
            let children = [
                ("order (modelled)", m.order_ns as u64),
                ("noise (modelled)", m.noise_ns as u64),
                ("gather (modelled)", m.gather_ns as u64),
                ("em keys (modelled)", m.em_ns as u64),
            ];
            let self_ns: u64 = cell
                .driver_spans
                .iter()
                .map(|&id| tracer.model_children(id, &children))
                .sum();
            cell.self_ns = self_ns as f64 / cell.driver_spans.len() as f64;
            cell.modelled = m;
        }
    }

    metrics.set(
        format!("trace.overhead_share.{}", sweep.name),
        traced_s / untraced_s - 1.0,
        "share",
    );
    metrics.set(
        format!("runner.parallel_efficiency.{}", sweep.name),
        parallel_efficiency(untraced_s, two_thread_s, PARALLEL_THREADS),
        "share",
    );
    aol_cells
}
