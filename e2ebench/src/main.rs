//! End-to-end benchmark of the SVT suite.
//!
//! `svt-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! With `--trace 0` the named workload runs untraced and the last line
//! of standard output is one JSON object holding its end-to-end
//! metrics. With `--trace 1` the run is the traced pass instead: every
//! workload's layers are timed from outside, so that line holds every
//! per-layer metric. See `README.md` next to this crate for the
//! workloads, metrics and the layer → end-to-end table.

mod checks;
mod data;
mod layers;
mod report;
mod serve;
mod stats;
mod sweeps;
mod trace;

use std::path::Path;
use std::time::Instant;

use dp_data::DatasetSpec;

use checks::Checks;
use report::{result_json, Metrics};
use sweeps::{DriverCell, Sweep};
use trace::Tracer;

/// Scratch files (WAL directories, the span dump) live here, inside
/// the directory the benchmark runs from.
const WORK_DIR: &str = ".bench_out";

const WORKLOADS: [&str; 4] = ["fig5_nonint", "fig4_stream", "rv_whole", "serve_mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => {
                return Err(format!(
                    "unknown workload {value}; expected one of {WORKLOADS:?}"
                ))
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set size of this process since the last
/// [`PeakRss::start_pass`], from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The peak resident set size of each measured pass; `peak_rss_mb` is
/// their mean. A pass peak takes a few discrete levels, one per large
/// array alive at the worst moment (how many snapshots overlap depends on
/// how the clients interleave), so one whole-run peak or a median jumps
/// between levels from run to run; the mean follows how often each level
/// is reached.
#[derive(Debug, Default)]
struct PeakRss {
    mb: Vec<f64>,
    error: Option<String>,
}

impl PeakRss {
    /// Resets the kernel's peak (`VmHWM`) to the current resident set.
    fn start_pass(&mut self) {
        if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
            self.error.get_or_insert(format!(
                "resetting VmHWM through /proc/self/clear_refs: {e}"
            ));
        }
    }

    /// Reads the peak since [`Self::start_pass`].
    fn end_pass(&mut self) {
        match peak_rss_mb() {
            Some(mb) => self.mb.push(mb),
            None => {
                self.error
                    .get_or_insert("no VmHWM in /proc/self/status".to_owned());
            }
        }
    }

    /// Sets `peak_rss_mb`, or fails the run when a pass could not be
    /// measured.
    fn record(self, checks: &mut Checks, metrics: &mut Metrics) {
        let mb: Vec<String> = self.mb.iter().map(|m| format!("{m:.1}")).collect();
        eprintln!("peak RSS per pass (MB): {mb:?}");
        match self.error {
            Some(e) => checks.record("peak RSS per pass", Err(e)),
            None => {
                checks.record("peak RSS per pass", Ok(()));
                metrics.set("peak_rss_mb", mean(self.mb.iter().copied()), "MB");
            }
        }
    }
}

fn serve_datasets(seed: u64) -> [Vec<f64>; 2] {
    [DatasetSpec::aol(), DatasetSpec::kosarak()]
        .map(|d| data::generate(&d, seed).as_slice().to_vec())
}

fn untraced(args: &Args, work: &Path, checks: &mut Checks, metrics: &mut Metrics) {
    match args.workload.as_str() {
        "serve_mixed" => {
            let datasets = serve_datasets(args.seed);
            serve::measure(&datasets, args.seed, args.seconds, work, checks, metrics);
        }
        name => {
            let sweep = sweeps::all()
                .into_iter()
                .find(|s| s.name == name)
                .expect("validated workload");
            sweeps::measure(&sweep, args.seed, args.seconds, checks, metrics);
        }
    }
}

/// Which workload's AOL cells feed each driver metric: the one whose
/// `sweep_s` the driver moves.
fn driver_source(alg: &str) -> &'static str {
    match alg {
        "rv" => "rv_whole",
        a if a.starts_with("retr") || a == "em" => "fig5_nonint",
        _ => "fig4_stream",
    }
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = xs.collect();
    v.iter().sum::<f64>() / v.len() as f64
}

fn driver_metrics(cells: &[DriverCell], metrics: &mut Metrics) {
    let of = |alg: &str| -> Vec<&DriverCell> {
        cells
            .iter()
            .filter(|c| c.alg == alg && c.workload == driver_source(alg))
            .collect()
    };
    for alg in [
        "dpbook", "s_1to1", "s_1to3", "s_1toc", "s_1toc23", "exp", "rv", "retr_1d", "retr_2d",
        "retr_3d", "retr_4d", "retr_5d",
    ] {
        metrics.set(
            format!("driver.{alg}.examined_per_run"),
            mean(of(alg).iter().map(|c| c.examined)),
            "count",
        );
    }
    for k in 1..=5 {
        metrics.set(
            format!("retr.{k}d.passes_per_run"),
            mean(of(&format!("retr_{k}d")).iter().map(|c| c.passes)),
            "count",
        );
    }
    for alg in ["s_1toc23", "retr_5d", "rv", "exp"] {
        metrics.set(
            format!("driver.{alg}.self_ns_per_item"),
            mean(of(alg).iter().map(|c| c.self_ns / c.modelled.items)),
            "ns",
        );
    }
    metrics.set(
        "em.grouped_ns_per_run",
        mean(of("em").iter().map(|c| c.driver_ns)),
        "ns",
    );
}

/// Rebuilds each AOL cell's ns/run of `rv_whole` and `fig5_nonint`
/// from its modelled layer costs and prints what they leave
/// unexplained.
fn print_reconstruction(cells: &[DriverCell]) {
    println!("layer reconstruction (AOL, ns per run; layers modelled at each cell's shape):");
    for c in cells.iter().filter(|c| c.workload != "fig4_stream") {
        let m = &c.modelled;
        let unexplained = c.run_ns - m.total();
        println!(
            "  {:<11} {:<8} c={:<3} run {:>12.0} = order {:>11.0} + noise {:>11.0} + gather {:>11.0} + em {:>9.0} + unexplained {:>11.0} ({:>5.1}%)",
            c.workload,
            c.alg,
            c.c,
            c.run_ns,
            m.order_ns,
            m.noise_ns,
            m.gather_ns,
            m.em_ns,
            unexplained,
            100.0 * unexplained / c.run_ns
        );
    }
}

fn traced(args: &Args, work: &Path, checks: &mut Checks, metrics: &mut Metrics) {
    let mut tracer = Tracer::new();
    let mut aol_cells = Vec::new();
    let all: Vec<Sweep> = sweeps::all();
    for sweep in &all {
        let setup = sweeps::setup(sweep, args.seed);
        if sweep.name == "fig5_nonint" {
            // Layer rates at the datasets' shapes, while every dataset
            // is in memory.
            metrics.set("data.generate_s", setup.generate_s, "s");
            metrics.set("context.build_s", setup.build_s, "s");
            let aol = &setup
                .datasets
                .iter()
                .find(|(s, _)| *s == "aol")
                .expect("fig5 sweeps AOL")
                .1;
            let kosarak = &setup
                .datasets
                .iter()
                .find(|(s, _)| *s == "kosarak")
                .expect("fig5 sweeps Kosarak")
                .1;
            let span = tracer.begin("layer probes");
            layers::probe_rates(aol, args.seed, metrics);
            layers::probe_live(
                aol.scores().as_slice(),
                kosarak.scores().as_slice(),
                args.seed,
                metrics,
            );
            tracer.end(span);
        }
        aol_cells.extend(sweeps::traced(
            sweep,
            &setup,
            args.seed,
            &mut tracer,
            metrics,
            checks,
        ));
    }
    driver_metrics(&aol_cells, metrics);
    print_reconstruction(&aol_cells);

    let span = tracer.begin("dp_mechanisms::{wal,ledger}");
    checks.record(
        "WAL and ledger probe",
        layers::probe_wal(&work.join("wal_probe"), metrics),
    );
    tracer.end(span);

    let span = tracer.begin("serve_mixed");
    let datasets = serve_datasets(args.seed);
    serve::traced(&datasets, args.seed, work, checks, metrics);
    tracer.end(span);

    let path = work.join(format!("spans.{}.{}.jsonl", args.workload, args.seed));
    checks.record(
        "span dump written",
        tracer.write_jsonl(&path).map_err(|e| e.to_string()),
    );
    eprintln!("{} spans written to {}", tracer.len(), path.display());
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: svt-e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let work = Path::new(WORK_DIR);
    if let Err(e) = std::fs::create_dir_all(work) {
        eprintln!("error: cannot create {WORK_DIR}: {e}");
        std::process::exit(2);
    }
    let t0 = Instant::now();
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    if args.trace {
        traced(&args, work, &mut checks, &mut metrics);
    } else {
        untraced(&args, work, &mut checks, &mut metrics);
    }
    for m in checks.messages() {
        eprintln!("check failed: {m}");
    }
    eprintln!(
        "{} metrics in {:.1} s",
        metrics.len(),
        t0.elapsed().as_secs_f64()
    );
    println!("{}", result_json(&checks, &metrics));
    std::process::exit(checks.exit_code());
}
