//! `serve_mixed`: two client threads against one WAL-backed
//! `SessionStore` (`FsyncPolicy::Always`).
//!
//! The analyst thread opens sessions (the durable-ack path: ledger
//! charge, WAL append, fsync), submits batches of 64 queries, and asks
//! items against the snapshot each session pinned. The owner thread
//! publishes score updates to one AOL-scale and one Kosarak-scale tenant
//! dataset, so writes run beside reads.
//!
//! The untraced run times a fixed closed-loop script of both threads
//! (`sweep_s`). The traced run drives the same request mix as an open
//! loop: each thread sends on a fixed schedule whatever the store's
//! speed, so a stall delays every later request, and each request is
//! timed from its due time. Rates climb a ladder of multiples of R, a
//! share of the closed-loop capacity measured just before. Both runs
//! end with a torn-tail crash and timed recoveries of the WAL they
//! wrote.

use std::path::Path;
use std::time::{Duration, Instant};

use dp_mechanisms::{counter_seed, DpRng, FsyncPolicy, SvtBudget};
use svt_core::alg::StandardSvtConfig;
use svt_server::{BatchQuery, ScoreUpdate, ServerConfig, SessionId, SessionStore, TenantId};

use crate::checks::{check_recovered_epsilon, check_verified, Checks};
use crate::report::Metrics;
use crate::stats::{
    another_pass, backlog_grows, max_ok_rate, median, percentile, samples_needed, StepVerdict,
};

// The request mix below is assumed, not measured: the repository holds
// no record of real serving traffic. Each constant states its reason;
// `README.md` lists them together. Results are conditional on this mix.

/// Assumed analyst mix: of every twenty requests one opens a session,
/// six submit a batch and thirteen ask an item ([`analyst_kind`]). An
/// analyst opens a session, then asks many questions of it.
const MIX_PERIOD: usize = 20;
/// Assumed: one session open in this many goes to the AOL-scale tenant.
/// Two tenants, the large one the rarer: its sessions pin the largest
/// snapshots, so their opens and closes are exercised at every pass.
const AOL_OPEN_EVERY: usize = 8;
/// Assumed: one owner update in this many goes to the AOL-scale tenant,
/// the rest to the Kosarak-scale one. Most edits land on the smaller,
/// more active dataset.
const AOL_EVERY: usize = 50;
/// Assumed queries per `submit_batch`: a batch a dashboard sends.
const BATCH: usize = 64;
/// Assumed score edits per `update_scores` call.
const EDITS: usize = 16;
/// Sessions kept open per tenant, `[AOL, Kosarak]`; opening past it
/// closes that tenant's oldest. Assumed: a handful of analysts at once.
const RING: [usize; 2] = [2, 16];
/// Analyst requests in one closed-loop script pass.
const SCRIPT_REQUESTS: usize = 80_000;
/// Owner updates in one closed-loop script pass. Sized from measurement,
/// not assumed: run alone, the owner's script takes about as long as the
/// analyst's (see `README.md`), so both clients load the store alike and
/// a regression on either side moves the pass's wall-clock.
const SCRIPT_UPDATES: usize = 360;
/// The traced ladder offers `m` × R analyst requests per second, where R
/// is this share of the closed-loop script's measured request rate, and
/// owner updates in the script's ratio. With steps R/4 … 2R the ladder
/// runs from light load to past the measured capacity.
const LOAD_AT_R: f64 = 0.6;
/// Ladder steps: `(rate as a multiple of R, owner updates sent)`. A step
/// is sized in requests, not seconds, so every p99 at R has its samples
/// whatever the machine's speed or `--seconds`. The analyst sends the
/// script's share of requests per update.
const LADDER: [(f64, usize); 4] = [(0.25, 150), (0.5, 300), (1.0, 1500), (2.0, 600)];
/// Closed-loop passes that measure the capacity R is derived from.
const CALIBRATION_PASSES: usize = 3;
/// Shards of the store.
const SHARDS: usize = 4;
/// Set-ups and recoveries per run; their medians are reported.
const REPS: usize = 5;
const RECOVERIES: usize = 5;
const SESSION_EPSILON: f64 = 0.1;
const TENANT_EPSILON: f64 = 1e9;

/// The two tenants: one AOL-scale and one Kosarak-scale dataset.
const TENANTS: [TenantId; 2] = [TenantId(1), TenantId(2)];

fn server_config() -> ServerConfig {
    ServerConfig {
        shards: SHARDS,
        ..ServerConfig::default()
    }
}

fn session_config() -> StandardSvtConfig {
    StandardSvtConfig {
        budget: SvtBudget::halves(SESSION_EPSILON).expect("valid session budget"),
        sensitivity: 1.0,
        // Far above any session's query count: no session halts.
        c: 1_000_000,
        monotonic: true,
    }
}

/// Opens a fresh durable store in `dir` and registers both tenants and
/// their datasets.
fn open_store(dir: &Path, datasets: &[Vec<f64>; 2]) -> SessionStore {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("work directory is writable");
    let store = SessionStore::with_wal_dir(server_config(), dir, FsyncPolicy::Always)
        .expect("WAL files open");
    for (tenant, scores) in TENANTS.iter().zip(datasets) {
        store
            .register_tenant(*tenant, TENANT_EPSILON)
            .expect("fresh tenant");
        store
            .register_dataset(*tenant, scores)
            .expect("finite scores");
    }
    store
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Open,
    Batch,
    Item,
    Update,
}

/// One request as the client saw it, times in ns.
#[derive(Debug, Clone, Copy)]
struct Sample {
    kind: Kind,
    /// Completion minus due time; infinite when the request failed.
    latency: f64,
    /// Completion minus start: the store's service time.
    service: f64,
    /// Start minus due time when the thread was busy at the due time.
    queue_delay: f64,
    /// Wake-up minus due time when the thread was idle and slept.
    gen_lag: Option<f64>,
}

/// Waits until `due`: sleeps to shortly before it, then spins, so the
/// wake-up lag measures the client, not the sleep granularity.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(80);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Runs `count` requests due every `gap` from `start`; `op(k)` issues
/// request `k` and reports its kind and whether it succeeded.
fn open_loop(
    start: Instant,
    gap: Duration,
    count: usize,
    mut op: impl FnMut(usize) -> (Kind, bool),
) -> Vec<Sample> {
    let mut out = Vec::with_capacity(count);
    for k in 0..count {
        let due = start + gap * k as u32;
        let now = Instant::now();
        let (queue_delay, gen_lag) = if now < due {
            wait_until(due);
            (0.0, Some((Instant::now() - due).as_nanos() as f64))
        } else {
            ((now - due).as_nanos() as f64, None)
        };
        let t0 = Instant::now();
        let (kind, ok) = op(k);
        let t1 = Instant::now();
        out.push(Sample {
            kind,
            latency: if ok {
                (t1 - due).as_nanos() as f64
            } else {
                f64::INFINITY
            },
            service: (t1 - t0).as_nanos() as f64,
            queue_delay,
            gen_lag,
        });
    }
    out
}

/// The analyst's request mix: of every [`MIX_PERIOD`] requests, one
/// opens a session, six submit a batch and thirteen ask an item.
fn analyst_kind(k: usize) -> Kind {
    match k % MIX_PERIOD {
        0 => Kind::Open,
        k if k % 3 == 0 => Kind::Batch,
        _ => Kind::Item,
    }
}

struct Analyst<'a> {
    store: &'a SessionStore,
    rng: DpRng,
    /// Live sessions per tenant, `[AOL, Kosarak]`, each a ring of
    /// [`RING`] slots filled before any timing.
    rings: [Vec<SessionId>; 2],
    /// Per tenant, the ring slot holding the oldest session.
    oldest: [usize; 2],
    opens: usize,
    sizes: [usize; 2],
    threshold: f64,
    batch: Vec<BatchQuery>,
}

impl Analyst<'_> {
    /// A uniformly chosen live session of either tenant.
    fn pick(&mut self) -> SessionId {
        let aol = self.rings[0].len();
        let i = self.rng.index(aol + self.rings[1].len());
        match i.checked_sub(aol) {
            Some(k) => self.rings[1][k],
            None => self.rings[0][i],
        }
    }

    /// Opens a session, every [`AOL_OPEN_EVERY`]-th on the AOL tenant,
    /// and closes the oldest session of that tenant.
    fn open(&mut self) -> bool {
        let t = usize::from(!self.opens.is_multiple_of(AOL_OPEN_EVERY));
        self.opens += 1;
        let seed = self.rng.next_u64();
        match self.store.open_session(TENANTS[t], session_config(), seed) {
            Ok(id) => {
                let slot = self.oldest[t];
                self.oldest[t] = (slot + 1) % self.rings[t].len();
                let old = std::mem::replace(&mut self.rings[t][slot], id);
                self.store.close_session(old).is_ok()
            }
            Err(_) => false,
        }
    }

    fn request(&mut self, k: usize) -> (Kind, bool) {
        let kind = analyst_kind(k);
        let ok = match kind {
            Kind::Open => self.open(),
            Kind::Batch => {
                self.batch.clear();
                for _ in 0..BATCH {
                    let session = self.pick();
                    self.batch.push(BatchQuery {
                        session,
                        query_answer: self.rng.index(1000) as f64,
                        threshold: self.threshold,
                    });
                }
                self.store
                    .submit_batch(&self.batch)
                    .iter()
                    .all(Result::is_ok)
            }
            _ => {
                let session = self.pick();
                let item = self.rng.index(self.sizes[(session.tenant.0 - 1) as usize]);
                self.store
                    .submit_item(session, item, self.threshold)
                    .is_ok()
            }
        };
        (kind, ok)
    }
}

/// The owner thread's state: its generator and the epochs it published.
struct Owner<'a> {
    store: &'a SessionStore,
    rng: DpRng,
    sizes: [usize; 2],
    epochs: u64,
}

impl Owner<'_> {
    /// Update `k`: every [`AOL_EVERY`]-th goes to the AOL tenant, the rest
    /// to the Kosarak tenant.
    fn request(&mut self, k: usize) -> (Kind, bool) {
        let t = usize::from(!k.is_multiple_of(AOL_EVERY));
        let updates: Vec<ScoreUpdate> = (0..EDITS)
            .map(|_| ScoreUpdate::Increment {
                item: self.rng.index(self.sizes[t]),
                delta: 1.0,
            })
            .collect();
        let ok = self.store.update_scores(TENANTS[t], &updates).is_ok();
        self.epochs += u64::from(ok);
        (Kind::Update, ok)
    }
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn of_kind<'a>(samples: &'a [Sample], kinds: &'a [Kind]) -> impl Iterator<Item = &'a Sample> + 'a {
    samples.iter().filter(move |s| kinds.contains(&s.kind))
}

/// One ladder step's samples from both threads.
struct Step {
    rate: f64,
    analyst: Vec<Sample>,
    owner: Vec<Sample>,
    analyst_gap: f64,
    owner_gap: f64,
}

impl Step {
    fn gen_lags(&self) -> Vec<f64> {
        self.analyst
            .iter()
            .chain(&self.owner)
            .filter_map(|s| s.gen_lag)
            .collect()
    }

    fn verdict(&self) -> StepVerdict {
        let lag_ok = |samples: &[Sample], gap: f64| {
            let lags: Vec<f64> = samples.iter().filter_map(|s| s.gen_lag).collect();
            p99_or_max(&lags) <= gap
        };
        let queries: Vec<f64> = of_kind(&self.analyst, &[Kind::Batch, Kind::Item])
            .map(|s| s.latency)
            .collect();
        let delays = |samples: &[Sample]| samples.iter().map(|s| s.queue_delay).collect::<Vec<_>>();
        StepVerdict {
            rate: self.rate,
            valid: lag_ok(&self.analyst, self.analyst_gap) && lag_ok(&self.owner, self.owner_gap),
            query_p99_us: percentile(&queries, 0.99).map(us),
            analyst_backlog_grows: backlog_grows(&delays(&self.analyst), self.analyst_gap),
            owner_backlog_grows: backlog_grows(&delays(&self.owner), self.owner_gap),
        }
    }
}

/// One open-loop step: `updates` owner updates and the script's share
/// of analyst requests beside them, the analyst offered `rate` per
/// second and the owner spread evenly over the same span.
fn run_step(analyst: &mut Analyst, owner: &mut Owner, rate: f64, updates: usize) -> Step {
    let analyst_count = updates * SCRIPT_REQUESTS / SCRIPT_UPDATES;
    let seconds = analyst_count as f64 / rate;
    let analyst_gap = Duration::from_secs_f64(1.0 / rate);
    let owner_gap = Duration::from_secs_f64(seconds / updates as f64);
    let start = Instant::now() + Duration::from_millis(5);
    let (a, o) = std::thread::scope(|scope| {
        let owner = scope.spawn(|| open_loop(start, owner_gap, updates, |k| owner.request(k)));
        let a = open_loop(start, analyst_gap, analyst_count, |k| analyst.request(k));
        (a, owner.join().expect("owner thread does not panic"))
    });
    Step {
        rate,
        analyst: a,
        owner: o,
        analyst_gap: analyst_gap.as_nanos() as f64,
        owner_gap: owner_gap.as_nanos() as f64,
    }
}

fn failures(samples: &[Sample]) -> u64 {
    samples.iter().filter(|s| s.latency.is_infinite()).count() as u64
}

/// Appends a torn partial record to shard 0's log: what a writer dying
/// mid-`write(2)` leaves behind.
fn tear(dir: &Path) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join("wal-000.log"))?;
    f.write_all(&[0xa5; 57])?;
    f.sync_all()
}

fn spent(store: &SessionStore) -> Vec<(u64, f64)> {
    TENANTS
        .iter()
        .map(|&t| (t.0, store.ledger_view(t).map_or(f64::NAN, |v| v.spent)))
        .collect()
}

fn p(xs: &[f64], q: f64, what: &str, checks: &mut Checks) -> f64 {
    let v = percentile(xs, q);
    checks.record(
        &format!("{what}: p{} needs {} samples", q * 100.0, samples_needed(q)),
        v.map(|_| ())
            .ok_or_else(|| format!("only {} samples", xs.len())),
    );
    v.unwrap_or(f64::NAN)
}

/// Wall-clocks of one closed-loop script pass (s): until both clients
/// finished, and each client's own.
#[derive(Debug, Clone, Copy)]
struct PassTimes {
    wall: f64,
    analyst: f64,
    owner: f64,
}

/// Issues requests `0..count` back to back; returns the wall-clock and
/// the failures.
fn closed_loop(count: usize, mut op: impl FnMut(usize) -> (Kind, bool)) -> (f64, usize) {
    let t0 = Instant::now();
    let failed = (0..count).filter(|&k| !op(k).1).count();
    (t0.elapsed().as_secs_f64(), failed)
}

/// One closed-loop script pass: the analyst's [`SCRIPT_REQUESTS`] and
/// the owner's [`SCRIPT_UPDATES`], each client issuing its next request
/// as soon as the last returns. A client left out (`None`) sends
/// nothing, so each script can also be timed alone.
fn script_pass(
    analyst: Option<&mut Analyst>,
    owner: Option<&mut Owner>,
    checks: &mut Checks,
) -> PassTimes {
    let attempted = usize::from(analyst.is_some()) * SCRIPT_REQUESTS
        + usize::from(owner.is_some()) * SCRIPT_UPDATES;
    let t0 = Instant::now();
    let ((a_s, a_failed), (o_s, o_failed)) = std::thread::scope(|scope| {
        let owner = scope.spawn(move || {
            owner.map_or((0.0, 0), |o| closed_loop(SCRIPT_UPDATES, |k| o.request(k)))
        });
        let a = analyst.map_or((0.0, 0), |a| closed_loop(SCRIPT_REQUESTS, |k| a.request(k)));
        (a, owner.join().expect("owner thread does not panic"))
    });
    let wall = t0.elapsed().as_secs_f64();
    checks.record_ops(
        "script requests",
        attempted as u64,
        (a_failed + o_failed) as u64,
    );
    PassTimes {
        wall,
        analyst: a_s,
        owner: o_s,
    }
}

/// Prints each pass's wall-clock and per-client times, so it shows which
/// client set the wall-clock.
fn print_passes(what: &str, passes: &[PassTimes]) {
    let f = |pick: fn(&PassTimes) -> f64| -> Vec<String> {
        passes.iter().map(|p| format!("{:.3}", pick(p))).collect()
    };
    eprintln!(
        "serve_mixed {what}: {} passes; wall {:?}; analyst {:?}; owner {:?}",
        passes.len(),
        f(|p| p.wall),
        f(|p| p.analyst),
        f(|p| p.owner)
    );
}

/// Opens the store [`REPS`] times on fresh logs; returns the last store
/// and the median set-up time.
fn timed_setup(dir: &Path, datasets: &[Vec<f64>; 2]) -> (SessionStore, f64) {
    let mut setups = Vec::new();
    let mut store = None;
    for _ in 0..REPS {
        drop(store.take());
        let t0 = Instant::now();
        store = Some(open_store(dir, datasets));
        setups.push(t0.elapsed().as_secs_f64());
    }
    (store.expect("at least one set-up"), median(&setups))
}

/// The two clients of `store`, seeded from `seed`; the analyst's
/// session rings are filled here, before any timing.
fn clients<'a>(
    store: &'a SessionStore,
    datasets: &[Vec<f64>; 2],
    seed: u64,
) -> (Analyst<'a>, Owner<'a>) {
    let sizes = [datasets[0].len(), datasets[1].len()];
    let mut rng = DpRng::seed_from_u64(counter_seed(seed, 0xa7a1));
    let rings = [0, 1].map(|t| {
        (0..RING[t])
            .map(|_| {
                store
                    .open_session(TENANTS[t], session_config(), rng.next_u64())
                    .expect("the tenant budget covers every session")
            })
            .collect()
    });
    let analyst = Analyst {
        store,
        rng,
        rings,
        oldest: [0, 0],
        opens: 0,
        sizes,
        threshold: 500.0,
        batch: Vec::with_capacity(BATCH),
    };
    let owner = Owner {
        store,
        rng: DpRng::seed_from_u64(counter_seed(seed, 0x0e7e)),
        sizes,
        epochs: 0,
    };
    (analyst, owner)
}

/// Audits the chains, crashes the store with a torn tail and recovers
/// it [`RECOVERIES`] times, checking each recovery against the
/// acknowledged pre-crash spend. Returns the recovery wall-clocks and
/// the WAL record count.
fn crash_and_recover(store: SessionStore, dir: &Path, checks: &mut Checks) -> (Vec<f64>, usize) {
    checks.record(
        "verify_all before the crash",
        store
            .verify_all()
            .map_err(|e| e.to_string())
            .and_then(|v| check_verified(v, TENANTS.len())),
    );
    let acked = spent(&store);
    drop(store);
    let mut recovery_s = Vec::new();
    let mut wal_records = 0;
    for _ in 0..RECOVERIES {
        if let Err(e) = tear(dir) {
            checks.record("torn tail written", Err(e.to_string()));
            break;
        }
        let t0 = Instant::now();
        match SessionStore::recover_wal_dir(server_config(), dir, FsyncPolicy::Always) {
            Ok((recovered, report)) => {
                recovery_s.push(t0.elapsed().as_secs_f64());
                wal_records = report.records;
                checks.record(
                    "recovery dropped the torn tail",
                    if report.torn_tail_bytes > 0 {
                        Ok(())
                    } else {
                        Err("no torn tail seen".to_owned())
                    },
                );
                checks.record(
                    "recovered ε equals acknowledged ε",
                    check_recovered_epsilon(&acked, &spent(&recovered)),
                );
                checks.record(
                    "verify_all after recovery",
                    recovered
                        .verify_all()
                        .map_err(|e| e.to_string())
                        .and_then(|v| check_verified(v, TENANTS.len())),
                );
            }
            Err(e) => checks.record("recover_wal_dir", Err(e.to_string())),
        }
    }
    checks.record(
        "recoveries ran",
        if recovery_s.is_empty() {
            Err("none".to_owned())
        } else {
            Ok(())
        },
    );
    let _ = std::fs::remove_dir_all(dir);
    (recovery_s, wal_records)
}

/// The untraced run: set-up, closed-loop script passes for `seconds`
/// (at least two), then the crash and recovery checks.
pub fn measure(
    datasets: &[Vec<f64>; 2],
    seed: u64,
    seconds: f64,
    work: &Path,
    checks: &mut Checks,
    metrics: &mut Metrics,
) {
    let dir = work.join("serve_wal");
    let (store, setup_s) = timed_setup(&dir, datasets);
    let (mut analyst, mut owner) = clients(&store, datasets, seed);
    let t0 = Instant::now();
    let mut passes: Vec<PassTimes> = Vec::new();
    let mut walls = Vec::new();
    let mut rss = crate::PeakRss::default();
    while another_pass(&walls, 2, t0.elapsed().as_secs_f64(), seconds) {
        rss.start_pass();
        let p = script_pass(Some(&mut analyst), Some(&mut owner), checks);
        rss.end_pass();
        walls.push(p.wall);
        passes.push(p);
    }
    print_passes("script", &passes);
    rss.record(checks, metrics);
    drop((analyst, owner));
    crash_and_recover(store, &dir, checks);
    metrics.set("setup_s", setup_s, "s");
    metrics.set("sweep_s", median(&walls), "s");
}

/// The traced run: closed-loop calibration passes that fix R, each
/// script alone once, the open rate ladder, then the crash, with every
/// serving number reported per layer. The ladder's length is set in
/// requests, so it does not depend on `--seconds`.
pub fn traced(
    datasets: &[Vec<f64>; 2],
    seed: u64,
    work: &Path,
    checks: &mut Checks,
    metrics: &mut Metrics,
) {
    let dir = work.join("serve_wal");
    let (store, _) = timed_setup(&dir, datasets);
    let (mut analyst, mut owner) = clients(&store, datasets, seed);
    let both: Vec<PassTimes> = (0..CALIBRATION_PASSES)
        .map(|_| script_pass(Some(&mut analyst), Some(&mut owner), checks))
        .collect();
    print_passes("calibration", &both);
    // Each script alone, once the store is warm: the balance check.
    let alone = [
        script_pass(Some(&mut analyst), None, checks),
        script_pass(None, Some(&mut owner), checks),
    ];
    print_passes("alone (analyst, then owner)", &alone);
    let walls: Vec<f64> = both.iter().map(|p| p.wall).collect();
    let reference_rate = LOAD_AT_R * SCRIPT_REQUESTS as f64 / median(&walls);
    eprintln!("serve_mixed reference rate R = {reference_rate:.0} analyst requests/s");
    let steps: Vec<Step> = LADDER
        .iter()
        .map(|&(m, updates)| run_step(&mut analyst, &mut owner, m * reference_rate, updates))
        .collect();
    for s in &steps {
        let n = (s.analyst.len() + s.owner.len()) as u64;
        checks.record_ops(
            &format!("requests at {:.0}/s", s.rate),
            n,
            failures(&s.analyst) + failures(&s.owner),
        );
    }
    let epochs = owner.epochs;
    drop((analyst, owner));
    let (recovery_s, wal_records) = crash_and_recover(store, &dir, checks);
    report_ladder(&steps, reference_rate, checks, metrics);
    metrics.set(
        "recovery_s",
        if recovery_s.is_empty() {
            f64::NAN
        } else {
            median(&recovery_s)
        },
        "s",
    );
    metrics.set("store.epochs_published", epochs as f64, "count");
    metrics.set("store.wal_records", wal_records as f64, "count");
}

fn max_of(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

/// The p99 when the samples support it, else the largest sample (0 for
/// none): the generator-lag statistic.
fn p99_or_max(xs: &[f64]) -> f64 {
    percentile(xs, 0.99).unwrap_or_else(|| max_of(xs))
}

/// Due-time latencies at R, service times and counts over the ladder,
/// generator lag, and the highest rate meeting the objective.
fn report_ladder(steps: &[Step], reference_rate: f64, checks: &mut Checks, metrics: &mut Metrics) {
    let r = steps
        .iter()
        .find(|s| s.rate == reference_rate)
        .expect("the ladder includes R");
    let queries: Vec<f64> = of_kind(&r.analyst, &[Kind::Batch, Kind::Item])
        .map(|s| us(s.latency))
        .collect();
    let opens: Vec<f64> = of_kind(&r.analyst, &[Kind::Open])
        .map(|s| us(s.latency))
        .collect();
    let updates: Vec<f64> = r.owner.iter().map(|s| us(s.latency)).collect();
    eprintln!(
        "serve_mixed samples at R: {} queries, {} opens, {} updates",
        queries.len(),
        opens.len(),
        updates.len()
    );
    metrics.set(
        "query_p50_us",
        p(&queries, 0.5, "query latency", checks),
        "us",
    );
    metrics.set(
        "query_p99_us",
        p(&queries, 0.99, "query latency", checks),
        "us",
    );
    metrics.set("open_p99_us", p(&opens, 0.99, "open latency", checks), "us");
    metrics.set(
        "update_p99_us",
        p(&updates, 0.99, "update latency", checks),
        "us",
    );
    let verdicts: Vec<StepVerdict> = steps.iter().map(Step::verdict).collect();
    for (s, v) in steps.iter().zip(&verdicts) {
        let lags: Vec<f64> = s.gen_lags().into_iter().map(us).collect();
        eprintln!(
            "serve_mixed step {v:?} ok={} generator lag max {:.1} us",
            v.ok(),
            max_of(&lags)
        );
    }
    // No step meeting the objective is a finding, not a failure: the
    // metric then reads 0.
    metrics.set("max_ok_rate", max_ok_rate(&verdicts).unwrap_or(0.0), "1/s");

    let all: Vec<&Sample> = steps
        .iter()
        .flat_map(|s| s.analyst.iter().chain(&s.owner))
        .collect();
    for (kind, name) in [
        (Kind::Open, "open"),
        (Kind::Batch, "batch"),
        (Kind::Item, "item"),
        (Kind::Update, "update"),
    ] {
        let service: Vec<f64> = all
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| us(s.service))
            .collect();
        metrics.set(
            format!("store.{name}_us.p50"),
            p(&service, 0.5, name, checks),
            "us",
        );
        metrics.set(
            format!("store.{name}_us.p99"),
            p(&service, 0.99, name, checks),
            "us",
        );
    }
    let count = |kind| all.iter().filter(|s| s.kind == kind).count() as f64;
    metrics.set("store.opens", count(Kind::Open), "count");
    metrics.set(
        "store.queries",
        count(Kind::Batch) * BATCH as f64 + count(Kind::Item),
        "count",
    );
    metrics.set("store.updates", count(Kind::Update), "count");
    let lags: Vec<f64> = steps.iter().flat_map(Step::gen_lags).map(us).collect();
    metrics.set("gen.lag_us.p99", p99_or_max(&lags), "us");
}
