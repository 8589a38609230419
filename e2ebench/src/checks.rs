//! Output checks. Every check and every client operation is one
//! attempt; a failed check or a refused or failed operation is one
//! failure. Any failure makes the run incorrect and its exit code
//! non-zero.

use svt_experiments::runner::CellResult;
use svt_experiments::simulate::RunOutcome;

/// Attempt and failure counts, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Checks {
    /// Records one check's result under `what`.
    pub fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.messages.len() < 20 {
                self.messages.push(format!("{what}: {e}"));
            }
        }
    }

    /// Records `attempted` client operations of which `failed` failed
    /// or were refused.
    pub fn record_ops(&mut self, what: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.messages.len() < 20 {
            self.messages
                .push(format!("{what}: {failed} of {attempted} operations failed"));
        }
    }

    /// Checks plus operations attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Checks plus operations failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// The recorded failure messages.
    pub fn messages(&self) -> &[String] {
        &self.messages
    }

    /// Whether every check passed and every operation succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The process exit code this outcome calls for.
    pub fn exit_code(&self) -> i32 {
        if self.correct() {
            0
        } else {
            1
        }
    }
}

fn unit_interval(name: &str, x: f64) -> Result<(), String> {
    if x.is_finite() && (0.0..=1.0).contains(&x) {
        Ok(())
    } else {
        Err(format!("{name} = {x} is not a finite value in [0, 1]"))
    }
}

/// A cell's mean SER and FNR are finite and in `[0, 1]`.
pub fn check_cell(cell: &CellResult) -> Result<(), String> {
    unit_interval("mean SER", cell.ser.mean)?;
    unit_interval("mean FNR", cell.fnr.mean)?;
    if cell.ser.std_dev.is_finite() && cell.fnr.std_dev.is_finite() {
        Ok(())
    } else {
        Err("non-finite standard deviation".to_owned())
    }
}

/// One run selected at most `c` items and scored in `[0, 1]`.
pub fn check_run(selected: usize, c: usize, outcome: RunOutcome) -> Result<(), String> {
    if selected > c {
        return Err(format!("{selected} items selected at cutoff {c}"));
    }
    unit_interval("SER", outcome.ser)?;
    unit_interval("FNR", outcome.fnr)
}

/// Two routes to one cell gave equal results: the Exact and Grouped
/// engines, or the traced pass (which calls the drivers run by run) and
/// the runner, so the traced pass timed the work the untraced one times.
pub fn check_same_cell(
    (a_name, a): (&str, &CellResult),
    (b_name, b): (&str, &CellResult),
) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{a_name} {a:?} != {b_name} {b:?}"))
    }
}

/// Two repetitions with the same seed gave the same result digest.
pub fn check_digests(first: u64, second: u64) -> Result<(), String> {
    if first == second {
        Ok(())
    } else {
        Err(format!("digest {first:016x} then {second:016x}"))
    }
}

/// `verify_all` audited every tenant.
pub fn check_verified(verified: usize, tenants: usize) -> Result<(), String> {
    if verified == tenants {
        Ok(())
    } else {
        Err(format!(
            "verify_all audited {verified} of {tenants} tenants"
        ))
    }
}

/// The recovered spent ε of every tenant is bit-equal to the
/// acknowledged pre-crash snapshot.
pub fn check_recovered_epsilon(
    acked: &[(u64, f64)],
    recovered: &[(u64, f64)],
) -> Result<(), String> {
    if acked.len() != recovered.len() {
        return Err(format!(
            "{} tenants acknowledged, {} recovered",
            acked.len(),
            recovered.len()
        ));
    }
    for (&(ta, ea), &(tr, er)) in acked.iter().zip(recovered) {
        if ta != tr || ea.to_bits() != er.to_bits() {
            return Err(format!(
                "tenant {ta}: acknowledged ε {ea:e}, recovered tenant {tr} ε {er:e}"
            ));
        }
    }
    Ok(())
}

/// FNV-1a digest of a sweep's cell results (labels, cutoffs and the
/// exact bits of every summary).
pub fn digest(cells: &[CellResult]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for cell in cells {
        eat(cell.algorithm.as_bytes());
        eat(&(cell.c as u64).to_le_bytes());
        for s in [&cell.ser, &cell.fnr] {
            eat(&s.mean.to_bits().to_le_bytes());
            eat(&s.std_dev.to_bits().to_le_bytes());
            eat(&s.runs.to_le_bytes());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use svt_experiments::metrics::MetricSummary;

    fn cell(ser: f64) -> CellResult {
        let summary = |mean| MetricSummary {
            mean,
            std_dev: 0.1,
            runs: 10,
        };
        CellResult {
            algorithm: "SVT-S-1:c^(2/3)".to_owned(),
            c: 25,
            ser: summary(ser),
            fnr: summary(0.2),
        }
    }

    #[test]
    fn mismatched_engines_fail_the_run() {
        let mut checks = Checks::default();
        checks.record("cell", check_cell(&cell(0.3)));
        let same = check_same_cell(("Exact", &cell(0.3)), ("Grouped", &cell(0.3)));
        checks.record("engines", same);
        assert!(checks.correct());
        assert_eq!(checks.exit_code(), 0);
        let off = check_same_cell(
            ("Exact", &cell(0.3)),
            ("Grouped", &cell(0.30000000000000004)),
        );
        checks.record("engines", off);
        assert!(!checks.correct());
        assert_eq!(checks.failed(), 1);
        assert_eq!(checks.attempted(), 3);
        assert_ne!(checks.exit_code(), 0);
    }

    #[test]
    fn traced_cell_drifting_from_the_runner_fails_the_run() {
        let mut checks = Checks::default();
        let mut drifted = cell(0.3);
        drifted.fnr.runs += 1;
        checks.record(
            "traced",
            check_same_cell(("traced", &drifted), ("runner", &cell(0.3))),
        );
        assert_eq!((checks.attempted(), checks.failed()), (1, 1));
        assert_ne!(checks.exit_code(), 0);
    }

    #[test]
    fn wrong_recovered_epsilon_fails_the_run() {
        let acked = [(1, 0.5), (2, 1.5)];
        let mut checks = Checks::default();
        checks.record("recovery", check_recovered_epsilon(&acked, &acked));
        assert!(checks.correct());
        let off_by_one_ulp = [(1, 0.5), (2, f64::from_bits(1.5f64.to_bits() + 1))];
        checks.record("recovery", check_recovered_epsilon(&acked, &off_by_one_ulp));
        checks.record("recovery", check_recovered_epsilon(&acked, &acked[..1]));
        assert_eq!(checks.failed(), 2);
        assert_ne!(checks.exit_code(), 0);
    }

    #[test]
    fn cell_and_run_bounds_are_enforced() {
        assert!(check_cell(&cell(1.5)).is_err());
        assert!(check_cell(&cell(f64::NAN)).is_err());
        let fine = RunOutcome {
            fnr: 0.5,
            ser: 0.25,
        };
        assert!(check_run(25, 25, fine).is_ok());
        assert!(check_run(26, 25, fine).is_err());
        assert!(check_run(
            1,
            25,
            RunOutcome {
                fnr: -0.1,
                ser: 0.0
            }
        )
        .is_err());
    }

    #[test]
    fn failed_operations_count_against_the_run() {
        let mut checks = Checks::default();
        checks.record_ops("queries", 100, 0);
        assert!(checks.correct());
        checks.record_ops("queries", 100, 1);
        assert_eq!((checks.attempted(), checks.failed()), (200, 1));
        assert!(!checks.correct());
        assert!(check_verified(3, 4).is_err() && check_digests(1, 2).is_err());
    }

    #[test]
    fn digest_sees_every_bit() {
        assert_eq!(digest(&[cell(0.3)]), digest(&[cell(0.3)]));
        assert_ne!(digest(&[cell(0.3)]), digest(&[cell(0.30000000000000004)]));
    }
}
