//! Zero-copy streaming evaluation: reusable run buffers, lazy shuffles,
//! batched query noise, and the one batched observe loop.
//!
//! The faithful per-query engine pays three per-run costs that dominate
//! the paper's large workloads (AOL: 2,290,685 items): allocating and
//! fully shuffling a fresh permutation vector, and drawing Laplace noise
//! one `ln()` at a time. This module removes all three without changing
//! any output distribution:
//!
//! * **[`RunScratch`]** — the permutation, selection, and noise buffers
//!   live across runs; a run only rewinds them.
//! * **Sparse lazy Fisher–Yates** — the examination order is generated
//!   by [`SparseOrder`] one position at a time over an *implicit*
//!   identity permutation (displacements tracked in a hash map), so a
//!   run that aborts after `k` items pays `O(k)` total — no `O(n)`
//!   identity fill, no `O(n)` shuffle. The emitted prefix is exactly
//!   the prefix of a full [`DpRng::shuffle_forward`] (proven by
//!   property test), so the traversal order is a uniformly random
//!   permutation either way. Whole-list consumers switch the order to
//!   eager mode ([`SparseOrder::reset_eager`]): the same draws, made
//!   upfront in one tight pass.
//! * **Batched noise** — the per-query `ν` comes from a [`NoiseBuffer`]
//!   refilled block-wise via the noise family's
//!   [`BatchSample::sample_into_vectorized`] fill (the polynomial-`ln`
//!   transform for Laplace and Exponential noise), drawn from a
//!   dedicated forked generator so the handed-out noise stream is
//!   bit-identical for every batch size. EM keys keep the libm
//!   transform ([`crate::em_select`]). No scratch or driver takes a
//!   transform choice.
//!
//! ## One observe loop
//!
//! The SVT variants differ only in their noise family and in when `ρ`
//! is redrawn, so every batched driver — [`svt_select_from`],
//! [`revisited_select_from`], [`exp_noise_select_from`] and SVT-ReTr's
//! first pass — builds a `BatchedSvt` for its draw protocol and runs
//! the one lookahead window loop, `RunScratch::window_pass`.
//! [`select_streaming_from`] keeps a per-item loop: the Alg. 1–6
//! structs draw their noise from the run generator, interleaved with
//! the order steps, so a lookahead window would move drawn values.
//!
//! ## Draw protocol (the reproducibility contract)
//!
//! [`svt_select_into`] consumes randomness in this fixed order, which is
//! what makes its output a pure function of the run generator,
//! independent of noise batch size:
//!
//! 1. fork the query-noise generator off the run generator;
//! 2. draw `ρ = Lap(Δ/ε₁)` from the run generator;
//! 3. per examined position `i`: one [`DpRng::shuffle_step`] from the
//!    run generator, then one `ν = Lap(·/ε₂)` from the (buffered)
//!    noise generator.
//!
//! The other drivers document their variations on this protocol. The
//! streaming paths release set membership only (⊤/⊥ — what the
//! non-interactive selection experiments consume); the optional `ε₃`
//! numeric phase of Algorithm 7 stays on [`crate::alg::StandardSvt`]'s interactive
//! path.

use crate::alg::SparseVector;
use crate::alg::StandardSvtConfig;
use crate::em_select::EmScratch;
use crate::noninteractive::SvtSelectConfig;
use crate::session::{ChargePolicy, SessionState};
use crate::{Result, SvtError};
use dp_data::GroupedSnapshot;
use dp_mechanisms::exp_noise::Exponential;
use dp_mechanisms::laplace::Laplace;
use dp_mechanisms::{BatchSample, DpRng, NoiseBuffer};

/// Per-item score access for the streaming selection paths.
///
/// The streaming algorithms ([`svt_select_from`],
/// [`select_streaming_from`],
/// [`svt_retraversal_from`](crate::retraversal::svt_retraversal_from))
/// only ever ask two questions — how many items are there, and what is
/// item `i`'s score — so they are generic over this trait, and the
/// *same* code path serves both a dense score slice and the
/// index-preserving grouped runs of an immutable [`GroupedSnapshot`]
/// (which resolves an item through its group in `O(1)`). A snapshot is
/// epoch-stamped and never mutated after publication, so a selection
/// path holding one is *epoch-pinned*: live score updates elsewhere
/// publish new snapshots and cannot perturb an in-flight run. Two sources that report
/// `==`-equal scores for every item drive the algorithms through
/// identical comparisons and identical draws, which is what makes an
/// engine built on the grouped form emit selections **bit-identical**
/// to one built on the raw slice.
pub trait ScoreSource {
    /// Number of items.
    fn len(&self) -> usize;

    /// Whether there are no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The score of `item` (`0..len()`).
    fn score(&self, item: usize) -> f64;
}

impl ScoreSource for [f64] {
    #[inline]
    fn len(&self) -> usize {
        <[f64]>::len(self)
    }

    #[inline]
    fn score(&self, item: usize) -> f64 {
        self[item]
    }
}

impl ScoreSource for GroupedSnapshot {
    #[inline]
    fn len(&self) -> usize {
        self.len_items()
    }

    #[inline]
    fn score(&self, item: usize) -> f64 {
        self.score_of_item(item)
    }
}

/// One slot of the displacement map: occupied iff `gen` matches the
/// map's current generation.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    gen: u32,
    key: u32,
    val: u32,
}

/// Open-addressing hash map from position to displaced value, built for
/// the sparse-permutation access pattern shared by [`SparseOrder`]
/// (lazy forward Fisher–Yates) and the grouped EM sampler's
/// within-group swap-with-last draws
/// ([`EmTopC::select_grouped_into`](crate::em_select::EmTopC::select_grouped_into)),
/// and nothing else:
///
/// * **no deletions** — once position `i` has been examined it is never
///   probed again (future probes use keys `> i`), so stale entries are
///   merely dead weight that the next reset discards;
/// * **`O(1)` reset** — slots are generation-stamped; rewinding for a
///   new run just bumps the generation instead of touching memory
///   (crucial: `reset` runs once per simulation run);
/// * **single-probe upsert** — [`replace`](Self::replace) returns the
///   evicted value in the same probe sequence that stores the new one;
/// * Fibonacci hashing + linear probing at ≤ ½ load on a power-of-two
///   table, so the common miss costs one multiply and one cache line.
#[derive(Debug, Clone, Default)]
pub(crate) struct DisplacementMap {
    slots: Vec<Slot>,
    /// `slots.len() - 1`; the table is always a power of two.
    mask: usize,
    /// Bit shift taking the 64-bit hash to a table index (top bits).
    shift: u32,
    /// Occupied (current-generation) slot count.
    len: usize,
    /// Current generation stamp.
    gen: u32,
}

impl DisplacementMap {
    const MIN_CAPACITY: usize = 64;

    #[inline]
    fn bucket(&self, key: u32) -> usize {
        // Fibonacci hashing: the high bits of key · φ⁻¹·2⁶⁴ are
        // well-mixed for consecutive keys.
        ((u64::from(key).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize) & self.mask
    }

    /// Forgets every entry in O(1) by advancing the generation.
    pub(crate) fn reset(&mut self) {
        self.len = 0;
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // The stamp wrapped (once per 2³² resets): wipe physically
            // so ancient slots cannot alias the reused generation.
            self.slots.fill(Slot::default());
            self.gen = 1;
        }
    }

    /// The value displaced to `key`, if any.
    #[inline]
    pub(crate) fn get(&self, key: u32) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let mut i = self.bucket(key);
        loop {
            let s = self.slots[i];
            if s.gen != self.gen {
                return None;
            }
            if s.key == key {
                return Some(s.val);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Stores `val` at `key`, returning the value previously there (one
    /// probe sequence for lookup + insert).
    #[inline]
    pub(crate) fn replace(&mut self, key: u32, val: u32) -> Option<u32> {
        if self.slots.is_empty() || 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let mut i = self.bucket(key);
        loop {
            let s = &mut self.slots[i];
            if s.gen != self.gen {
                *s = Slot {
                    gen: self.gen,
                    key,
                    val,
                };
                self.len += 1;
                return None;
            }
            if s.key == key {
                return Some(std::mem::replace(&mut s.val, val));
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Every current-generation `(key, value)` entry, in slot order.
    /// Costs one pass over the table (`O(capacity)`), however many
    /// keys a caller cares about.
    pub(crate) fn live_entries(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let gen = self.gen;
        let live = if self.len == 0 {
            &[][..]
        } else {
            &self.slots[..]
        };
        live.iter()
            .filter(move |s| s.gen == gen)
            .map(|s| (s.key, s.val))
    }

    /// Fast-forwards the generation stamp as if `gen - self.gen` resets
    /// had happened (restamping live entries so they stay visible), so
    /// tests can drive the stamp to the wraparound boundary without
    /// 2³² literal resets.
    #[cfg(test)]
    pub(crate) fn jump_generation(&mut self, gen: u32) {
        for s in &mut self.slots {
            if s.gen == self.gen {
                s.gen = gen;
            }
        }
        self.gen = gen;
    }

    /// Current table capacity in slots (tests observe grow boundaries).
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Doubles the table (or allocates the first one) and rehashes the
    /// current generation's entries.
    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(Self::MIN_CAPACITY);
        let old = std::mem::replace(&mut self.slots, vec![Slot::default(); new_cap]);
        self.mask = new_cap - 1;
        self.shift = 64 - new_cap.trailing_zeros();
        let live = self.gen;
        if live == 0 {
            // A never-reset map: stamp must not collide with the
            // default (empty) slots of the fresh table.
            self.gen = 1;
        }
        self.len = 0;
        if live != 0 {
            for s in old {
                if s.gen == live {
                    self.replace(s.key, s.val);
                }
            }
        }
    }
}

/// A lazily generated uniformly random permutation of `0..n`.
///
/// Produces the exact value stream of a forward Fisher–Yates shuffle
/// ([`DpRng::shuffle_forward`]) — bit-identical draws, bit-identical
/// prefix — without ever materializing the identity permutation.
/// Conceptually the array starts as the identity; [`step`](Self::step)
/// performs one forward Fisher–Yates step, but untouched positions are
/// implicit (`value(j) = j`) and only *displaced* values are tracked in
/// a hash map. Stepping `k` times therefore costs `O(k)` total — time
/// **and** space — even for `n` in the millions, which is what makes an
/// early-aborting SVT run `O(examined)` end to end.
///
/// ## Densification
///
/// A run that keeps going (SVT-Revisited's per-⊤ charging examines most
/// of the list) would push the displacement map to `O(n)` entries, each
/// step paying a hash probe. Once the examined count reaches ⅛ of `n`
/// the order *densifies*: the remaining tail's conceptual values are
/// materialized into a flat array and every later step is two array
/// reads and a write. The switch draws nothing and changes no emitted
/// value — the dense step performs the identical forward Fisher–Yates
/// transition on the materialized state — so it is invisible to
/// callers (property-pinned against the pure-sparse stream). The
/// one-off `O(n)` materialization is only paid after `Ω(n)` steps,
/// keeping the `O(examined)` bound.
///
/// The emitted prefix is stored densely and can be re-read (and
/// compacted in place) by multi-pass consumers like SVT-ReTr.
///
/// ```
/// use dp_mechanisms::DpRng;
/// use svt_core::streaming::SparseOrder;
///
/// let mut full_rng = DpRng::seed_from_u64(9);
/// let mut lazy_rng = DpRng::seed_from_u64(9);
///
/// // Reference: full forward Fisher–Yates over 1000 items.
/// let mut full: Vec<u32> = (0..1000).collect();
/// full_rng.shuffle_forward(&mut full);
///
/// // Lazy: step 3 times, touching O(3) state — same prefix.
/// let mut order = SparseOrder::new();
/// order.reset(1000);
/// let prefix: Vec<u32> = (0..3).map(|_| order.step(&mut lazy_rng)).collect();
/// assert_eq!(prefix, full[..3]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SparseOrder {
    /// Positions examined so far, in examination order (the emitted
    /// permutation prefix).
    prefix: Vec<u32>,
    /// Values displaced out of the untouched suffix: position → value.
    /// Absent positions hold their identity value. Entries at already
    /// examined positions are stale and never probed again (probe keys
    /// are ≥ the next examination index), which is why the map needs no
    /// deletion support.
    displaced: DisplacementMap,
    /// Length of the conceptual permutation.
    len: usize,
    /// After densification: the conceptual values of positions
    /// `dense_from.. len`, stored flat (`dense[p - dense_from]`).
    dense: Vec<u32>,
    /// The position the dense tail starts at; `None` while sparse.
    dense_from: Option<usize>,
    /// Eager mode ([`reset_eager`](Self::reset_eager)): the whole
    /// permutation is materialized in `prefix` upfront and this counts
    /// the positions handed out so far. `None` in lazy mode.
    eager_taken: Option<usize>,
}

impl SparseOrder {
    /// Creates an empty order (call [`reset`](Self::reset) before
    /// stepping).
    pub fn new() -> Self {
        Self::default()
    }

    /// Rewinds to a fresh identity permutation of `0..n` in `O(1)`
    /// (the displacement map is generation-stamped), not `O(n)`.
    pub fn reset(&mut self, n: usize) {
        self.prefix.clear();
        self.displaced.reset();
        self.len = n;
        self.dense.clear();
        self.dense_from = None;
        self.eager_taken = None;
    }

    /// Rewinds to a fresh permutation of `0..n` and materializes *all*
    /// of it upfront with one tight forward Fisher–Yates pass — `O(n)`
    /// by design, trading the `O(examined)` bound for a much cheaper
    /// per-position cost (a sequential array read instead of a lazy
    /// step's hashing/branch bookkeeping).
    ///
    /// The pass makes exactly the draws that stepping through all `n`
    /// positions lazily would make, in the same order with the same
    /// values, so a full traversal is draw-for-draw identical under
    /// either mode. Built for whole-list consumers — SVT-Revisited's
    /// per-⊤ charging examines nearly everything — where lazy stepping
    /// only adds overhead. [`step_block`](Self::step_block) then hands
    /// out the materialized positions in order, drawing nothing, so the
    /// batched drivers walk either mode through the same window loop.
    pub fn reset_eager(&mut self, n: usize, rng: &mut DpRng) {
        self.displaced.reset();
        self.len = n;
        self.dense.clear();
        self.dense_from = None;
        self.prefix.clear();
        self.prefix.extend(0..n as u32);
        rng.shuffle_forward(&mut self.prefix);
        self.eager_taken = Some(0);
    }

    /// Number of positions emitted so far (in eager mode: handed out
    /// by [`step_block`](Self::step_block), not materialized).
    pub fn emitted(&self) -> usize {
        self.eager_taken.unwrap_or(self.prefix.len())
    }

    /// The emitted prefix, in examination order.
    pub fn prefix(&self) -> &[u32] {
        &self.prefix[..self.emitted()]
    }

    /// Emits the next position of the lazy shuffle.
    ///
    /// Draws exactly what [`DpRng::shuffle_step`] would draw at this
    /// index (one bounded draw, or none at the final position), so
    /// interleaving other draws from the same generator behaves
    /// identically under either implementation.
    ///
    /// # Panics
    /// Debug-asserts that fewer than `n` positions have been emitted.
    #[inline]
    pub fn step(&mut self, rng: &mut DpRng) -> u32 {
        debug_assert!(self.eager_taken.is_none(), "step in eager mode");
        let i = self.prefix.len();
        debug_assert!(i < self.len, "SparseOrder::step past the end");
        if self.dense_from.is_none() && (i + 1) * 8 >= self.len {
            self.densify(i);
        }
        let remaining = self.len - i;
        let picked = if let Some(base) = self.dense_from {
            // Dense tail: a plain forward Fisher–Yates step on the
            // materialized values — same draw, same transition.
            let vi = self.dense[i - base];
            if remaining > 1 {
                let j = i + rng.index(remaining);
                let v = self.dense[j - base];
                self.dense[j - base] = vi;
                v
            } else {
                vi
            }
        } else {
            let vi = self.displaced.get(i as u32).unwrap_or(i as u32);
            if remaining > 1 {
                let j = i + rng.index(remaining);
                if j == i {
                    vi
                } else {
                    // Move position i's value out to j (overwriting j's
                    // entry, whose value we take); position i itself is
                    // finished and its stale entry, if any, is never
                    // probed again.
                    self.displaced.replace(j as u32, vi).unwrap_or(j as u32)
                }
            } else {
                vi
            }
        };
        self.prefix.push(picked);
        picked
    }

    /// Emits the next `out.len()` positions of the lazy shuffle —
    /// exactly [`step`](Self::step) repeated `out.len()` times (same
    /// draws, same values) — and copies them into `out`. In eager mode
    /// it copies the next positions of the materialized order and draws
    /// nothing.
    pub fn step_block(&mut self, rng: &mut DpRng, out: &mut [u32]) {
        let start = self.emitted();
        self.advance(rng, out.len());
        out.copy_from_slice(&self.prefix[start..start + out.len()]);
    }

    /// Emits the next `m` positions onto the prefix without copying
    /// them out: the window loop reads them straight from the prefix,
    /// which measured ~10 % faster than a copy on whole-list runs. Lazy
    /// mode performs [`step`](Self::step) `m` times — but when the whole
    /// block provably stays in the sparse phase the per-step densify
    /// trigger, mode branch, and length reloads are hoisted out of the
    /// loop. Eager mode only advances the hand-out count.
    pub(crate) fn advance(&mut self, rng: &mut DpRng, m: usize) {
        let n = self.len;
        if let Some(taken) = &mut self.eager_taken {
            debug_assert!(*taken + m <= n, "SparseOrder::advance past the end");
            *taken += m;
            return;
        }
        let start = self.prefix.len();
        debug_assert!(start + m <= n, "SparseOrder::advance past the end");
        // `(i + 1) * 8 < n` for every position the block touches means
        // no step densifies, and `remaining > 1` throughout (the
        // trigger fires long before the final position).
        if self.dense_from.is_none() && (start + m) * 8 < n {
            self.prefix.reserve(m);
            for i in start..start + m {
                let vi = self.displaced.get(i as u32).unwrap_or(i as u32);
                let j = i + rng.index(n - i);
                let picked = if j == i {
                    vi
                } else {
                    self.displaced.replace(j as u32, vi).unwrap_or(j as u32)
                };
                self.prefix.push(picked);
            }
            return;
        }
        for _ in 0..m {
            self.step(rng);
        }
    }

    /// Materializes the conceptual values of positions `i..len` into the
    /// flat dense tail (see the type docs) — `O(len - i)`, once per run.
    /// The tail starts as the identity and only the displaced entries
    /// are scattered over it: one sequential fill plus one pass over
    /// the map's table instead of a hash probe per position. Entries
    /// at positions below `i` are stale (already examined) and skipped.
    fn densify(&mut self, i: usize) {
        self.dense.clear();
        self.dense.extend(i as u32..self.len as u32);
        for (key, val) in self.displaced.live_entries() {
            if let Some(slot) = (key as usize).checked_sub(i) {
                self.dense[slot] = val;
            }
        }
        self.dense_from = Some(i);
    }

    /// Drops stepped-but-unexamined positions from the prefix. The
    /// batched drivers step a small lookahead window ahead of the
    /// comparisons (see [`svt_select_from`]); a halt mid-window leaves
    /// stepped positions that were never examined, and this trims them
    /// so [`emitted`](Self::emitted)/[`prefix`](Self::prefix) report
    /// exactly the examined count. In eager mode it records that count
    /// and keeps the materialized order.
    pub(crate) fn truncate_prefix(&mut self, k: usize) {
        match &mut self.eager_taken {
            Some(taken) => *taken = k,
            None => self.prefix.truncate(k),
        }
    }
}

/// Reusable per-run buffers for the streaming evaluation paths.
///
/// Construct once per worker thread, pass to every run; nothing in here
/// is ever allocated proportional to the dataset size, and after the
/// first few runs the steady state allocates nothing at all. One
/// scratch serves every streaming path — [`svt_select_into`],
/// [`select_streaming`],
/// [`svt_retraversal_into`](crate::retraversal::svt_retraversal_into),
/// and [`EmTopC::select_into`](crate::em_select::EmTopC::select_into) —
/// with the result of the most recent run in
/// [`selected`](Self::selected).
///
/// ```
/// use dp_mechanisms::DpRng;
/// use svt_core::allocation::BudgetRatio;
/// use svt_core::em_select::EmTopC;
/// use svt_core::noninteractive::SvtSelectConfig;
/// use svt_core::streaming::{svt_select_into, RunScratch};
///
/// let scores = [900.0, 850.0, 20.0, 15.0, 10.0, 5.0];
/// let mut rng = DpRng::seed_from_u64(3);
/// let mut scratch = RunScratch::new();
///
/// // One scratch, two different engines, zero per-run allocation.
/// let cfg = SvtSelectConfig::counting(40.0, 2, BudgetRatio::OneToCTwoThirds);
/// svt_select_into(&scores, 400.0, &cfg, &mut rng, &mut scratch)?;
/// assert!(scratch.selected().len() <= 2);
///
/// let em = EmTopC::new(4.0, 2, 1.0, true)?;
/// em.select_into(&scores, &mut rng, &mut scratch)?;
/// assert_eq!(scratch.selected().len(), 2);
/// # Ok::<(), svt_core::SvtError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RunScratch {
    order: SparseOrder,
    selected: Vec<usize>,
    noise: NoiseBuffer,
    em: EmScratch,
    /// SVT-ReTr's bounded heap of `(pass, survivor position)` keys,
    /// kept across runs so the resolver allocates nothing.
    pass_keys: Vec<u64>,
    /// Threads used to prefill chunked noise streams (SVT-Revisited's
    /// whole-list runs); the stream is bit-identical for every value.
    noise_threads: usize,
}

impl RunScratch {
    /// Creates empty scratch with the default noise batch size.
    pub fn new() -> Self {
        Self::with_noise_batch(NoiseBuffer::DEFAULT_BATCH)
    }

    /// Creates empty scratch with an explicit noise batch size. The
    /// batch size never changes a selection (the [`NoiseBuffer`] stream
    /// is batch-size invariant); this knob exists for tests and tuning.
    pub fn with_noise_batch(batch: usize) -> Self {
        Self {
            order: SparseOrder::new(),
            selected: Vec::new(),
            noise: NoiseBuffer::with_batch(batch),
            em: EmScratch::new(),
            pass_keys: Vec::new(),
            noise_threads: 1,
        }
    }

    /// Sets how many threads prefill chunked noise streams (clamped to
    /// ≥ 1). Output streams are **bit-identical for every value** — the
    /// chunked derivation is thread-count-independent by construction
    /// ([`NoiseBuffer::enable_chunked`]) — so this is purely a
    /// wall-clock knob for large-`c` runs.
    pub fn set_noise_threads(&mut self, threads: usize) {
        self.noise_threads = threads.max(1);
    }

    /// The indices selected by the most recent run, in answer order.
    pub fn selected(&self) -> &[usize] {
        &self.selected
    }

    /// Number of items the most recent streaming run examined before
    /// halting — the quantity the `O(examined)` cost bound refers to.
    /// (Zero after [`EmTopC::select_into`](crate::em_select::EmTopC::select_into),
    /// which scans without an examination order.)
    pub fn examined(&self) -> usize {
        self.order.emitted()
    }

    /// Rewinds the buffers for a fresh run over `n` items: implicit
    /// identity permutation, empty selection, no stale prefetched
    /// noise. Costs `O(state touched last run)`, **not** `O(n)` — this
    /// is what makes an early-aborting run `O(examined)` end to end.
    pub(crate) fn begin_run(&mut self, n: usize) {
        self.order.reset(n);
        self.selected.clear();
        self.noise.reset();
    }

    pub(crate) fn selected_len(&self) -> usize {
        self.selected.len()
    }

    /// The emitted order prefix, the selection, and the SVT-ReTr
    /// resolver's key buffer, borrowed together for
    /// [`svt_retraversal_from`](crate::retraversal::svt_retraversal_from)'s
    /// later-pass sweep.
    pub(crate) fn retr_parts(&mut self) -> (&[u32], &mut Vec<usize>, &mut Vec<u64>) {
        (self.order.prefix(), &mut self.selected, &mut self.pass_keys)
    }

    /// One traversal of a fresh examination order through the
    /// two-deep [`LOOKAHEAD`] window pipeline — the one batched observe
    /// loop, behind [`svt_select_from`], [`revisited_select_from`],
    /// [`exp_noise_select_from`] and SVT-ReTr's first pass
    /// ([`svt_retraversal_from`](crate::retraversal::svt_retraversal_from)).
    /// The order is lazy unless the caller switched it to eager mode
    /// ([`SparseOrder::reset_eager`]) after [`begin_run`](Self::begin_run).
    /// Examines positions until `svt` halts or the order runs out,
    /// pushing each ⊤ item onto the selection, and leaves the order
    /// prefix trimmed to the examined count.
    ///
    /// With `COMPACT`, every ⊥ item is also written back to the front
    /// of the prefix in examination order, so a multi-pass caller reads
    /// the survivors as `order.prefix()[..survivors]`; the return value
    /// is that survivor count (always 0 without `COMPACT`). The writes
    /// only ever land on positions already examined, so compaction
    /// changes no draw and no emitted value.
    ///
    /// # Errors
    /// A non-finite refreshed `ρ` (SVT-Revisited only).
    pub(crate) fn window_pass<S, D, const COMPACT: bool>(
        &mut self,
        scores: &S,
        threshold: f64,
        svt: &mut BatchedSvt<D>,
        rng: &mut DpRng,
    ) -> Result<usize>
    where
        S: ScoreSource + ?Sized,
        D: BatchSample + Sync,
    {
        let n = scores.len();
        // Two-deep software pipeline over the lookahead windows: while
        // window `w` is being observed, window `w + 1` has already been
        // stepped and its score reads issued, so those cache misses (one
        // per item at AOL-scale list sizes) resolve under the observation
        // compute instead of stalling it. The draws are unchanged — order
        // steps stay the loop's only draws from `rng`, in the same order —
        // but on an early halt a lazy order has advanced `rng` by up to
        // `2 · LOOKAHEAD - 1` extra order draws. Query noise is pulled one
        // window at a time from the ν fork — same stream, and up to
        // `LOOKAHEAD - 1` values past a halt, which is unobservable: the
        // fork is discarded with `svt` and the buffer reset next run.
        let order = &mut self.order;
        let (mut vals_a, mut vals_b) = ([0.0f64; LOOKAHEAD], [0.0f64; LOOKAHEAD]);
        let mut nus = [0.0f64; LOOKAHEAD];
        let (mut cur_vals, mut nxt_vals) = (&mut vals_a, &mut vals_b);
        let mut cur_w = LOOKAHEAD.min(n);
        order.advance(rng, cur_w);
        for (k, v) in cur_vals.iter_mut().enumerate().take(cur_w) {
            *v = scores.score(order.prefix[k] as usize);
        }
        // The state lives in a local for the loop, so the comparisons
        // never reload it through `svt`.
        let mut state = svt.state;
        let mut base = 0;
        let mut examined = 0;
        let mut survivors = 0;
        'outer: while cur_w > 0 && !state.is_halted() {
            let next_base = base + cur_w;
            let next_w = LOOKAHEAD.min(n - next_base);
            order.advance(rng, next_w);
            for (k, v) in nxt_vals.iter_mut().enumerate().take(next_w) {
                *v = scores.score(order.prefix[next_base + k] as usize);
            }
            svt.take_noise(&mut self.noise, &mut nus[..cur_w]);
            for k in 0..cur_w {
                let item = order.prefix[base + k];
                examined += 1;
                // Scores are validated upstream.
                if state.observe_unchecked(cur_vals[k], threshold, nus[k]) {
                    self.selected.push(item as usize);
                    if state.needs_rho_refresh() {
                        state.refresh_rho(svt.next_rho())?;
                    }
                } else if COMPACT {
                    order.prefix[survivors] = item;
                    survivors += 1;
                }
                if state.is_halted() {
                    break 'outer;
                }
            }
            std::mem::swap(&mut cur_vals, &mut nxt_vals);
            base = next_base;
            cur_w = next_w;
        }
        svt.state = state;
        order.truncate_prefix(examined);
        Ok(survivors)
    }

    /// Rewinds for an EM selection: empty selection and a zero-length
    /// order (EM scans without an examination order, so
    /// [`examined`](Self::examined) reads 0 afterwards).
    pub(crate) fn begin_em_run(&mut self) {
        self.order.reset(0);
        self.selected.clear();
    }

    /// The EM scratch and the shared selection buffer, borrowed
    /// together for [`EmTopC::select_into`](crate::em_select::EmTopC::select_into).
    pub(crate) fn em_parts(&mut self) -> (&mut EmScratch, &mut Vec<usize>) {
        (&mut self.em, &mut self.selected)
    }
}

impl Default for RunScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Lookahead depth of the batched drivers' traversal windows: order
/// positions are examined this many at a time so the per-item score
/// reads — one random access each, a guaranteed cache miss at
/// AOL-scale list sizes — issue together and overlap in the memory
/// system. Chosen to sit near typical miss-level parallelism limits;
/// the window is a pure scheduling change (no draw moves, no output
/// changes).
const LOOKAHEAD: usize = 16;

/// The comparison core of Algorithm 7 with prefetched query noise:
/// one buffered `ν` per query from the query family `D`, halt at `c`.
/// One constructor per draw protocol: [`new`](Self::new) (SVT-S,
/// SVT-ReTr), [`revisited`](BatchedSvt::revisited) and
/// [`exp_noise`](BatchedSvt::exp_noise).
pub(crate) struct BatchedSvt<D: BatchSample + Sync = Laplace> {
    noise_rng: DpRng,
    state: SessionState,
    query_noise: D,
    /// SVT-Revisited's per-instance `ρ` law and its own generator,
    /// consulted only after a ⊤.
    refresh: Option<(Laplace, DpRng)>,
}

impl BatchedSvt {
    /// Validates exactly like [`StandardSvt::new`] and performs steps
    /// 1–2 of the module-level draw protocol.
    ///
    /// [`StandardSvt::new`]: crate::alg::StandardSvt::new
    pub(crate) fn new(config: &StandardSvtConfig, rng: &mut DpRng) -> Result<Self> {
        dp_mechanisms::error::check_sensitivity(config.sensitivity).map_err(SvtError::from)?;
        crate::error::check_cutoff(config.c)?;
        let noise_rng = rng.fork();
        let rho = Laplace::new(config.threshold_noise_scale())
            .map_err(SvtError::from)?
            .sample(rng);
        let query_noise = Laplace::new(config.query_noise_scale()).map_err(SvtError::from)?;
        Ok(Self {
            noise_rng,
            state: SessionState::new(*config, rho)?,
            query_noise,
            refresh: None,
        })
    }

    /// SVT-Revisited's protocol (see [`revisited_select_from`]): fork
    /// the query noise, fork the `ρ` refresh, draw the first `ρ` from
    /// `rng`, charge per ⊤.
    ///
    /// # Errors
    /// Configuration validation; rejects a numeric phase.
    pub(crate) fn revisited(config: &StandardSvtConfig, rng: &mut DpRng) -> Result<Self> {
        dp_mechanisms::error::check_sensitivity(config.sensitivity).map_err(SvtError::from)?;
        crate::error::check_cutoff(config.c)?;
        let query_noise = Laplace::new(config.query_noise_scale()).map_err(SvtError::from)?;
        let threshold_noise =
            Laplace::new(config.revisited_threshold_noise_scale()).map_err(SvtError::from)?;
        let noise_rng = rng.fork();
        let threshold_rng = rng.fork();
        let rho = threshold_noise.sample(rng);
        Ok(Self {
            noise_rng,
            state: SessionState::with_policy(*config, rho, ChargePolicy::PerTop)?,
            query_noise,
            refresh: Some((threshold_noise, threshold_rng)),
        })
    }
}

impl BatchedSvt<Exponential> {
    /// Exponential-noise SVT's protocol (see [`exp_noise_select_from`]):
    /// fork the query noise, then draw `ρ = Exp(Δ/ε₁)` from `rng`.
    ///
    /// # Errors
    /// Configuration validation; rejects a numeric phase (one-sided
    /// noise is not DP for numeric release).
    pub(crate) fn exp_noise(config: &StandardSvtConfig, rng: &mut DpRng) -> Result<Self> {
        dp_mechanisms::error::check_sensitivity(config.sensitivity).map_err(SvtError::from)?;
        crate::error::check_cutoff(config.c)?;
        let query_noise = Exponential::new(config.query_noise_scale()).map_err(SvtError::from)?;
        let threshold_noise =
            Exponential::new(config.threshold_noise_scale()).map_err(SvtError::from)?;
        if config.budget.has_numeric_phase() {
            return Err(SvtError::from(
                dp_mechanisms::MechanismError::InvalidParameter(
                    "one-sided exponential noise is not DP for numeric release",
                ),
            ));
        }
        let noise_rng = rng.fork();
        let rho = threshold_noise.sample(rng);
        Ok(Self {
            noise_rng,
            state: SessionState::new(*config, rho)?,
            query_noise,
            refresh: None,
        })
    }
}

impl<D: BatchSample + Sync> BatchedSvt<D> {
    /// The threshold noise `ρ` in force.
    pub(crate) fn rho(&self) -> f64 {
        self.state.rho()
    }

    /// The query-noise distribution.
    pub(crate) fn query_noise(&self) -> &D {
        &self.query_noise
    }

    /// Pulls the next `out.len()` query-noise values in one block —
    /// the same ν stream per-draw [`NoiseBuffer::next`] calls would
    /// hand out, without the per-draw buffer bookkeeping.
    #[inline]
    fn take_noise(&mut self, noise: &mut NoiseBuffer, out: &mut [f64]) {
        noise.take_into(&self.query_noise, &mut self.noise_rng, out);
    }

    /// A fresh `ρ` for the next cutoff-1 instance of an SVT-Revisited
    /// run, drawn from the refresh fork. It returns the value instead
    /// of writing the caller's state, so the window loop's local state
    /// never escapes into this out-of-line call.
    #[cold]
    fn next_rho(&mut self) -> f64 {
        let (law, rng) = self
            .refresh
            .as_mut()
            .expect("ρ is only redrawn under per-⊤ charging");
        law.sample(rng)
    }
}

/// Streaming SVT-S selection: the zero-allocation, batched-noise
/// equivalent of [`svt_select`](crate::noninteractive::svt_select).
///
/// Samples the same output distribution (a fresh uniformly random
/// examination order, Algorithm 7 against a constant threshold, abort
/// at `c` positives) but reuses `scratch` across runs, shuffles lazily
/// up to the abort point, and draws query noise block-wise. The
/// selection lands in [`RunScratch::selected`].
///
/// ```
/// use dp_mechanisms::DpRng;
/// use svt_core::allocation::BudgetRatio;
/// use svt_core::noninteractive::SvtSelectConfig;
/// use svt_core::streaming::{svt_select_into, RunScratch};
///
/// let supports = [700.0, 650.0, 30.0, 20.0, 10.0, 5.0];
/// let cfg = SvtSelectConfig::counting(40.0, 2, BudgetRatio::OneToCTwoThirds);
/// let mut rng = DpRng::seed_from_u64(11);
/// let mut scratch = RunScratch::new();
/// svt_select_into(&supports, 340.0, &cfg, &mut rng, &mut scratch)?;
/// let mut picked = scratch.selected().to_vec();
/// picked.sort_unstable();
/// assert_eq!(picked, vec![0, 1]);
/// # Ok::<(), svt_core::SvtError>(())
/// ```
///
/// # Errors
/// Propagates configuration validation.
pub fn svt_select_into(
    scores: &[f64],
    threshold: f64,
    config: &SvtSelectConfig,
    rng: &mut DpRng,
    scratch: &mut RunScratch,
) -> Result<()> {
    svt_select_from(scores, threshold, config, rng, scratch)
}

/// [`svt_select_into`] generalized over any [`ScoreSource`] — the one
/// implementation both engines of the experiment harness run.
///
/// The draw protocol (see the module docs) depends only on `len()` and
/// on the comparisons' outcomes, so two sources reporting `==`-equal
/// scores per item — e.g. a raw slice and its [`GroupedSnapshot`] — yield
/// bit-identical selections from the same generator state.
///
/// Internally the traversal runs a two-deep pipeline of
/// `LOOKAHEAD`-sized windows: order positions are stepped ahead of
/// the comparisons so their score reads issue back-to-back and the
/// cache misses resolve under the previous window's observations. The
/// pipeline changes no draw value (the order steps are the loop's only
/// draws from `rng`) and hence no selection; on an early halt it only
/// means `rng` has advanced by up to `2 · LOOKAHEAD - 1` extra order
/// draws.
///
/// # Errors
/// Propagates configuration validation.
pub fn svt_select_from<S: ScoreSource + ?Sized>(
    scores: &S,
    threshold: f64,
    config: &SvtSelectConfig,
    rng: &mut DpRng,
    scratch: &mut RunScratch,
) -> Result<()> {
    let mut svt = BatchedSvt::new(&config.to_standard()?, rng)?;
    scratch.begin_run(scores.len());
    scratch.window_pass::<S, _, false>(scores, threshold, &mut svt, rng)?;
    Ok(())
}

/// Streaming SVT-Revisited selection with batched, chunked query noise.
///
/// Samples the same output distribution as running
/// [`SvtRevisited`](crate::alg::SvtRevisited) through
/// [`select_streaming_from`] — `c` chained cutoff-1 instances, `ρ`
/// redrawn after every non-final ⊤ — but with the noise streams
/// restructured for batching (the [`SessionDriver::open_revisited`]
/// protocol):
///
/// 1. fork the query-noise generator off `rng`;
/// 2. fork the threshold-refresh generator off `rng`;
/// 3. draw the first instance's `ρ` from `rng` itself;
/// 4. draw the full examination order from `rng` with one eager
///    forward Fisher–Yates pass ([`SparseOrder::reset_eager`]) — the
///    same draws, in the same order, that lazy stepping makes over a
///    full traversal;
/// 5. per examined position: one buffered `ν` from the query fork;
///    after a non-final ⊤, a fresh `ρ` from the refresh fork.
///
/// Because SVT-Revisited typically examines most of the list (⊥s are
/// free), both expensive streams run in whole-list mode: the
/// examination order is materialized eagerly (a tight shuffle beats
/// per-step lazy bookkeeping when nearly every step happens), and the
/// query noise runs in the [`NoiseBuffer`]'s *chunked* mode — the fork
/// seeds a counter-derived chunk family prefilled by
/// [`RunScratch::set_noise_threads`] threads, bit-identical for every
/// thread count. The comparisons run through the same window loop as
/// [`svt_select_from`]; with the order already materialized, only the
/// score reads pipeline.
///
/// [`SessionDriver::open_revisited`]: crate::session::SessionDriver::open_revisited
///
/// # Errors
/// Propagates configuration validation; like
/// [`SvtRevisited::new`](crate::alg::SvtRevisited::new), rejects budgets
/// with a numeric phase.
pub fn revisited_select_from<S: ScoreSource + ?Sized>(
    scores: &S,
    threshold: f64,
    config: &SvtSelectConfig,
    rng: &mut DpRng,
    scratch: &mut RunScratch,
) -> Result<()> {
    let mut svt = BatchedSvt::revisited(&config.to_standard()?, rng)?;
    scratch.begin_run(scores.len());
    scratch.noise.enable_chunked(scratch.noise_threads);
    scratch.order.reset_eager(scores.len(), rng);
    scratch.window_pass::<S, _, false>(scores, threshold, &mut svt, rng)?;
    Ok(())
}

/// Streaming exponential-noise SVT selection with batched query noise.
///
/// Samples the same output distribution as running
/// [`ExpNoiseSvt`](crate::alg::ExpNoiseSvt) through
/// [`select_streaming_from`], with the query noise restructured for
/// batching exactly like [`svt_select_from`]'s:
///
/// 1. fork the query-noise generator off `rng`;
/// 2. draw `ρ = Exp(Δ/ε₁)` from `rng` itself;
/// 3. per examined position: one shuffle step from `rng`, one buffered
///    `ν = Exp(kcΔ/ε₂)` from the fork.
///
/// The traversal is [`svt_select_from`]'s lookahead window loop, so on
/// an early halt `rng` has advanced by the same few extra order draws.
///
/// # Errors
/// Propagates configuration validation; like
/// [`ExpNoiseSvt::new`](crate::alg::ExpNoiseSvt::new), rejects budgets
/// with a numeric phase (one-sided noise is not DP for numeric release).
pub fn exp_noise_select_from<S: ScoreSource + ?Sized>(
    scores: &S,
    threshold: f64,
    config: &SvtSelectConfig,
    rng: &mut DpRng,
    scratch: &mut RunScratch,
) -> Result<()> {
    let mut svt = BatchedSvt::exp_noise(&config.to_standard()?, rng)?;
    scratch.begin_run(scores.len());
    scratch.window_pass::<S, _, false>(scores, threshold, &mut svt, rng)?;
    Ok(())
}

/// Streaming selection for *any* [`SparseVector`] variant (Alg. 1–6 and
/// the standard SVT): lazy shuffle and reusable buffers, with the
/// variant managing its own noise through [`SparseVector::respond`].
///
/// This is the allocation-free counterpart of
/// [`run_selection`](crate::noninteractive::select_with); it exists so
/// order-dependent variants (SVT-DPBook's per-⊤ threshold refresh) get
/// the zero-copy treatment too, even though their noise cannot be
/// prefetched.
///
/// ```
/// use dp_mechanisms::DpRng;
/// use svt_core::alg::Alg2;
/// use svt_core::streaming::{select_streaming, RunScratch};
///
/// let scores = vec![1e6f64; 20];
/// let mut rng = DpRng::seed_from_u64(5);
/// let mut alg = Alg2::new(1.0, 1.0, 3, &mut rng)?; // SVT-DPBook, c = 3
/// let mut scratch = RunScratch::new();
/// select_streaming(&mut alg, &scores, 0.0, &mut rng, &mut scratch)?;
/// assert_eq!(scratch.selected().len(), 3);
/// # Ok::<(), svt_core::SvtError>(())
/// ```
///
/// # Errors
/// Propagates the first error from [`SparseVector::respond`].
pub fn select_streaming<A: SparseVector + ?Sized>(
    alg: &mut A,
    scores: &[f64],
    threshold: f64,
    rng: &mut DpRng,
    scratch: &mut RunScratch,
) -> Result<()> {
    select_streaming_from(alg, scores, threshold, rng, scratch)
}

/// [`select_streaming`] generalized over any [`ScoreSource`], so even
/// order-dependent variants (SVT-DPBook's per-⊤ threshold refresh) can
/// run off the grouped score runs with draws — and hence selections —
/// bit-identical to the dense path.
///
/// # Errors
/// Propagates the first error from [`SparseVector::respond`].
pub fn select_streaming_from<A: SparseVector + ?Sized, S: ScoreSource + ?Sized>(
    alg: &mut A,
    scores: &S,
    threshold: f64,
    rng: &mut DpRng,
    scratch: &mut RunScratch,
) -> Result<()> {
    scratch.begin_run(scores.len());
    for _ in 0..scores.len() {
        if alg.is_halted() {
            break;
        }
        let item = scratch.order.step(rng) as usize;
        let answer = alg.respond(scores.score(item), threshold, rng)?;
        if answer.is_positive() {
            scratch.selected.push(item);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg::Alg1;
    use crate::allocation::BudgetRatio;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn sparse_order_prefix_is_bit_identical_to_fisher_yates(
            seed in any::<u64>(),
            n in 1usize..300,
            k_frac in 0.0f64..1.0,
        ) {
            // The load-bearing property: stepping the sparse lazy
            // shuffle k times emits exactly the first k elements of the
            // dense forward Fisher–Yates stream, consuming exactly the
            // same draws.
            let k = ((n as f64) * k_frac).round() as usize;
            let k = k.min(n);
            let mut dense_rng = DpRng::seed_from_u64(seed);
            let mut dense: Vec<u32> = (0..n as u32).collect();
            for i in 0..k {
                dense_rng.shuffle_step(&mut dense, i);
            }
            let mut lazy_rng = DpRng::seed_from_u64(seed);
            let mut order = SparseOrder::new();
            order.reset(n);
            let emitted: Vec<u32> = (0..k).map(|_| order.step(&mut lazy_rng)).collect();
            prop_assert_eq!(&emitted[..], &dense[..k]);
            // Identical randomness consumed: lockstep afterwards.
            prop_assert_eq!(dense_rng.next_u64(), lazy_rng.next_u64());
        }

        #[test]
        fn sparse_order_full_run_matches_shuffle_forward(
            seed in any::<u64>(),
            n in 1usize..300,
        ) {
            let mut lazy_rng = DpRng::seed_from_u64(seed);
            let mut order = SparseOrder::new();
            order.reset(n);
            let mut emitted: Vec<u32> = (0..n).map(|_| order.step(&mut lazy_rng)).collect();
            let mut full_rng = DpRng::seed_from_u64(seed);
            let mut full: Vec<u32> = (0..n as u32).collect();
            full_rng.shuffle_forward(&mut full);
            prop_assert_eq!(&emitted[..], &full[..]);
            // And it is a permutation of 0..n.
            emitted.sort_unstable();
            prop_assert_eq!(emitted, (0..n as u32).collect::<Vec<_>>());
        }

        #[test]
        fn step_block_is_stream_identical_to_per_step(
            seed in any::<u64>(),
            n in 1usize..300,
            first_block in 1usize..40,
        ) {
            // Blocked stepping (the drivers' lookahead fill) must emit
            // the same values from the same draws as one-at-a-time
            // stepping, across sparse, boundary, and dense blocks.
            let mut block_rng = DpRng::seed_from_u64(seed);
            let mut blocked = SparseOrder::new();
            blocked.reset(n);
            let mut got = vec![0u32; n];
            let mut done = 0;
            let mut w = first_block;
            while done < n {
                let take = w.min(n - done);
                blocked.step_block(&mut block_rng, &mut got[done..done + take]);
                done += take;
                w = (w * 2) % 37 + 1;
            }
            let mut step_rng = DpRng::seed_from_u64(seed);
            let mut stepped = SparseOrder::new();
            stepped.reset(n);
            let want: Vec<u32> = (0..n).map(|_| stepped.step(&mut step_rng)).collect();
            prop_assert_eq!(&got[..], &want[..]);
            prop_assert_eq!(blocked.prefix(), &want[..]);
            prop_assert_eq!(block_rng.next_u64(), step_rng.next_u64());
        }

        #[test]
        fn reset_eager_matches_full_lazy_traversal(
            seed in any::<u64>(),
            n in 1usize..300,
        ) {
            // The eager mode draws the whole order upfront; over a full
            // traversal that is draw-for-draw identical to stepping.
            let mut eager_rng = DpRng::seed_from_u64(seed);
            let mut eager = SparseOrder::new();
            eager.reset_eager(n, &mut eager_rng);
            let mut got = vec![0u32; n];
            eager.step_block(&mut eager_rng, &mut got);
            let mut step_rng = DpRng::seed_from_u64(seed);
            let mut stepped = SparseOrder::new();
            stepped.reset(n);
            let want: Vec<u32> = (0..n).map(|_| stepped.step(&mut step_rng)).collect();
            prop_assert_eq!(&got[..], &want[..]);
            prop_assert_eq!(eager.prefix(), &want[..]);
            prop_assert_eq!(eager.emitted(), n);
            prop_assert_eq!(eager_rng.next_u64(), step_rng.next_u64());
        }

        #[test]
        fn densify_after_map_growth_matches_fisher_yates(
            seed in any::<u64>(),
            n in 400usize..2500,
            prev in 0usize..6000,
        ) {
            // The n/8 densify trigger is crossed after the displacement
            // map has outgrown its first table, both on a fresh order
            // and on one whose table still holds an earlier run's
            // stale slots: the dense tail must be exactly the sparse
            // state, so the whole stream still matches a full forward
            // Fisher–Yates.
            let mut order = SparseOrder::new();
            order.reset(prev);
            let mut warm_rng = DpRng::seed_from_u64(!seed);
            for _ in 0..prev {
                order.step(&mut warm_rng);
            }
            let mut lazy_rng = DpRng::seed_from_u64(seed);
            order.reset(n);
            let trigger = n.div_ceil(8) - 1;
            let mut emitted: Vec<u32> = (0..trigger).map(|_| order.step(&mut lazy_rng)).collect();
            prop_assert!(order.displaced.capacity() > DisplacementMap::MIN_CAPACITY);
            prop_assert!(order.dense_from.is_none());
            emitted.extend((trigger..n).map(|_| order.step(&mut lazy_rng)));
            prop_assert_eq!(order.dense_from, Some(trigger));
            let mut full_rng = DpRng::seed_from_u64(seed);
            let mut full: Vec<u32> = (0..n as u32).collect();
            full_rng.shuffle_forward(&mut full);
            prop_assert_eq!(&emitted[..], &full[..]);
            prop_assert_eq!(lazy_rng.next_u64(), full_rng.next_u64());
        }

        #[test]
        fn sparse_order_reset_reuse_is_clean(
            seed in any::<u64>(),
            n1 in 1usize..200,
            n2 in 1usize..200,
            k_frac in 0.0f64..1.0,
        ) {
            // Reusing the same SparseOrder across runs of different
            // sizes must behave exactly like a fresh one.
            let k1 = (((n1 as f64) * k_frac).round() as usize).min(n1);
            let mut order = SparseOrder::new();
            order.reset(n1);
            let mut rng = DpRng::seed_from_u64(seed ^ 0xabcd);
            for _ in 0..k1 {
                order.step(&mut rng);
            }
            let mut reused_rng = DpRng::seed_from_u64(seed);
            order.reset(n2);
            let reused: Vec<u32> = (0..n2).map(|_| order.step(&mut reused_rng)).collect();
            let mut fresh_rng = DpRng::seed_from_u64(seed);
            let mut fresh = SparseOrder::new();
            fresh.reset(n2);
            let want: Vec<u32> = (0..n2).map(|_| fresh.step(&mut fresh_rng)).collect();
            prop_assert_eq!(reused, want);
        }
    }

    proptest! {
        #[test]
        fn displacement_map_matches_hash_map_model_across_resets(
            ops in proptest::collection::vec(0u32..64_000, 1..400),
            reset_every in 1usize..80,
        ) {
            // Model-based pinning of the sparse-swap machinery the
            // engines lean on: interleaved replace/get/reset against a
            // std HashMap. The tight key range forces heavy bucket
            // collisions, and the op count crosses several grow
            // boundaries (64 → 128 → 256 slots), so linear probing is
            // exercised right up to the ≤ ½ load limit.
            let mut map = DisplacementMap::default();
            let mut model: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
            for (i, &op) in ops.iter().enumerate() {
                // 64 hot keys × 1000 values, packed into one u32 (the
                // vendored proptest has no tuple strategies).
                let (key, val) = (op % 64, op / 64);
                if i % reset_every == reset_every - 1 {
                    map.reset();
                    model.clear();
                }
                prop_assert_eq!(map.get(key), model.get(&key).copied(), "pre-insert get");
                let evicted = map.replace(key, val);
                let model_evicted = model.insert(key, val);
                prop_assert_eq!(evicted, model_evicted, "replace must return the prior value");
                prop_assert_eq!(map.get(key), Some(val));
            }
            for key in 0u32..64 {
                prop_assert_eq!(map.get(key), model.get(&key).copied(), "final sweep");
            }
        }

        #[test]
        fn displacement_map_generation_wraparound_cannot_alias(
            keys in proptest::collection::vec(0u32..200, 1..60),
            gens_from_wrap in 0u32..3,
        ) {
            // Drive the stamp to (or next to) u32::MAX, fill the map,
            // then reset across the wraparound boundary: the wrap path
            // must physically wipe the table so no pre-wrap entry can
            // alias a post-wrap generation, and the map must keep
            // working through further resets.
            let mut map = DisplacementMap::default();
            map.jump_generation(u32::MAX - gens_from_wrap);
            for (i, &k) in keys.iter().enumerate() {
                map.replace(k, i as u32);
            }
            for _ in 0..=gens_from_wrap {
                map.reset();
                for &k in &keys {
                    prop_assert_eq!(map.get(k), None, "entry survived a reset");
                }
            }
            // Post-wrap inserts behave like a fresh map.
            for (i, &k) in keys.iter().enumerate() {
                map.replace(k, i as u32 + 7000);
            }
            let mut last_val_of = std::collections::HashMap::new();
            for (i, &k) in keys.iter().enumerate() {
                last_val_of.insert(k, i as u32 + 7000);
            }
            for (&k, &v) in &last_val_of {
                prop_assert_eq!(map.get(k), Some(v));
            }
        }

        #[test]
        fn displacement_map_survives_growth_at_full_load(
            extra in 0usize..40,
            stride in 1u32..5000,
        ) {
            // Fill to exactly the ≤ ½ load boundary of the current
            // table, then keep inserting with a fixed key stride (the
            // worst case for Fibonacci hashing is a regular lattice):
            // every entry must remain retrievable across each grow's
            // rehash, and capacity must stay a power of two at ≤ ½
            // load.
            let mut map = DisplacementMap::default();
            let mut n = 0u32;
            // First grow happens on the first insert; fill to half of
            // the minimum table, then `extra` more.
            let target = 32 + extra;
            while (n as usize) < target {
                map.replace(n.wrapping_mul(stride), n);
                n += 1;
                let cap = map.capacity();
                prop_assert!(cap.is_power_of_two());
                prop_assert!(2 * (n as usize) <= cap, "load factor exceeded ½");
            }
            for i in 0..n {
                prop_assert_eq!(map.get(i.wrapping_mul(stride)), Some(i), "key {} lost", i);
            }
        }
    }

    #[test]
    fn grouped_source_drives_svt_bit_identically_to_dense_slice() {
        // The keystone of the engine unification: the same generic
        // selection run off a raw slice and off its GroupedSnapshot form
        // consumes identical draws and emits identical selections.
        let scores: Vec<f64> = (0..3000).map(|i| f64::from(i % 101) * 2.0).collect();
        let groups = dp_data::GroupedSnapshot::from_scores(&scores).unwrap();
        let cfg = counting(0.8, 20);
        for seed in [7u64, 1009, 0xdead_beef] {
            let mut rng_a = DpRng::seed_from_u64(seed);
            let mut scratch_a = RunScratch::new();
            svt_select_from(&scores[..], 150.0, &cfg, &mut rng_a, &mut scratch_a).unwrap();
            let mut rng_b = DpRng::seed_from_u64(seed);
            let mut scratch_b = RunScratch::new();
            svt_select_from(&groups, 150.0, &cfg, &mut rng_b, &mut scratch_b).unwrap();
            assert_eq!(scratch_a.selected(), scratch_b.selected(), "seed {seed}");
            assert_eq!(scratch_a.examined(), scratch_b.examined(), "seed {seed}");
            // Identical randomness consumed: lockstep afterwards.
            assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "seed {seed}");
        }
    }

    fn counting(epsilon: f64, c: usize) -> SvtSelectConfig {
        SvtSelectConfig::counting(epsilon, c, BudgetRatio::OneToCTwoThirds)
    }

    #[test]
    fn select_into_respects_cutoff_and_uniqueness() {
        let scores: Vec<f64> = (0..300).map(f64::from).collect();
        let mut rng = DpRng::seed_from_u64(1009);
        let mut scratch = RunScratch::new();
        for _ in 0..20 {
            svt_select_into(&scores, 250.0, &counting(5.0, 10), &mut rng, &mut scratch).unwrap();
            assert!(scratch.selected().len() <= 10);
            let mut d = scratch.selected().to_vec();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), scratch.selected().len());
        }
    }

    #[test]
    fn select_into_finds_clear_winners() {
        let mut scores = vec![0.0f64; 500];
        for s in scores.iter_mut().take(5) {
            *s = 1e6;
        }
        let cfg = SvtSelectConfig::counting(100.0, 5, BudgetRatio::OneToOne);
        let mut rng = DpRng::seed_from_u64(1013);
        let mut scratch = RunScratch::new();
        svt_select_into(&scores, 5e5, &cfg, &mut rng, &mut scratch).unwrap();
        let mut sel = scratch.selected().to_vec();
        sel.sort_unstable();
        assert_eq!(sel, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn select_into_is_noise_batch_size_invariant() {
        // The whole point of the forked-noise protocol: prefetching more
        // or less noise must not change a single selection.
        let scores: Vec<f64> = (0..2000).map(|i| (i % 97) as f64 * 3.0).collect();
        let cfg = counting(0.7, 25);
        let reference = {
            let mut rng = DpRng::seed_from_u64(4242);
            let mut scratch = RunScratch::with_noise_batch(1);
            svt_select_into(&scores, 150.0, &cfg, &mut rng, &mut scratch).unwrap();
            scratch.selected().to_vec()
        };
        for batch in [2usize, 7, 64, 256, 4096] {
            let mut rng = DpRng::seed_from_u64(4242);
            let mut scratch = RunScratch::with_noise_batch(batch);
            svt_select_into(&scores, 150.0, &cfg, &mut rng, &mut scratch).unwrap();
            assert_eq!(scratch.selected(), &reference[..], "batch {batch}");
        }
    }

    #[test]
    fn select_into_is_seed_deterministic_and_scratch_reuse_is_clean() {
        let scores: Vec<f64> = (0..1000).map(|i| f64::from(i % 51)).collect();
        let cfg = counting(1.0, 15);
        let run = |scratch: &mut RunScratch, seed: u64| {
            let mut rng = DpRng::seed_from_u64(seed);
            svt_select_into(&scores, 40.0, &cfg, &mut rng, scratch).unwrap();
            scratch.selected().to_vec()
        };
        let mut fresh_each_time = RunScratch::new();
        let a = run(&mut fresh_each_time, 7);
        // A dirty scratch (just used for a different seed) must not leak
        // state into the next run.
        let mut reused = RunScratch::new();
        run(&mut reused, 99);
        let b = run(&mut reused, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn select_into_matches_scalar_engine_distribution() {
        // The streaming path is a different (lazier) sampler of the same
        // distribution as `svt_select`; their mean selection sizes must
        // agree statistically.
        let scores: Vec<f64> = (0..400).map(f64::from).collect();
        let cfg = counting(0.5, 10);
        let runs = 400;
        let mut rng_a = DpRng::seed_from_u64(31337);
        let mut rng_b = DpRng::seed_from_u64(97531);
        let mut scratch = RunScratch::new();
        let mut mean_new = 0.0;
        let mut mean_old = 0.0;
        for _ in 0..runs {
            svt_select_into(&scores, 350.0, &cfg, &mut rng_a, &mut scratch).unwrap();
            mean_new += scratch.selected().len() as f64;
            mean_old += crate::noninteractive::svt_select(&scores, 350.0, &cfg, &mut rng_b)
                .unwrap()
                .len() as f64;
        }
        mean_new /= runs as f64;
        mean_old /= runs as f64;
        assert!(
            (mean_new - mean_old).abs() < 1.0,
            "streaming {mean_new} vs scalar {mean_old}"
        );
    }

    #[test]
    fn generic_streaming_path_works_for_interactive_variants() {
        let mut rng = DpRng::seed_from_u64(1021);
        let mut alg = Alg1::new(50.0, 1.0, 3, &mut rng).unwrap();
        let scores = vec![1e9f64; 30];
        let mut scratch = RunScratch::new();
        select_streaming(&mut alg, &scores, 0.0, &mut rng, &mut scratch).unwrap();
        assert_eq!(scratch.selected().len(), 3);
        assert!(alg.is_halted());
    }

    #[test]
    fn examined_reads_zero_after_an_em_selection() {
        // Mixed-algorithm scratch reuse (the sweep-runner pattern): an
        // EM selection must not leave a previous streaming run's
        // examined count behind.
        let scores: Vec<f64> = (0..500).map(f64::from).collect();
        let mut rng = DpRng::seed_from_u64(1033);
        let mut scratch = RunScratch::new();
        svt_select_into(&scores, 400.0, &counting(2.0, 5), &mut rng, &mut scratch).unwrap();
        assert!(scratch.examined() > 0);
        let em = crate::em_select::EmTopC::new(1.0, 5, 1.0, true).unwrap();
        em.select_into(&scores, &mut rng, &mut scratch).unwrap();
        assert_eq!(scratch.examined(), 0);
        assert_eq!(scratch.selected().len(), 5);
    }

    #[test]
    fn empty_scores_select_nothing() {
        let mut rng = DpRng::seed_from_u64(1031);
        let mut scratch = RunScratch::new();
        svt_select_into(&[], 0.0, &counting(1.0, 5), &mut rng, &mut scratch).unwrap();
        assert!(scratch.selected().is_empty());
    }

    #[test]
    fn scratch_constructors_differ_only_in_noise_batch_size() {
        // `new()` and `with_noise_batch(b)` build the same scratch up to
        // the refill size, so every streaming path selects the same
        // items from the same generator under any of them.
        let scores = driver_golden_scores();
        let groups = dp_data::GroupedSnapshot::from_scores(&scores).unwrap();
        let cfg = counting(1.0, 5);
        let retr = crate::retraversal::RetraversalConfig::paper(1.0, 5, 1.0);
        let em = crate::em_select::EmTopC::new(1.0, 5, 2.0, true).unwrap();
        let run_all = |scratch: &mut RunScratch, seed: u64| {
            let mut rng = DpRng::seed_from_u64(seed);
            let mut out = Vec::new();
            svt_select_into(&scores, 430.0, &cfg, &mut rng, scratch).unwrap();
            out.push((scratch.selected().to_vec(), scratch.examined()));
            revisited_select_from(&scores[..], 430.0, &cfg, &mut rng, scratch).unwrap();
            out.push((scratch.selected().to_vec(), scratch.examined()));
            exp_noise_select_from(&groups, 430.0, &cfg, &mut rng, scratch).unwrap();
            out.push((scratch.selected().to_vec(), scratch.examined()));
            crate::retraversal::svt_retraversal_from(&scores[..], 430.0, &retr, &mut rng, scratch)
                .unwrap();
            out.push((scratch.selected().to_vec(), scratch.examined()));
            em.select_into(&scores, &mut rng, scratch).unwrap();
            out.push((scratch.selected().to_vec(), scratch.examined()));
            em.select_grouped_into(&groups, &mut rng, scratch).unwrap();
            out.push((scratch.selected().to_vec(), scratch.examined()));
            out
        };
        for seed in [5u64, 41] {
            let want = run_all(&mut RunScratch::new(), seed);
            assert!(want.iter().all(|(sel, _)| !sel.is_empty()), "seed {seed}");
            for batch in [1usize, 7, 4096] {
                let got = run_all(&mut RunScratch::with_noise_batch(batch), seed);
                assert_eq!(got, want, "batch {batch}, seed {seed}");
            }
        }
    }

    #[test]
    fn revisited_driver_is_noise_thread_count_invariant() {
        // The whole point of the chunked derivation: more prefill
        // threads must not change one bit of the output.
        let scores: Vec<f64> = (0..5000).map(|i| (i % 89) as f64 * 4.0).collect();
        let cfg = counting(0.5, 12);
        let reference = {
            let mut rng = DpRng::seed_from_u64(777);
            let mut scratch = RunScratch::new();
            revisited_select_from(&scores[..], 170.0, &cfg, &mut rng, &mut scratch).unwrap();
            (scratch.selected().to_vec(), scratch.examined())
        };
        assert!(reference.1 > 0);
        for threads in [2usize, 4, 8] {
            let mut rng = DpRng::seed_from_u64(777);
            let mut scratch = RunScratch::new();
            scratch.set_noise_threads(threads);
            revisited_select_from(&scores[..], 170.0, &cfg, &mut rng, &mut scratch).unwrap();
            assert_eq!(scratch.selected(), &reference.0[..], "threads {threads}");
            assert_eq!(scratch.examined(), reference.1, "threads {threads}");
        }
    }

    #[test]
    fn revisited_driver_matches_interactive_variant_distribution() {
        // The batched driver restructures the noise streams (forked +
        // chunked) but must sample the same output law as SvtRevisited
        // driven through the generic streaming path.
        let scores: Vec<f64> = (0..600).map(|i| (i % 40) as f64 * 5.0).collect();
        let cfg = counting(0.6, 8);
        let std_cfg = cfg.to_standard().unwrap();
        let runs = 300;
        let mut rng_a = DpRng::seed_from_u64(31);
        let mut rng_b = DpRng::seed_from_u64(407);
        let mut scratch = RunScratch::new();
        let mut mean_new = 0.0;
        let mut mean_old = 0.0;
        for _ in 0..runs {
            revisited_select_from(&scores[..], 120.0, &cfg, &mut rng_a, &mut scratch).unwrap();
            mean_new += scratch.selected().len() as f64;
            let mut alg = crate::alg::SvtRevisited::new(std_cfg, &mut rng_b).unwrap();
            select_streaming_from(&mut alg, &scores[..], 120.0, &mut rng_b, &mut scratch).unwrap();
            mean_old += scratch.selected().len() as f64;
        }
        mean_new /= runs as f64;
        mean_old /= runs as f64;
        assert!(
            (mean_new - mean_old).abs() < 0.6,
            "batched {mean_new} vs interactive {mean_old}"
        );
    }

    #[test]
    fn revisited_driver_respects_cutoff_and_halts() {
        let scores = vec![1e9f64; 40];
        let cfg = counting(1.0, 3);
        let mut rng = DpRng::seed_from_u64(1041);
        let mut scratch = RunScratch::new();
        revisited_select_from(&scores[..], 0.0, &cfg, &mut rng, &mut scratch).unwrap();
        assert_eq!(scratch.selected().len(), 3);
        assert_eq!(scratch.examined(), 3, "halt must stop the traversal");
    }

    #[test]
    fn exp_noise_driver_matches_interactive_variant_distribution() {
        let scores: Vec<f64> = (0..600).map(|i| (i % 40) as f64 * 5.0).collect();
        let cfg = counting(0.6, 8);
        let std_cfg = cfg.to_standard().unwrap();
        let runs = 300;
        let mut rng_a = DpRng::seed_from_u64(67);
        let mut rng_b = DpRng::seed_from_u64(733);
        let mut scratch = RunScratch::new();
        let mut mean_new = 0.0;
        let mut mean_old = 0.0;
        for _ in 0..runs {
            exp_noise_select_from(&scores[..], 120.0, &cfg, &mut rng_a, &mut scratch).unwrap();
            mean_new += scratch.selected().len() as f64;
            let mut alg = crate::alg::ExpNoiseSvt::new(std_cfg, &mut rng_b).unwrap();
            select_streaming_from(&mut alg, &scores[..], 120.0, &mut rng_b, &mut scratch).unwrap();
            mean_old += scratch.selected().len() as f64;
        }
        mean_new /= runs as f64;
        mean_old /= runs as f64;
        assert!(
            (mean_new - mean_old).abs() < 0.6,
            "batched {mean_new} vs interactive {mean_old}"
        );
    }

    #[test]
    fn new_drivers_work_from_grouped_snapshots_bit_identically() {
        // Same keystone as the standard driver: slice and snapshot
        // sources consume identical draws.
        let scores: Vec<f64> = (0..3000).map(|i| f64::from(i % 101) * 2.0).collect();
        let groups = dp_data::GroupedSnapshot::from_scores(&scores).unwrap();
        let cfg = counting(0.8, 10);
        for seed in [7u64, 1009] {
            let mut rng_a = DpRng::seed_from_u64(seed);
            let mut scratch_a = RunScratch::new();
            revisited_select_from(&scores[..], 150.0, &cfg, &mut rng_a, &mut scratch_a).unwrap();
            let mut rng_b = DpRng::seed_from_u64(seed);
            let mut scratch_b = RunScratch::new();
            revisited_select_from(&groups, 150.0, &cfg, &mut rng_b, &mut scratch_b).unwrap();
            assert_eq!(scratch_a.selected(), scratch_b.selected(), "rv seed {seed}");
            let mut rng_a = DpRng::seed_from_u64(seed);
            exp_noise_select_from(&scores[..], 150.0, &cfg, &mut rng_a, &mut scratch_a).unwrap();
            let mut rng_b = DpRng::seed_from_u64(seed);
            exp_noise_select_from(&groups, 150.0, &cfg, &mut rng_b, &mut scratch_b).unwrap();
            assert_eq!(
                scratch_a.selected(),
                scratch_b.selected(),
                "exp seed {seed}"
            );
        }
    }

    /// Deterministic 12,007-item scores for the recorded driver runs:
    /// 211 distinct values, and a length that is not a multiple of the
    /// lookahead window.
    fn driver_golden_scores() -> Vec<f64> {
        (0..12_007)
            .map(|i| f64::from((i * 37) % 211) * 2.0)
            .collect()
    }

    /// SVT-Revisited runs recorded from the driver's original private
    /// pipeline: `(epsilon, c, threshold, seed, examined, selection)`
    /// over [`driver_golden_scores`] with the `1 : c^{2/3}` ratio.
    #[allow(clippy::type_complexity)]
    const RV_GOLDENS: &[(f64, usize, f64, u64, usize, &[usize])] = &[
        (1.0, 5, 400.0, 3, 60, &[10607, 279, 10561, 5828, 11753]),
        (1.0, 5, 400.0, 17, 86, &[6398, 8092, 1591, 8662, 6267]),
        (
            0.5,
            25,
            380.0,
            3,
            12_007,
            &[
                3045, 5695, 2489, 5713, 11490, 3261, 1975, 10997, 3369, 6595, 11101, 5508,
            ],
        ),
        (
            0.3,
            12,
            430.0,
            17,
            12_007,
            &[2245, 91, 2098, 2192, 11785, 3877],
        ),
        (2.0, 3, 300.0, 5, 8, &[45, 7909, 10578]),
        (
            0.1,
            8,
            450.0,
            9,
            3143,
            &[6409, 11570, 6962, 10680, 136, 11046, 1212, 3928],
        ),
    ];

    /// Exponential-noise SVT runs recorded from the driver's original
    /// one-ν-at-a-time loop, in the [`RV_GOLDENS`] layout. The longer
    /// runs cross the order's densify trigger (n/8) or never halt.
    #[allow(clippy::type_complexity)]
    const EXP_GOLDENS: &[(f64, usize, f64, u64, usize, &[usize])] = &[
        (1.0, 5, 400.0, 3, 69, &[4391, 5828, 1682, 11753, 2509]),
        (
            1.0,
            10,
            380.0,
            17,
            55,
            &[8114, 8388, 8565, 7681, 11576, 9871, 1830, 6244, 10253, 8092],
        ),
        (
            0.5,
            25,
            380.0,
            3,
            172,
            &[
                8226, 883, 11097, 4391, 2959, 11307, 2073, 10759, 5828, 5810, 1682, 323, 10270,
                752, 11753, 2509, 7361, 9112, 6592, 188, 2576, 9797, 1397, 4395, 501,
            ],
        ),
        (2.0, 3, 300.0, 5, 9, &[3460, 7909, 10578]),
        (
            0.1,
            8,
            450.0,
            9,
            77,
            &[3272, 2205, 11570, 7698, 8913, 1476, 6714, 2212],
        ),
        (1.0, 5, 430.0, 3, 1489, &[6387, 1112, 6039, 4699, 8554]),
        (1.0, 5, 440.0, 11, 8724, &[11354, 11508, 9974, 1146, 3644]),
        (2.0, 3, 425.0, 7, 7062, &[6809, 4277, 1112]),
        (1.0, 5, 450.0, 11, 12_007, &[]),
    ];

    #[test]
    fn revisited_runs_match_recorded_selections() {
        // Same selection and examined count from a slice and from its
        // grouped snapshot, at the default and a 1-value noise batch and
        // with 1 or 4 noise threads.
        let scores = driver_golden_scores();
        let groups = dp_data::GroupedSnapshot::from_scores(&scores).unwrap();
        for &(eps, c, threshold, seed, examined, want) in RV_GOLDENS {
            let cfg = counting(eps, c);
            for threads in [1usize, 4] {
                for mut scratch in [RunScratch::new(), RunScratch::with_noise_batch(1)] {
                    scratch.set_noise_threads(threads);
                    let mut rng = DpRng::seed_from_u64(seed);
                    revisited_select_from(&scores[..], threshold, &cfg, &mut rng, &mut scratch)
                        .unwrap();
                    assert_eq!(scratch.selected(), want, "slice, seed {seed}, {threads}t");
                    assert_eq!(
                        scratch.examined(),
                        examined,
                        "slice, seed {seed}, {threads}t"
                    );
                    let mut rng = DpRng::seed_from_u64(seed);
                    revisited_select_from(&groups, threshold, &cfg, &mut rng, &mut scratch)
                        .unwrap();
                    assert_eq!(scratch.selected(), want, "grouped, seed {seed}, {threads}t");
                    assert_eq!(scratch.examined(), examined, "grouped, seed {seed}");
                }
            }
        }
    }

    #[test]
    fn exp_noise_runs_match_recorded_selections() {
        let scores = driver_golden_scores();
        let groups = dp_data::GroupedSnapshot::from_scores(&scores).unwrap();
        for &(eps, c, threshold, seed, examined, want) in EXP_GOLDENS {
            let cfg = counting(eps, c);
            for mut scratch in [RunScratch::new(), RunScratch::with_noise_batch(1)] {
                let mut rng = DpRng::seed_from_u64(seed);
                exp_noise_select_from(&scores[..], threshold, &cfg, &mut rng, &mut scratch)
                    .unwrap();
                assert_eq!(scratch.selected(), want, "slice, seed {seed}");
                assert_eq!(scratch.examined(), examined, "slice, seed {seed}");
                let mut rng = DpRng::seed_from_u64(seed);
                exp_noise_select_from(&groups, threshold, &cfg, &mut rng, &mut scratch).unwrap();
                assert_eq!(scratch.selected(), want, "grouped, seed {seed}");
                assert_eq!(scratch.examined(), examined, "grouped, seed {seed}");
            }
        }
    }

    #[test]
    fn exp_noise_driver_is_noise_batch_size_invariant() {
        let scores = driver_golden_scores();
        let cfg = counting(1.0, 5);
        let run = |batch: usize, seed: u64| {
            let mut rng = DpRng::seed_from_u64(seed);
            let mut scratch = RunScratch::with_noise_batch(batch);
            exp_noise_select_from(&scores[..], 440.0, &cfg, &mut rng, &mut scratch).unwrap();
            (scratch.selected().to_vec(), scratch.examined())
        };
        for seed in [3u64, 11, 29] {
            let reference = run(1, seed);
            for batch in [4usize, 256, 2048] {
                assert_eq!(run(batch, seed), reference, "batch {batch}, seed {seed}");
            }
        }
    }

    #[test]
    fn exp_noise_driver_respects_cutoff_and_halts() {
        let scores = vec![1e9f64; 40];
        let mut rng = DpRng::seed_from_u64(1051);
        let mut scratch = RunScratch::new();
        exp_noise_select_from(&scores[..], 0.0, &counting(1.0, 3), &mut rng, &mut scratch).unwrap();
        assert_eq!(scratch.selected().len(), 3);
        assert_eq!(scratch.examined(), 3, "halt must stop the traversal");
    }

    #[test]
    fn batched_drivers_examine_everything_when_nothing_crosses() {
        // A threshold far above every score: each driver walks the
        // whole list, selects nothing, and reports n examined (the
        // eager order included).
        let scores: Vec<f64> = (0..1000).map(f64::from).collect();
        let cfg = counting(1.0, 4);
        let mut rng = DpRng::seed_from_u64(1061);
        let mut scratch = RunScratch::new();
        svt_select_from(&scores[..], 1e9, &cfg, &mut rng, &mut scratch).unwrap();
        assert_eq!((scratch.selected().len(), scratch.examined()), (0, 1000));
        revisited_select_from(&scores[..], 1e9, &cfg, &mut rng, &mut scratch).unwrap();
        assert_eq!((scratch.selected().len(), scratch.examined()), (0, 1000));
        exp_noise_select_from(&scores[..], 1e9, &cfg, &mut rng, &mut scratch).unwrap();
        assert_eq!((scratch.selected().len(), scratch.examined()), (0, 1000));
    }

    #[test]
    fn batched_drivers_select_nothing_from_empty_scores() {
        let cfg = counting(1.0, 5);
        let mut rng = DpRng::seed_from_u64(1063);
        let mut scratch = RunScratch::new();
        revisited_select_from(&[][..], 0.0, &cfg, &mut rng, &mut scratch).unwrap();
        assert_eq!((scratch.selected().len(), scratch.examined()), (0, 0));
        exp_noise_select_from(&[][..], 0.0, &cfg, &mut rng, &mut scratch).unwrap();
        assert_eq!((scratch.selected().len(), scratch.examined()), (0, 0));
    }

    #[test]
    fn eager_order_hands_out_blocks_and_records_the_examined_count() {
        // Eager mode inside the window loop: `step_block` copies the
        // materialized order without drawing, and `truncate_prefix`
        // records how many positions were examined.
        let n = 100;
        let mut rng = DpRng::seed_from_u64(71);
        let mut order = SparseOrder::new();
        order.reset_eager(n, &mut rng);
        let mut full: Vec<u32> = (0..n as u32).collect();
        DpRng::seed_from_u64(71).shuffle_forward(&mut full);
        let after_shuffle = rng.clone().next_u64();
        let (mut a, mut b) = ([0u32; 16], [0u32; 16]);
        order.step_block(&mut rng, &mut a);
        order.step_block(&mut rng, &mut b);
        assert_eq!(a[..], full[..16]);
        assert_eq!(b[..], full[16..32]);
        assert_eq!(order.emitted(), 32);
        order.truncate_prefix(21);
        assert_eq!(order.emitted(), 21);
        assert_eq!(order.prefix(), &full[..21]);
        assert_eq!(rng.next_u64(), after_shuffle, "eager blocks draw nothing");
    }

    fn numeric_config() -> StandardSvtConfig {
        StandardSvtConfig {
            budget: dp_mechanisms::SvtBudget::new(0.25, 0.25, 0.5).unwrap(),
            sensitivity: 1.0,
            c: 3,
            monotonic: true,
        }
    }

    #[test]
    fn revisited_and_exp_noise_constructors_reject_a_numeric_phase() {
        let mut rng = DpRng::seed_from_u64(73);
        assert!(BatchedSvt::revisited(&numeric_config(), &mut rng).is_err());
        assert!(BatchedSvt::exp_noise(&numeric_config(), &mut rng).is_err());
        assert!(BatchedSvt::new(&numeric_config(), &mut rng).is_ok());
    }

    #[test]
    fn revisited_redraws_rho_from_its_fork_after_each_non_final_top() {
        // c = 3 and every score crossing: three ⊤s, two refreshes (the
        // final ⊤ closes the run without one), all drawn from the
        // second fork of the run generator.
        let cfg = counting(1.0, 3).to_standard().unwrap();
        let law = Laplace::new(cfg.revisited_threshold_noise_scale()).unwrap();
        let mut replica = DpRng::seed_from_u64(79);
        let _query_fork = replica.fork();
        let mut refresh_fork = replica.fork();
        let first_rho = law.sample(&mut replica);

        let mut rng = DpRng::seed_from_u64(79);
        let mut svt = BatchedSvt::revisited(&cfg, &mut rng).unwrap();
        assert_eq!(svt.rho(), first_rho);
        let scores = vec![1e9f64; 50];
        let mut scratch = RunScratch::new();
        scratch.begin_run(scores.len());
        scratch
            .window_pass::<_, _, false>(&scores[..], 0.0, &mut svt, &mut rng)
            .unwrap();
        assert_eq!(scratch.selected().len(), 3);
        law.sample(&mut refresh_fork);
        assert_eq!(svt.rho(), law.sample(&mut refresh_fork));
    }

    #[test]
    fn exp_noise_constructor_draws_a_one_sided_rho_after_the_fork() {
        let cfg = counting(0.5, 4).to_standard().unwrap();
        let law = Exponential::new(cfg.threshold_noise_scale()).unwrap();
        for seed in [83u64, 89, 97] {
            let mut replica = DpRng::seed_from_u64(seed);
            let _query_fork = replica.fork();
            let want = law.sample(&mut replica);
            let mut rng = DpRng::seed_from_u64(seed);
            let svt = BatchedSvt::exp_noise(&cfg, &mut rng).unwrap();
            assert!(svt.rho() >= 0.0);
            assert_eq!(svt.rho(), want, "seed {seed}");
            assert_eq!(rng.next_u64(), replica.next_u64(), "seed {seed}");
        }
    }
}
