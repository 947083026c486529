//! # msgr-check — deterministic property-based testing
//!
//! A zero-dependency property-testing harness built on the workspace's
//! own SplitMix64 generator ([`msgr_sim::DetRng`]). It replaces
//! `proptest` for this repository with three guarantees that matter for
//! a simulation-backed distributed system:
//!
//! 1. **Determinism.** Every property derives its case seeds from a
//!    hash of the property name, so a given source tree produces the
//!    same cases on every machine, every run. There is no time- or
//!    OS-entropy anywhere.
//! 2. **Replayability.** When a case fails, the harness prints a
//!    `MSGR_CHECK_SEED=<n>` line. Re-running the test with that
//!    environment variable set replays the failing case (and its
//!    shrink) exactly.
//! 3. **Automatic shrinking.** Generators draw from a recorded *choice
//!    stream*; shrinking edits the stream (deleting spans, zeroing and
//!    halving entries) and replays generation, so any generator —
//!    including recursive ones — shrinks for free, hypothesis-style.
//!
//! ## Writing a property
//!
//! A property is a closure from a [`Source`] of random choices to
//! `Result<(), String>`; `Err` (or a panic) is a counterexample. The
//! [`prop_assert!`] family mirrors proptest's macros:
//!
//! ```
//! msgr_check::check("reverse_is_involutive", |s| {
//!     let v = s.vec_with(0..32, |s| s.u64_in(0..100));
//!     let mut w = v.clone();
//!     w.reverse();
//!     w.reverse();
//!     msgr_check::prop_assert_eq!(v, w);
//!     Ok(())
//! });
//! ```

#![warn(missing_docs)]

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use msgr_sim::DetRng;

/// Environment variable replaying one specific failing case.
pub const SEED_ENV: &str = "MSGR_CHECK_SEED";
/// Environment variable overriding the per-property case count.
pub const CASES_ENV: &str = "MSGR_CHECK_CASES";

// ---- configuration -----------------------------------------------------

/// Harness configuration for one property.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Number of generated cases per property (default 128, overridable
    /// globally via `MSGR_CHECK_CASES`).
    pub cases: u32,
    /// Budget of candidate replays during shrinking.
    pub max_shrink: u32,
}

impl Config {
    /// `cases` generated cases per property, unless `MSGR_CHECK_CASES`
    /// is set: the environment wins over the count written in code. A
    /// struct literal with an explicit `cases` pins the count instead.
    pub fn with_cases(cases: u32) -> Config {
        let env = std::env::var(CASES_ENV).ok();
        Config { cases: case_count(env.as_deref(), cases), max_shrink: 4096 }
    }
}

impl Default for Config {
    fn default() -> Self {
        Config::with_cases(128)
    }
}

/// The case count a property runs: `env` (the value of
/// `MSGR_CHECK_CASES`) when it parses, else the count written in code.
fn case_count(env: Option<&str>, in_code: u32) -> u32 {
    env.and_then(|v| v.parse().ok()).unwrap_or(in_code)
}

// ---- choice source -----------------------------------------------------

enum Draws {
    /// Fresh generation: draws come from the rng and are recorded.
    Fresh(DetRng),
    /// Replay of an edited choice stream; exhausted positions yield 0.
    Replay(Vec<u64>),
}

/// The source of randomness handed to a property.
///
/// All generator methods bottom out in [`Source::draw`], which records
/// every choice so that a failing case can be shrunk and replayed.
/// Values shrink toward the *low end* of their range (and collections
/// toward their minimum length), so write ranges with the simplest
/// value first.
pub struct Source {
    draws: Draws,
    /// Choices consumed so far (recorded in fresh mode).
    trace: Vec<u64>,
}

impl Source {
    fn fresh(seed: u64) -> Source {
        Source { draws: Draws::Fresh(DetRng::new(seed)), trace: Vec::new() }
    }

    fn replay(choices: Vec<u64>) -> Source {
        Source { draws: Draws::Replay(choices), trace: Vec::new() }
    }

    /// One uniform choice in `[0, span)`. The primitive every generator
    /// is built from.
    ///
    /// # Panics
    ///
    /// Panics if `span == 0`.
    pub fn draw(&mut self, span: u64) -> u64 {
        assert!(span > 0, "draw(0) is meaningless");
        let c = match &mut self.draws {
            Draws::Fresh(rng) => rng.below(span),
            Draws::Replay(choices) => choices.get(self.trace.len()).copied().unwrap_or(0) % span,
        };
        self.trace.push(c);
        c
    }

    /// A full-range 64-bit draw (not reduced modulo anything).
    pub fn draw_raw(&mut self) -> u64 {
        let c = match &mut self.draws {
            Draws::Fresh(rng) => rng.next_u64(),
            Draws::Replay(choices) => choices.get(self.trace.len()).copied().unwrap_or(0),
        };
        self.trace.push(c);
        c
    }

    // ---- scalar generators ---------------------------------------------

    /// Uniform `u64` in `[lo, hi)`; shrinks toward `lo`.
    ///
    /// # Panics
    ///
    /// Panics on an empty range.
    pub fn u64_in(&mut self, r: Range<u64>) -> u64 {
        assert!(r.start < r.end, "empty range");
        r.start + self.draw(r.end - r.start)
    }

    /// Uniform `u32` in `[lo, hi)`; shrinks toward `lo`.
    pub fn u32_in(&mut self, r: Range<u32>) -> u32 {
        self.u64_in(r.start as u64..r.end as u64) as u32
    }

    /// Uniform `u8` in `[lo, hi)`; shrinks toward `lo`.
    pub fn u8_in(&mut self, r: Range<u8>) -> u8 {
        self.u64_in(r.start as u64..r.end as u64) as u8
    }

    /// Uniform `usize` in `[lo, hi)`; shrinks toward `lo`.
    pub fn usize_in(&mut self, r: Range<usize>) -> usize {
        self.u64_in(r.start as u64..r.end as u64) as usize
    }

    /// Uniform `i64` in `[lo, hi)`; shrinks toward `lo`.
    pub fn i64_in(&mut self, r: Range<i64>) -> i64 {
        assert!(r.start < r.end, "empty range");
        let span = r.end.wrapping_sub(r.start) as u64;
        r.start.wrapping_add(self.draw(span) as i64)
    }

    /// Any `u64`, uniform over the full range; shrinks toward 0.
    pub fn any_u64(&mut self) -> u64 {
        self.draw_raw()
    }

    /// Any `u32`; shrinks toward 0.
    pub fn any_u32(&mut self) -> u32 {
        self.draw_raw() as u32
    }

    /// Any `u16`; shrinks toward 0.
    pub fn any_u16(&mut self) -> u16 {
        self.draw_raw() as u16
    }

    /// Any `u8`; shrinks toward 0.
    pub fn any_u8(&mut self) -> u8 {
        self.draw_raw() as u8
    }

    /// Any `i64` (full range, reinterpreted bits); shrinks toward 0.
    pub fn any_i64(&mut self) -> i64 {
        self.draw_raw() as i64
    }

    /// Uniform `f64` in `[lo, hi)` with 53-bit resolution; shrinks
    /// toward `lo`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = self.draw(1 << 53) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + unit * (hi - lo)
    }

    /// An arbitrary *finite* `f64`: reinterprets a raw 64-bit draw as a
    /// float bit pattern (hitting denormals, ±0, huge magnitudes), and
    /// falls back to a unit-interval value for NaN/infinity patterns.
    /// Shrinks toward `0.0`.
    pub fn any_finite_f64(&mut self) -> f64 {
        let raw = self.draw_raw();
        let f = f64::from_bits(raw);
        if f.is_finite() {
            f
        } else {
            (raw >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// A boolean; shrinks toward `false`.
    pub fn any_bool(&mut self) -> bool {
        self.draw(2) == 1
    }

    /// `true` with probability `p`; shrinks toward `false`.
    pub fn bool_with(&mut self, p: f64) -> bool {
        let c = self.draw(1 << 32) as f64 / (1u64 << 32) as f64;
        c >= 1.0 - p
    }

    // ---- composite generators -------------------------------------------

    /// A vector with length drawn from `len` and elements from `f`;
    /// shrinks toward fewer, simpler elements.
    pub fn vec_with<T>(
        &mut self,
        len: Range<usize>,
        mut f: impl FnMut(&mut Source) -> T,
    ) -> Vec<T> {
        let n = self.usize_in(len);
        (0..n).map(|_| f(self)).collect()
    }

    /// A string with length drawn from `len` and characters drawn
    /// uniformly from `charset`; shrinks toward shorter strings of the
    /// charset's first character.
    ///
    /// # Panics
    ///
    /// Panics if `charset` is empty.
    pub fn string(&mut self, len: Range<usize>, charset: &str) -> String {
        let chars: Vec<char> = charset.chars().collect();
        assert!(!chars.is_empty(), "empty charset");
        let n = self.usize_in(len);
        (0..n).map(|_| chars[self.draw(chars.len() as u64) as usize]).collect()
    }

    /// A uniformly chosen element of `items`; shrinks toward the first.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.draw(items.len() as u64) as usize]
    }
}

// ---- failure reporting -------------------------------------------------

/// A minimized counterexample for a failed property.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Property name.
    pub property: String,
    /// Seed of the failing case — `MSGR_CHECK_SEED=<seed>` replays it.
    pub seed: u64,
    /// Index of the failing case within the run.
    pub case: u32,
    /// Failure message of the originally generated case.
    pub original: String,
    /// Failure message of the minimal counterexample.
    pub minimal: String,
    /// Number of successful shrink steps applied.
    pub shrink_steps: u32,
    /// The minimal choice stream (replayable via [`replay_choices`]).
    pub choices: Vec<u64>,
}

impl Failure {
    /// The human-readable report printed on failure.
    pub fn report(&self) -> String {
        format!(
            "property '{}' failed (case {}).\n  minimal counterexample ({} shrink steps): {}\n  \
             original failure: {}\n  replay exactly with: {}={} cargo test",
            self.property,
            self.case,
            self.shrink_steps,
            self.minimal,
            self.original,
            SEED_ENV,
            self.seed,
        )
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.report())
    }
}

/// Re-run a property against a recorded choice stream (for inspecting a
/// minimal counterexample, e.g. to extract the generated values).
///
/// # Errors
///
/// Returns the property's failure message if it still fails.
pub fn replay_choices(
    choices: &[u64],
    prop: impl Fn(&mut Source) -> Result<(), String>,
) -> Result<(), String> {
    let mut src = Source::replay(choices.to_vec());
    run_prop(&prop, &mut src)
}

// ---- runner ------------------------------------------------------------

/// Check a property with the default [`Config`]; panics with a full
/// report (including the replay seed) on failure.
pub fn check(name: &str, prop: impl Fn(&mut Source) -> Result<(), String>) {
    check_with(Config::default(), name, prop)
}

/// Check a property with an explicit [`Config`]; panics on failure.
pub fn check_with(cfg: Config, name: &str, prop: impl Fn(&mut Source) -> Result<(), String>) {
    if let Err(failure) = run_check(cfg, name, prop) {
        panic!("{}", failure.report());
    }
}

/// Check a property, returning the minimized [`Failure`] instead of
/// panicking. This is the non-panicking core that `check`/`check_with`
/// wrap, and what the self-tests and the failing-property demo use.
///
/// # Errors
///
/// Returns the shrunk [`Failure`] if any generated case fails.
pub fn run_check(
    cfg: Config,
    name: &str,
    prop: impl Fn(&mut Source) -> Result<(), String>,
) -> Result<(), Failure> {
    // Replay mode: one exact case.
    if let Ok(v) = std::env::var(SEED_ENV) {
        let seed: u64 =
            v.trim().parse().unwrap_or_else(|_| panic!("{SEED_ENV} must be a u64, got {v:?}"));
        return run_one(&cfg, name, &prop, seed, 0);
    }
    // Deterministic seeds: derived from the property name alone.
    let mut seeder = DetRng::new(fnv1a(name.as_bytes()));
    for case in 0..cfg.cases {
        let seed = seeder.next_u64();
        run_one(&cfg, name, &prop, seed, case)?;
    }
    Ok(())
}

fn run_one(
    cfg: &Config,
    name: &str,
    prop: &impl Fn(&mut Source) -> Result<(), String>,
    seed: u64,
    case: u32,
) -> Result<(), Failure> {
    let mut src = Source::fresh(seed);
    let original = match run_prop(prop, &mut src) {
        Ok(()) => return Ok(()),
        Err(msg) => msg,
    };
    let (choices, minimal, shrink_steps) = shrink(cfg, prop, src.trace, original.clone());
    Err(Failure {
        property: name.to_string(),
        seed,
        case,
        original,
        minimal,
        shrink_steps,
        choices,
    })
}

thread_local! {
    /// True while the harness is intentionally catching panics; the
    /// quiet hook suppresses the default backtrace spew so hundreds of
    /// shrink replays don't flood the test output.
    static CAPTURING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

static QUIET_HOOK: std::sync::Once = std::sync::Once::new();

fn install_quiet_hook() {
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !CAPTURING.with(|c| c.get()) {
                prev(info);
            }
        }));
    });
}

/// Run the property once, converting panics into `Err`.
fn run_prop(
    prop: &impl Fn(&mut Source) -> Result<(), String>,
    src: &mut Source,
) -> Result<(), String> {
    install_quiet_hook();
    CAPTURING.with(|c| c.set(true));
    let caught = catch_unwind(AssertUnwindSafe(|| prop(src)));
    CAPTURING.with(|c| c.set(false));
    match caught {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic (non-string payload)".to_string());
            Err(format!("panic: {msg}"))
        }
    }
}

// ---- shrinking ---------------------------------------------------------

/// Does the edited stream still fail? If so, return the *consumed*
/// prefix (trailing unused choices are dropped for free) and the
/// failure message.
fn still_fails(
    prop: &impl Fn(&mut Source) -> Result<(), String>,
    candidate: &[u64],
) -> Option<(Vec<u64>, String)> {
    let mut src = Source::replay(candidate.to_vec());
    match run_prop(prop, &mut src) {
        Err(msg) => {
            let mut consumed = src.trace;
            consumed.truncate(candidate.len());
            Some((consumed, msg))
        }
        Ok(()) => None,
    }
}

/// Lexicographic-by-(length, values) order: the shrinker only ever
/// moves strictly downward in this order, so it terminates.
fn simpler(a: &[u64], b: &[u64]) -> bool {
    (a.len(), a) < (b.len(), b)
}

fn shrink(
    cfg: &Config,
    prop: &impl Fn(&mut Source) -> Result<(), String>,
    start: Vec<u64>,
    start_msg: String,
) -> (Vec<u64>, String, u32) {
    let mut best = start;
    let mut best_msg = start_msg;
    let mut steps = 0u32;
    let mut budget = cfg.max_shrink;

    'outer: loop {
        for cand in candidates(&best) {
            if budget == 0 {
                break 'outer;
            }
            budget -= 1;
            if !simpler(&cand, &best) {
                continue;
            }
            if let Some((consumed, msg)) = still_fails(prop, &cand) {
                best = if simpler(&consumed, &cand) { consumed } else { cand };
                best_msg = msg;
                steps += 1;
                continue 'outer; // restart candidate generation from the new best
            }
        }
        break;
    }
    (best, best_msg, steps)
}

/// Candidate edits, most aggressive first: delete big chunks, then
/// small ones, then zero/halve/decrement single choices.
fn candidates(best: &[u64]) -> Vec<Vec<u64>> {
    let n = best.len();
    let mut out = Vec::new();
    if n == 0 {
        return out;
    }
    // Chunk deletions: halves, quarters, …, single elements.
    let mut size = n.div_ceil(2);
    loop {
        let mut start = 0;
        while start < n {
            let end = (start + size).min(n);
            let mut cand = Vec::with_capacity(n - (end - start));
            cand.extend_from_slice(&best[..start]);
            cand.extend_from_slice(&best[end..]);
            out.push(cand);
            start += size;
        }
        if size == 1 {
            break;
        }
        size /= 2;
    }
    // Pointwise value minimization.
    for i in 0..n {
        let v = best[i];
        if v == 0 {
            continue;
        }
        for replacement in [0, v / 2, v - 1] {
            if replacement != v {
                let mut cand = best.to_vec();
                cand[i] = replacement;
                out.push(cand);
            }
        }
    }
    out
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---- assertion macros --------------------------------------------------

/// Assert a condition inside a property; on failure, returns an `Err`
/// counterexample instead of panicking (so shrinking stays quiet).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Assert equality inside a property; both sides are captured in the
/// counterexample message.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err(format!(
                "assertion failed: `{:?}` == `{:?}` ({}:{})",
                a,
                b,
                file!(),
                line!()
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err(format!($($fmt)+));
        }
    }};
}

/// Assert inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if a == b {
            return Err(format!(
                "assertion failed: `{:?}` != `{:?}` ({}:{})",
                a,
                b,
                file!(),
                line!()
            ));
        }
    }};
}

// ---- codec corruption --------------------------------------------------

/// The one corruption property every byte codec in this repository is
/// held to: a decoder accepts exactly what its encoder writes.
///
/// `good` is a valid encoding. `reencode` decodes its argument and
/// returns `None` if the decoder rejected it, else the accepted value
/// encoded again. Checked: `good` survives the round trip; every strict
/// prefix of `good` is rejected; and for every byte position, XORing in
/// a non-zero value drawn from `s` is either rejected or accepted as
/// *those* bytes — re-encoding gives the damaged input back, so the
/// decoder never reads two byte strings as one value and damage is
/// always visible. A caller whose accepted value has no encoder (a
/// checkpoint restored into a daemon) returns its input, which keeps the
/// truncation and never-panics halves.
///
/// # Errors
///
/// The first violation, as a counterexample message.
pub fn codec_corruption(
    s: &mut Source,
    good: &[u8],
    mut reencode: impl FnMut(&[u8]) -> Option<Vec<u8>>,
) -> Result<(), String> {
    prop_assert!(reencode(good).as_deref() == Some(good), "a valid encoding did not round-trip");
    for cut in 0..good.len() {
        prop_assert!(reencode(&good[..cut]).is_none(), "prefix of {cut} bytes decoded");
    }
    let mut bad = good.to_vec();
    for at in 0..good.len() {
        let flip = (s.draw(255) + 1) as u8; // never a no-op XOR
        bad[at] ^= flip;
        if let Some(back) = reencode(&bad) {
            prop_assert!(
                back == bad,
                "byte {at} xor {flip:#04x} decoded, but as the value that encodes to {back:02x?}, \
                 not to the damaged input {bad:02x?}"
            );
        }
        bad[at] = good[at];
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Config {
        Config { cases: 64, max_shrink: 4096 }
    }

    #[test]
    fn the_environment_wins_over_the_in_code_case_count() {
        assert_eq!(case_count(None, 256), 256);
        assert_eq!(case_count(Some("4096"), 256), 4096);
        assert_eq!(case_count(Some("8"), 256), 8);
        assert_eq!(case_count(Some("lots"), 256), 256);
        assert_eq!(case_count(Some(""), 256), 256);
    }

    #[test]
    fn passing_property_passes() {
        check("sum_is_commutative", |s| {
            let a = s.u64_in(0..1000);
            let b = s.u64_in(0..1000);
            prop_assert_eq!(a + b, b + a);
            Ok(())
        });
    }

    #[test]
    fn scalar_generators_respect_ranges() {
        check("generator_ranges", |s| {
            let u = s.u64_in(10..20);
            prop_assert!((10..20).contains(&u), "u64_in out of range: {u}");
            let i = s.i64_in(-5..5);
            prop_assert!((-5..5).contains(&i), "i64_in out of range: {i}");
            let f = s.f64_in(1.0, 2.0);
            prop_assert!((1.0..2.0).contains(&f), "f64_in out of range: {f}");
            let v = s.vec_with(2..5, |s| s.u8_in(0..3));
            prop_assert!((2..5).contains(&v.len()));
            prop_assert!(v.iter().all(|&x| x < 3));
            let t = s.string(0..8, "ab");
            prop_assert!(t.chars().all(|c| c == 'a' || c == 'b'));
            prop_assert!(s.any_finite_f64().is_finite());
            Ok(())
        });
    }

    #[test]
    fn failing_property_shrinks_to_minimal_vector() {
        // "No element may be >= 10" over vecs of 0..100: the minimal
        // counterexample is the single-element vector [10].
        let failure = run_check(cfg(), "demo_all_below_ten", |s| {
            let v = s.vec_with(0..64, |s| s.u64_in(0..100));
            prop_assert!(v.iter().all(|&x| x < 10), "element >= 10 in {v:?}");
            Ok(())
        })
        .expect_err("property must fail");

        // Extract the minimal generated value by replaying the choices.
        let seen = std::cell::RefCell::new(Vec::new());
        let _ = replay_choices(&failure.choices, |s| {
            *seen.borrow_mut() = s.vec_with(0..64, |s| s.u64_in(0..100));
            Err("probe".to_string())
        });
        assert_eq!(seen.into_inner(), vec![10], "shrinker must reach the minimum");
        assert!(failure.shrink_steps > 0);
        assert!(failure.report().contains(&format!("{SEED_ENV}={}", failure.seed)));
    }

    #[test]
    fn reported_seed_replays_the_failure() {
        let prop = |s: &mut Source| {
            let v = s.vec_with(0..64, |s| s.u64_in(0..1000));
            prop_assert!(v.iter().sum::<u64>() < 900, "sum too large: {v:?}");
            Ok(())
        };
        let failure = run_check(cfg(), "demo_sum_bound", prop).expect_err("must fail");
        // A fresh source with the reported seed reproduces the original
        // (pre-shrink) counterexample exactly.
        let mut src = Source::fresh(failure.seed);
        let replayed = run_prop(&prop, &mut src).expect_err("seed must reproduce the failure");
        assert_eq!(replayed, failure.original);
    }

    #[test]
    fn whole_run_is_deterministic() {
        let prop = |s: &mut Source| {
            let v = s.vec_with(0..32, |s| s.u64_in(0..50));
            prop_assert!(v.len() < 20, "long vector: {v:?}");
            Ok(())
        };
        let a = run_check(cfg(), "demo_determinism", prop).expect_err("must fail");
        let b = run_check(cfg(), "demo_determinism", prop).expect_err("must fail");
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.case, b.case);
        assert_eq!(a.choices, b.choices);
        assert_eq!(a.minimal, b.minimal);
    }

    #[test]
    fn panics_are_caught_and_shrunk() {
        let failure = run_check(cfg(), "demo_panic", |s| {
            let v = s.vec_with(0..16, |s| s.u64_in(0..8));
            if v.contains(&7) {
                panic!("boom on {v:?}");
            }
            Ok(())
        })
        .expect_err("must fail");
        assert!(failure.minimal.contains("panic: boom"), "{}", failure.minimal);
        // Minimal counterexample is the one-element vector [7]: a length
        // choice of 1 and an element choice of 7.
        assert_eq!(failure.choices, vec![1, 7]);
    }

    #[test]
    fn shrinking_is_bounded() {
        let tight = Config { cases: 8, max_shrink: 3 };
        let failure = run_check(tight, "demo_budget", |s| {
            let v = s.vec_with(8..64, |s| s.u64_in(0..1_000_000));
            prop_assert!(v.is_empty(), "never");
            Ok(())
        })
        .expect_err("must fail");
        assert!(failure.shrink_steps <= 3);
    }
}
