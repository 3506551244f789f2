//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! ships a minimal, dependency-free property-testing harness covering
//! exactly the API surface its test suites use: the [`proptest!`] macro
//! (with `#![proptest_config(...)]`), range and tuple strategies,
//! [`collection::vec`], [`strategy::Strategy::prop_map`], `any::<bool>()`,
//! a small character-class string strategy, and the `prop_assert!` /
//! `prop_assert_eq!` / `prop_assume!` macros.
//!
//! Unlike real proptest there is **no shrinking** and no failure
//! persistence: cases are generated from a deterministic per-test seed,
//! so failures reproduce exactly from run to run.

use std::fmt;

/// Deterministic generator driving case generation (xorshift64*).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds the generator from a test name, deterministically.
    pub fn from_name(name: &str) -> Self {
        // FNV-1a over the fully qualified test name.
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng { state: h | 1 }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty size range");
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }
}

/// Why a generated case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// A `prop_assume!` pre-condition failed; the case is discarded.
    Reject,
    /// A `prop_assert!` failed; the test fails.
    Fail(String),
}

/// Result type the generated test bodies return.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Per-block configuration, set via `#![proptest_config(...)]`.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of accepted cases to run.
    pub cases: u32,
}

impl ProptestConfig {
    /// Configuration running `cases` accepted cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 32 }
    }
}

/// Value-generation strategies.
pub mod strategy {
    use super::TestRng;
    use std::marker::PhantomData;
    use std::ops::Range;

    /// A source of random values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f` (mirrors
        /// `proptest::strategy::Strategy::prop_map`).
        fn prop_map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// The strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            (self.f)(self.inner.sample(rng))
        }
    }

    macro_rules! impl_range_strategy_int {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range");
                    let span = (self.end - self.start) as u64;
                    self.start + (rng.next_u64() % span) as $t
                }
            }
        )*};
    }

    impl_range_strategy_int!(u8, u16, u32, u64, usize);

    impl Strategy for Range<f64> {
        type Value = f64;

        fn sample(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident / $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A/0, B/1)
        (A/0, B/1, C/2)
        (A/0, B/1, C/2, D/3)
    }

    /// String strategy from a regex subset: one character class with a
    /// bounded repetition, e.g. `"[a-z0-9.()\\-\n ]{0,200}"`.
    impl Strategy for &str {
        type Value = String;

        fn sample(&self, rng: &mut TestRng) -> String {
            let (alphabet, lo, hi) = parse_class_pattern(self);
            let len = rng.usize_in(lo, hi + 1);
            (0..len)
                .map(|_| alphabet[rng.usize_in(0, alphabet.len())])
                .collect()
        }
    }

    /// Parses `[class]{lo,hi}` into (alphabet, lo, hi).
    fn parse_class_pattern(pattern: &str) -> (Vec<char>, usize, usize) {
        let rest = pattern
            .strip_prefix('[')
            .unwrap_or_else(|| panic!("unsupported string pattern {pattern:?}"));
        let close = rest
            .find(']')
            .unwrap_or_else(|| panic!("unterminated class in {pattern:?}"));
        let class: Vec<char> = rest[..close].chars().collect();
        let mut alphabet = Vec::new();
        let mut i = 0;
        while i < class.len() {
            let c = class[i];
            if c == '\\' && i + 1 < class.len() {
                alphabet.push(match class[i + 1] {
                    'n' => '\n',
                    't' => '\t',
                    other => other,
                });
                i += 2;
            } else if i + 2 < class.len() && class[i + 1] == '-' && class[i + 2] != ']' {
                let (a, b) = (c as u32, class[i + 2] as u32);
                for code in a..=b {
                    alphabet.push(char::from_u32(code).expect("valid range char"));
                }
                i += 3;
            } else {
                alphabet.push(c);
                i += 1;
            }
        }
        assert!(!alphabet.is_empty(), "empty class in {pattern:?}");
        let reps = &rest[close + 1..];
        let (lo, hi) = if let Some(r) = reps.strip_prefix('{').and_then(|r| r.strip_suffix('}')) {
            match r.split_once(',') {
                Some((a, b)) => (
                    a.trim().parse().expect("class repetition lower bound"),
                    b.trim().parse().expect("class repetition upper bound"),
                ),
                None => {
                    let n = r.trim().parse().expect("class repetition count");
                    (n, n)
                }
            }
        } else if reps.is_empty() {
            (1, 1)
        } else {
            panic!("unsupported repetition {reps:?} in {pattern:?}");
        };
        (alphabet, lo, hi)
    }

    /// Types with a canonical "anything" strategy.
    pub trait Arbitrary: Sized {
        /// Draws an arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// The strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T` (mirrors `proptest::prelude::any`).
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

/// Collection strategies.
pub mod collection {
    use super::strategy::Strategy;
    use super::TestRng;
    use std::ops::Range;

    /// Length specification for [`vec()`]: an exact length or a half-open
    /// range of lengths.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.usize_in(self.size.lo, self.size.hi);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// `Vec` strategy of `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Reject => write!(f, "case rejected by prop_assume!"),
            TestCaseError::Fail(msg) => write!(f, "{msg}"),
        }
    }
}

/// Everything a property-test file needs.
pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{any, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
    pub use crate::{ProptestConfig, TestCaseError, TestCaseResult};
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)));
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current case unless the two expressions compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        if !(__a == __b) {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {:?} != {:?}",
                __a, __b
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__a, __b) = (&$a, &$b);
        if !(__a == __b) {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {:?} != {:?} ({})",
                __a,
                __b,
                format!($($fmt)+)
            )));
        }
    }};
}

/// Fails the current case if the two expressions compare equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        if __a == __b {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {:?} == {:?}",
                __a, __b
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__a, __b) = (&$a, &$b);
        if __a == __b {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {:?} == {:?} ({})",
                __a,
                __b,
                format!($($fmt)+)
            )));
        }
    }};
}

/// Discards the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return Err($crate::TestCaseError::Reject);
        }
    };
}

/// Declares a block of property tests (mirrors `proptest::proptest!`).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!(($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($argpat:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let mut __rng =
                $crate::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
            let mut __accepted: u32 = 0;
            let mut __attempts: u32 = 0;
            let __max_attempts = __cfg.cases.saturating_mul(20).max(200);
            while __accepted < __cfg.cases && __attempts < __max_attempts {
                __attempts += 1;
                $(let $argpat = $crate::strategy::Strategy::sample(&($strat), &mut __rng);)+
                let __outcome: $crate::TestCaseResult = (|| -> $crate::TestCaseResult {
                    $body
                    Ok(())
                })();
                match __outcome {
                    Ok(()) => __accepted += 1,
                    Err($crate::TestCaseError::Reject) => {}
                    Err($crate::TestCaseError::Fail(__msg)) => panic!(
                        "proptest {} failed after {} cases: {}",
                        stringify!($name),
                        __accepted,
                        __msg
                    ),
                }
            }
            assert!(
                __accepted > 0,
                "proptest {}: every generated case was rejected",
                stringify!($name)
            );
        }
        $crate::__proptest_impl!(($cfg) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in -2.0..2.0f64, n in 1usize..10) {
            prop_assert!((-2.0..2.0).contains(&x));
            prop_assert!((1..10).contains(&n));
        }

        #[test]
        fn vec_lengths_respect_size(v in collection::vec(0.0..1.0f64, 2..8)) {
            prop_assert!(v.len() >= 2 && v.len() < 8, "len {}", v.len());
            for x in &v {
                prop_assert!((0.0..1.0).contains(x));
            }
        }

        #[test]
        fn assume_rejects_without_failing(k in 0u64..100) {
            prop_assume!(k % 2 == 0);
            prop_assert!(k % 2 == 0);
        }

        #[test]
        fn map_applies_function(v in (0.0..1.0f64, 1.0..2.0f64).prop_map(|(a, b)| a + b)) {
            prop_assert!((0.0..3.0).contains(&v));
        }

        #[test]
        fn string_class_pattern(s in "[a-c0-1 ]{0,16}") {
            prop_assert!(s.len() <= 16);
            prop_assert!(s.chars().all(|c| "abc01 ".contains(c)), "{s:?}");
        }

        #[test]
        fn mut_bindings_work(mut v in collection::vec(0u16..10, 1..5)) {
            v.push(3);
            prop_assert!(!v.is_empty());
        }
    }
}
