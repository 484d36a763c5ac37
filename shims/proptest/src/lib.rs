//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this workspace
//! vendors a small property-testing engine that is source-compatible with
//! the subset of `proptest` the Marlin test suites use:
//!
//! - [`Strategy`] with [`Strategy::prop_map`], implemented for integer
//!   ranges, tuples of strategies, and boxed strategies;
//! - [`arbitrary::any`] (re-exported through the prelude) for the
//!   primitive types the tests draw;
//! - [`collection::vec`] for variable-length vectors;
//! - the [`proptest!`], [`prop_oneof!`], [`prop_assert!`] and
//!   [`prop_assert_eq!`] macros;
//! - [`ProptestConfig`] with the `cases` knob.
//!
//! Differences from the real crate: cases are generated from a seed
//! derived deterministically from the test name (every run explores the
//! same cases), and the `proptest!` macro's failing cases are *not*
//! shrunk — the failing values simply panic out through `prop_assert!`.
//! That trade keeps the engine a few hundred lines while preserving the
//! tests' exploratory power. Harnesses that need shrinking (the
//! `marlin-fuzz` scenario fuzzer) build it from the deterministic
//! candidate enumerators in [`shrink`].

use std::ops::Range;

/// Configuration accepted by `#![proptest_config(...)]`.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
    /// Accepted for compatibility; the shim never shrinks.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 256,
            max_shrink_iters: 0,
        }
    }
}

/// The deterministic case generator (SplitMix64).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed a generator.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        TestRng {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[lo, hi)` (`lo < hi`).
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi, "empty range");
        let span = hi - lo;
        // Multiply-shift rejection-free mapping; bias is negligible for
        // test-case generation.
        let hi128 = (u128::from(self.next_u64()) * u128::from(span)) >> 64;
        lo + hi128 as u64
    }
}

/// Derive a per-test RNG from the test's name, deterministically.
#[must_use]
pub fn test_rng(name: &str) -> TestRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    TestRng::new(h)
}

/// A generator of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// A type-erased strategy (used by [`prop_oneof!`]).
pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn sample(&self, rng: &mut TestRng) -> V {
        self.as_ref().sample(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> S::Value {
        (**self).sample(rng)
    }
}

/// [`Strategy::prop_map`]'s adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// A strategy that always yields clones of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                rng.range_u64(self.start as u64, self.end as u64) as $t
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// Uniform strategies for primitive types ([`arbitrary::any`]).
pub mod arbitrary {
    use super::{Strategy, TestRng};
    use std::marker::PhantomData;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draw a uniformly random value of the type.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
    impl Arbitrary for u8 {
        fn arbitrary(rng: &mut TestRng) -> u8 {
            rng.next_u64() as u8
        }
    }
    impl Arbitrary for u64 {
        fn arbitrary(rng: &mut TestRng) -> u64 {
            rng.next_u64()
        }
    }

    /// The strategy returned by [`any`].
    pub struct AnyStrategy<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for AnyStrategy<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The full-domain strategy for `T`.
    #[must_use]
    pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
        AnyStrategy(PhantomData)
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// A strategy for `Vec`s with lengths drawn from `len` and elements
    /// from `element`.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = if self.len.start < self.len.end {
                rng.range_u64(self.len.start as u64, self.len.end as u64) as usize
            } else {
                self.len.start
            };
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// Vectors of `element` values with length in `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }
}

/// A uniform choice between boxed alternative strategies
/// (built by [`prop_oneof!`]).
pub struct Union<V> {
    arms: Vec<BoxedStrategy<V>>,
}

impl<V> Union<V> {
    /// A union over `arms` (must be non-empty).
    #[must_use]
    pub fn new(arms: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn sample(&self, rng: &mut TestRng) -> V {
        let i = rng.range_u64(0, self.arms.len() as u64) as usize;
        self.arms[i].sample(rng)
    }
}

/// Deterministic shrinking primitives.
///
/// Shrinking here is *candidate enumeration*: given a failing value,
/// propose a fixed, deterministically ordered list of strictly smaller
/// values; the caller re-runs its oracle on each candidate and recurses
/// into the first that still fails. Because the candidate order is a pure
/// function of the input, a shrink run is exactly reproducible — which is
/// what lets `marlin-fuzz` replay a shrunk repro artifact bit-identically.
pub mod shrink {
    /// Candidate smaller magnitudes for `value`, largest first, never
    /// going below `floor`: the classic halving ladder
    /// (`floor`, then midpoints approaching `value`). Empty when `value`
    /// is already at the floor.
    ///
    /// Trying candidates in this order finds the smallest still-failing
    /// magnitude in O(log) oracle runs when failure is monotone in the
    /// value, and still terminates (just less minimally) when it is not.
    #[must_use]
    pub fn halves_toward(value: u64, floor: u64) -> Vec<u64> {
        let mut out = Vec::new();
        if value <= floor {
            return out;
        }
        out.push(floor);
        let mut delta = (value - floor) / 2;
        while delta > 0 {
            let candidate = value - delta;
            if candidate != floor {
                out.push(candidate);
            }
            delta /= 2;
        }
        out.dedup();
        out
    }

    /// Candidate sublists of `items`, in ddmin order: first halves, then
    /// quarters, ... then every single-element removal. Each candidate is
    /// strictly shorter than the input; the list is empty when `items` is
    /// empty.
    #[must_use]
    pub fn list_candidates<T: Clone>(items: &[T]) -> Vec<Vec<T>> {
        let n = items.len();
        let mut out: Vec<Vec<T>> = Vec::new();
        if n == 0 {
            return out;
        }
        // Remove progressively smaller chunks (delta debugging's
        // complement pass): chunk sizes n/2, n/4, ..., 2.
        let mut chunk = n / 2;
        while chunk > 1 {
            let mut start = 0;
            while start < n {
                let end = (start + chunk).min(n);
                let mut candidate = Vec::with_capacity(n - (end - start));
                candidate.extend_from_slice(&items[..start]);
                candidate.extend_from_slice(&items[end..]);
                out.push(candidate);
                start = end;
            }
            chunk /= 2;
        }
        // Finally every single-element removal.
        for i in 0..n {
            let mut candidate = Vec::with_capacity(n - 1);
            candidate.extend_from_slice(&items[..i]);
            candidate.extend_from_slice(&items[i + 1..]);
            out.push(candidate);
        }
        out
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn halving_ladder_is_ordered_and_bounded() {
            // delta walks (16-2)/2 = 7 → 3 → 1, giving 9, 13, 15.
            assert_eq!(halves_toward(16, 2), vec![2, 9, 13, 15]);
            assert!(halves_toward(5, 5).is_empty());
            assert!(halves_toward(3, 5).is_empty());
            // Every candidate is in [floor, value).
            for c in halves_toward(1000, 10) {
                assert!((10..1000).contains(&c));
            }
        }

        #[test]
        fn list_candidates_are_strictly_smaller() {
            let items: Vec<u32> = (0..8).collect();
            let cands = list_candidates(&items);
            assert!(!cands.is_empty());
            for c in &cands {
                assert!(c.len() < items.len());
            }
            // Single-element removals are all present at the tail.
            let singles: Vec<&Vec<u32>> = cands
                .iter()
                .filter(|c| c.len() == items.len() - 1)
                .collect();
            assert_eq!(singles.len(), items.len());
        }

        #[test]
        fn list_candidates_of_empty_is_empty() {
            assert!(list_candidates::<u32>(&[]).is_empty());
        }
    }
}

/// Everything a test module normally imports.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::collection;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_oneof, proptest, BoxedStrategy, Just, ProptestConfig,
        Strategy,
    };
}

/// Uniform choice between strategies that share a value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$(Box::new($arm) as $crate::BoxedStrategy<_>),+])
    };
}

/// Assert inside a property (panics on failure; the shim never shrinks).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Define property tests: each `fn name(binding in strategy, ...) { .. }`
/// becomes a `#[test]` running `cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr)) => {};
    (($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::test_rng(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..config.cases {
                $(let $pat = $crate::Strategy::sample(&($strategy), &mut rng);)+
                $body
            }
        }
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = crate::test_rng("ranges");
        for _ in 0..1_000 {
            let v = (10u32..20).sample(&mut rng);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn union_covers_all_arms() {
        let s = prop_oneof![(0u8..1).prop_map(|_| 'a'), (0u8..1).prop_map(|_| 'b')];
        let mut rng = crate::test_rng("union");
        let mut seen = [false; 2];
        for _ in 0..64 {
            match s.sample(&mut rng) {
                'a' => seen[0] = true,
                _ => seen[1] = true,
            }
        }
        assert!(seen[0] && seen[1]);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        #[test]
        fn vec_lengths_in_range(v in collection::vec(any::<u8>(), 2..5)) {
            prop_assert!((2..5).contains(&v.len()));
        }

        #[test]
        fn tuples_compose(pair in (0u32..4, any::<bool>())) {
            prop_assert!(pair.0 < 4);
        }
    }
}
