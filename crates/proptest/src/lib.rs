//! Minimal, dependency-light property-testing harness for the sidefp
//! workspace.
//!
//! A vendored stand-in for the crates.io `proptest` crate so the workspace
//! builds fully offline. It keeps the same surface the workspace's test
//! suites use — the [`proptest!`] macro, range/collection/array strategies,
//! `prop_map`, and the `prop_assert*` family — on top of a deterministic
//! per-case RNG: each case's seed derives from the test name and case
//! index, so failures reproduce exactly across runs and machines.
//!
//! What it deliberately does not do: input shrinking. A failing case
//! reports the case index and the assertion message; rerunning the test
//! regenerates the identical input.

use rand::rngs::StdRng;
use rand::SeedableRng;

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use rand::rngs::StdRng;
    use std::marker::PhantomData;
    use std::ops::Range;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value from `rng`.
        fn generate(&self, rng: &mut StdRng) -> Self::Value;

        /// Transforms generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    /// Strategy adapter produced by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, U> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> U,
    {
        type Value = U;
        fn generate(&self, rng: &mut StdRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rand::Rng::random_range(rng, self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    macro_rules! impl_tuple_strategy {
        ($(($($name:ident),+);)*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut StdRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A);
        (A, B);
        (A, B, C);
        (A, B, C, D);
    }

    /// Strategy over every value of a primitive type.
    pub struct Any<T>(pub(crate) PhantomData<T>);

    macro_rules! impl_any_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Any<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rand::Rng::random(rng)
                }
            }
        )*};
    }

    impl_any_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool, f32, f64);
}

pub mod collection {
    //! Strategies for collections.

    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use std::ops::Range;

    /// Length specification for [`vec()`]: an exact length or a range.
    pub trait IntoSizeRange {
        /// Inclusive (min, max) length bounds.
        fn bounds(self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn bounds(self) -> (usize, usize) {
            (self, self)
        }
    }

    impl IntoSizeRange for Range<usize> {
        fn bounds(self) -> (usize, usize) {
            assert!(
                self.start < self.end,
                "empty size range for collection::vec"
            );
            (self.start, self.end - 1)
        }
    }

    /// Strategy generating a `Vec` of `element` values with a length drawn
    /// from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (min, max) = size.bounds();
        VecStrategy { element, min, max }
    }

    /// Strategy produced by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = if self.min == self.max {
                self.min
            } else {
                rand::Rng::random_range(rng, self.min..=self.max)
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod array {
    //! Strategies for fixed-size arrays.

    use super::strategy::Strategy;
    use rand::rngs::StdRng;

    /// Strategy generating `[S::Value; N]` from one element strategy.
    pub struct UniformArray<S, const N: usize>(S);

    impl<S: Strategy, const N: usize> Strategy for UniformArray<S, N> {
        type Value = [S::Value; N];
        fn generate(&self, rng: &mut StdRng) -> [S::Value; N] {
            std::array::from_fn(|_| self.0.generate(rng))
        }
    }

    macro_rules! uniform_ctor {
        ($($name:ident => $n:literal),*) => {$(
            /// Generates an array whose elements all come from `element`.
            pub fn $name<S: Strategy>(element: S) -> UniformArray<S, $n> {
                UniformArray(element)
            }
        )*};
    }

    uniform_ctor!(
        uniform4 => 4,
        uniform5 => 5,
        uniform8 => 8,
        uniform9 => 9,
        uniform16 => 16
    );
}

pub mod num {
    //! Whole-domain strategies for primitive numeric types.

    macro_rules! any_mod {
        ($($m:ident => $t:ty),*) => {$(
            pub mod $m {
                use crate::strategy::Any;
                use std::marker::PhantomData;

                /// Uniform over the full domain of the type.
                pub const ANY: Any<$t> = Any(PhantomData);
            }
        )*};
    }

    any_mod!(
        u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize,
        i8 => i8, i16 => i16, i32 => i32, i64 => i64, isize => isize
    );
}

pub mod test_runner {
    //! Case outcome types and run configuration.

    /// Why a single generated case did not pass.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum TestCaseError {
        /// An assertion failed; the whole test fails.
        Fail(String),
        /// The case was rejected by `prop_assume!`; another is drawn.
        Reject(String),
    }

    /// Configuration for a `proptest!` block.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of accepted cases each test must pass.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A configuration running `cases` accepted cases per test.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }
}

pub mod prelude {
    //! Everything a `proptest!`-based test file needs in scope.

    pub use crate::strategy::Strategy;
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Deterministic per-case seed: FNV-1a over the test name, mixed with the
/// case counter. Stable across runs, platforms, and test orderings.
pub fn case_seed(test_name: &str, case: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Fresh generator for one case of one test.
pub fn case_rng(test_name: &str, case: u64) -> StdRng {
    StdRng::seed_from_u64(case_seed(test_name, case))
}

/// Defines property tests: each `fn` runs its body against many generated
/// inputs.
///
/// ```
/// use proptest::prelude::*;
///
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(16))]
///
///     #[test]
///     fn addition_commutes(a in -100.0_f64..100.0, b in -100.0_f64..100.0) {
///         prop_assert!((a + b - (b + a)).abs() < 1e-12);
///     }
/// }
/// ```
// The `#[test]` in the example is macro grammar, not a unit test inside a
// doctest — the example documents how callers invoke the macro.
#[allow(clippy::test_attr_in_doctest)]
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!(@cfg ($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!(
            @cfg ($crate::test_runner::ProptestConfig::default()) $($rest)*
        );
    };
}

/// Internal muncher behind [`proptest!`]; expands one test fn at a time.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (@cfg ($config:expr)) => {};
    (@cfg ($config:expr)
        $(#[$attr:meta])*
        fn $name:ident($($pat:pat_param in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$attr])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $config;
            let mut accepted: u32 = 0;
            let mut case: u64 = 0;
            let budget = (config.cases as u64).saturating_mul(16).max(64);
            while accepted < config.cases {
                assert!(
                    case < budget,
                    "proptest {}: too many rejected cases ({} accepted of {} wanted)",
                    stringify!($name),
                    accepted,
                    config.cases
                );
                let mut __proptest_rng = $crate::case_rng(stringify!($name), case);
                $(
                    let $pat = $crate::strategy::Strategy::generate(
                        &($strat),
                        &mut __proptest_rng,
                    );
                )+
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                match outcome {
                    Ok(()) => accepted += 1,
                    Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                    Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        panic!(
                            "proptest {} failed at case {} (seed {}): {}",
                            stringify!($name),
                            case,
                            $crate::case_seed(stringify!($name), case),
                            msg
                        );
                    }
                }
                case += 1;
            }
        }
        $crate::__proptest_impl!(@cfg ($config) $($rest)*);
    };
}

/// Asserts a condition inside a `proptest!` body; failure fails the test
/// with the generated case's seed in the message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                ::std::string::String::from(concat!("assertion failed: ", stringify!($cond))),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Asserts two expressions are equal inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!(
                    "assertion failed: {} == {} (left: {:?}, right: {:?})",
                    stringify!($left),
                    stringify!($right),
                    l,
                    r
                ),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!(
                    "{} (left: {:?}, right: {:?})",
                    format!($($fmt)+),
                    l,
                    r
                ),
            ));
        }
    }};
}

/// Asserts two expressions differ inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!(
                    "assertion failed: {} != {} (both: {:?})",
                    stringify!($left),
                    stringify!($right),
                    l
                ),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!("{} (both: {:?})", format!($($fmt)+), l),
            ));
        }
    }};
}

/// Rejects the current generated case (drawing a replacement) unless the
/// precondition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                ::std::string::String::from(stringify!($cond)),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::Strategy;

    #[test]
    fn case_seed_is_deterministic_and_name_sensitive() {
        assert_eq!(crate::case_seed("abc", 3), crate::case_seed("abc", 3));
        assert_ne!(crate::case_seed("abc", 3), crate::case_seed("abd", 3));
        assert_ne!(crate::case_seed("abc", 3), crate::case_seed("abc", 4));
    }

    #[test]
    fn vec_strategy_respects_size_range() {
        let strat = crate::collection::vec(0.0_f64..1.0, 5..9_usize);
        for case in 0..50 {
            let mut rng = crate::case_rng("vec_strategy", case);
            let v = strat.generate(&mut rng);
            assert!((5..9).contains(&v.len()), "len {}", v.len());
        }
    }

    #[test]
    fn array_strategy_fills_every_slot() {
        let strat = crate::array::uniform16(crate::num::u8::ANY);
        let mut rng = crate::case_rng("array_strategy", 0);
        let a: [u8; 16] = strat.generate(&mut rng);
        let b: [u8; 16] = strat.generate(&mut rng);
        assert_ne!(a, b, "distinct draws should differ");
    }

    #[test]
    fn prop_map_transforms_values() {
        let strat = (0_u64..10).prop_map(|v| v * 2);
        let mut rng = crate::case_rng("prop_map", 0);
        for _ in 0..20 {
            let v = strat.generate(&mut rng);
            assert_eq!(v % 2, 0);
            assert!(v < 20);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn macro_generates_in_range(x in 1.0_f64..2.0, n in 0_usize..5) {
            prop_assert!((1.0..2.0).contains(&x));
            prop_assert!(n < 5);
        }

        #[test]
        fn macro_supports_tuples_and_assume((a, b) in (0_u64..100, 0_u64..100)) {
            prop_assume!(a != b);
            prop_assert_ne!(a, b);
        }
    }
}
