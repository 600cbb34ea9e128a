//! Offline stand-in for the [`proptest`](https://proptest-rs.github.io)
//! property-testing framework.
//!
//! The workspace builds without registry access, so this shim reimplements
//! the subset of proptest the test suites use:
//!
//! * the [`proptest!`] macro (`fn name(pat in strategy, …) { … }` syntax,
//!   with `#![proptest_config(…)]`);
//! * [`prop_assert!`], [`prop_assert_eq!`], [`prop_assert_ne!`],
//!   [`prop_oneof!`];
//! * [`strategy::Strategy`] with `prop_map`/`boxed`, [`strategy::Just`],
//!   unsigned-integer-range and tuple strategies;
//! * [`fn@collection::vec`], [`option::of`], [`arbitrary::any`].
//!
//! Differences from the real crate: generation is seeded deterministically
//! from the test name (every run explores the same cases — failures are
//! reproducible by construction), and there is **no shrinking** — a failing
//! case reports the case number and assertion message, not a minimal
//! counterexample. That trade keeps the shim small while preserving the
//! property coverage of the suites.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod strategy;
pub mod test_runner;

/// Strategies for generating collections.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// A number-of-elements range for collection strategies.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl SizeRange {
        fn sample(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.lo..=self.hi_inclusive)
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    /// Strategy produced by [`vec()`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates a `Vec` whose length lies in `size`, with elements drawn
    /// from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.sample(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Strategies for generating `Option`s.
pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// Strategy produced by [`of`].
    #[derive(Clone, Debug)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// Generates `None` about a quarter of the time, otherwise `Some` of the
    /// inner strategy's value.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.gen_bool(0.25) {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

/// The `any::<T>()` entry point and the `Arbitrary` trait behind it.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use core::marker::PhantomData;
    use rand::RngCore;

    /// Types with a canonical "generate any value" strategy.
    pub trait Arbitrary: Sized {
        /// Draws an arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($ty:ty),*) => {$(
            impl Arbitrary for $ty {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $ty
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    /// Strategy produced by [`any`].
    pub struct Any<T>(PhantomData<fn() -> T>);

    impl<T> Clone for Any<T> {
        fn clone(&self) -> Self {
            Any(PhantomData)
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The strategy generating any value of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

/// Everything a property test module usually imports.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Declares property tests.
///
/// ```
/// use proptest::prelude::*;
///
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///
///     fn addition_commutes(a in 0u32..1000, b in 0u32..1000) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// # addition_commutes();
/// ```
///
/// In test modules each function carries `#[test]` (re-emitted verbatim by
/// the macro, exactly like real proptest); the example above omits it only
/// so the doctest can invoke the function directly.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!($config; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!($crate::test_runner::ProptestConfig::default(); $($rest)*);
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_impl {
    ($config:expr; $($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config = $config;
                let mut runner = $crate::test_runner::TestRunner::new(config);
                runner.run_cases(stringify!($name), |__proptest_rng| {
                    $(let $pat = $crate::strategy::Strategy::generate(&($strat), __proptest_rng);)+
                    let __proptest_result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| {
                            $body
                            #[allow(unreachable_code)]
                            ::std::result::Result::Ok(())
                        })();
                    __proptest_result
                });
            }
        )*
    };
}

/// Asserts a condition inside a property test, failing the case (not
/// panicking directly) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Asserts two expressions are equal inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__pl, __pr) = (&$left, &$right);
        if !(*__pl == *__pr) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                __pl,
                __pr
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__pl, __pr) = (&$left, &$right);
        if !(*__pl == *__pr) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`: {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                format!($($fmt)+),
                __pl,
                __pr
            )));
        }
    }};
}

/// Asserts two expressions are unequal inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__pl, __pr) = (&$left, &$right);
        if *__pl == *__pr {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                __pl
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__pl, __pr) = (&$left, &$right);
        if *__pl == *__pr {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{} != {}`: {}\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                format!($($fmt)+),
                __pl
            )));
        }
    }};
}

/// Picks uniformly among several strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}
