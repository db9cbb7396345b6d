//! Offline stand-in for the `proptest` crate.
//!
//! This workspace must build without crates.io access, so the external
//! property-testing dependency is replaced by an API-compatible subset:
//! the `proptest!`/`prop_assert*`/`prop_oneof!` macros, the [`Strategy`](strategy::Strategy)
//! trait with `prop_map`/`boxed`, integer-range and tuple strategies,
//! `any::<T>()`, `Just`, `collection::{vec, hash_set}`, `option::of` and
//! simple `"[class]{lo,hi}"` string-pattern strategies.
//!
//! Differences from real proptest, deliberately accepted:
//!
//! * **No shrinking.** A failing case reports its inputs (via the panic
//!   message) but is not minimized.
//! * **Deterministic seeding.** Each test derives its RNG seed from the
//!   test name, so runs are reproducible without a persistence file.

#![forbid(unsafe_code)]

pub mod arbitrary;
pub mod collection;
pub mod option;
pub mod strategy;
pub mod string;
pub mod test_runner;

/// The usual one-stop import, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Run a block of property tests.
///
/// Accepts the real proptest surface used in this workspace:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(32))]
///
///     /// Doc comment.
///     #[test]
///     fn my_property(x in 0u32..10, y in any::<u64>()) { ... }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (@with_config ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let mut rng =
                    $crate::test_runner::TestRng::deterministic(stringify!($name));
                for case in 0..config.cases {
                    $(
                        let $arg =
                            $crate::strategy::Strategy::sample(&($strat), &mut rng);
                    )+
                    let outcome: ::std::result::Result<
                        (),
                        $crate::test_runner::TestCaseError,
                    > = (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                    if let ::std::result::Result::Err(e) = outcome {
                        panic!(
                            "property `{}` failed at case {}/{}: {}",
                            stringify!($name),
                            case + 1,
                            config.cases,
                            e
                        );
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(
            @with_config ($crate::test_runner::ProptestConfig::default()) $($rest)*
        );
    };
}

/// Fail the enclosing property when the condition does not hold.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond));
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Fail the enclosing property when the two values differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "assertion failed: {:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {:?} == {:?}: {}", l, r, format!($($fmt)*)
        );
    }};
}

/// Fail the enclosing property when the two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, "assertion failed: {:?} != {:?}", l, r);
    }};
}

/// Choose among strategies, optionally weighted (`3 => strat`).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat)),)+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat)),)+
        ])
    };
}
