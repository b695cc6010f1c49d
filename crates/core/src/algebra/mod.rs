//! GraphBLAS algebra: unary/binary operators, monoids, and semirings.
//!
//! "A powerful aspect of GraphBLAS is its ability to work on arbitrary
//! semirings, monoids, and functions" (§III). This module supplies:
//!
//! * [`UnaryOp`] / [`BinaryOp`] — plain function objects. Any
//!   `Fn(A) -> C + Sync` / `Fn(A, B) -> C + Sync` closure qualifies via a
//!   blanket impl, and the named structs in [`ops`] provide the standard
//!   GraphBLAS built-ins.
//! * [`Monoid`] — an associative binary operator with an identity element,
//!   used as the "add" of a semiring and by `reduce`.
//! * [`Semiring`] — add monoid plus multiply operator. The ready-made
//!   rings in [`semirings`] cover plus-times (numeric; or-and, boolean
//!   reachability, on `bool`), min-plus (tropical shortest paths),
//!   plus-pair (triangle counting) and plus-first (PageRank).

pub mod monoid;
pub mod ops;
pub mod semiring;

pub use monoid::{ComMonoid, Monoid, MonoidFn};
pub use ops::*;
pub use semiring::{semirings, Semiring};

/// A unary function `A -> C`, applied to every stored value by `Apply`.
///
/// Implemented for all `Fn(A) -> C + Sync` closures, so
/// `apply(&mut v, &|x: f64| x * 2.0, ..)` works directly.
pub trait UnaryOp<A, C>: Sync {
    /// Evaluate the operator.
    fn eval(&self, a: A) -> C;
}

impl<A, C, F> UnaryOp<A, C> for F
where
    F: Fn(A) -> C + Sync,
{
    #[inline(always)]
    fn eval(&self, a: A) -> C {
        self(a)
    }
}

/// A binary function `(A, B) -> C` — a GraphBLAS *function* in the paper's
/// terminology: "simply a binary operator ... allowed in operations that do
/// not require an identity element (e.g. eWiseMult)" (§III).
pub trait BinaryOp<A, B, C>: Sync {
    /// Evaluate the operator.
    fn eval(&self, a: A, b: B) -> C;
}

impl<A, B, C, F> BinaryOp<A, B, C> for F
where
    F: Fn(A, B) -> C + Sync,
{
    #[inline(always)]
    fn eval(&self, a: A, b: B) -> C {
        self(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closures_are_unary_ops() {
        fn takes_op(op: &impl UnaryOp<i32, i32>) -> i32 {
            op.eval(20)
        }
        assert_eq!(takes_op(&|x: i32| x + 1), 21);
    }

    #[test]
    fn closures_are_binary_ops() {
        fn takes_op(op: &impl BinaryOp<i32, i32, i32>) -> i32 {
            op.eval(3, 4)
        }
        assert_eq!(takes_op(&|a: i32, b: i32| a * b), 12);
    }
}
