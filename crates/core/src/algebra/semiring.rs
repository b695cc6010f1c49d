//! Semirings: the algebra `SpMSpV`, `SpMV` and `MxM` compute over.
//!
//! "A GraphBLAS semiring allows overloading the scalar multiplication and
//! addition with user defined binary operators. A semiring also has to
//! contain an additive identity element." (§III)

use super::monoid::Monoid;
use super::ops::{First, Min, Pair, Plus, Scalar, Times};
use super::BinaryOp;

/// A GraphBLAS semiring: an *add* monoid over the output domain `C` and a
/// *multiply* operator `A × B -> C`.
///
/// `A` is the domain of the left operand (vector in `x A`, matrix in `A x`),
/// `B` of the right, `C` of the result. The structure is a plain pair so
/// arbitrary combinations can be assembled on the fly:
///
/// ```
/// use gblas_core::algebra::{Semiring, Min, Plus};
/// // tropical (shortest-path) semiring: add = min, multiply = +
/// let tropical: Semiring<Min, Plus> = Semiring::new(Min, Plus);
/// # let _ = tropical;
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Semiring<AddM, MulOp> {
    /// Additive monoid (must be associative with identity).
    pub add: AddM,
    /// Multiplicative binary operator.
    pub mul: MulOp,
}

impl<AddM, MulOp> Semiring<AddM, MulOp> {
    /// Assemble a semiring from its two halves.
    pub fn new(add: AddM, mul: MulOp) -> Self {
        Semiring { add, mul }
    }

    /// The additive identity ("zero") of the semiring for output domain `C`.
    #[inline(always)]
    pub fn zero<C>(&self) -> C
    where
        AddM: Monoid<C>,
    {
        self.add.identity()
    }

    /// `a ⊗ b`.
    #[inline(always)]
    pub fn multiply<A, B, C>(&self, a: A, b: B) -> C
    where
        MulOp: BinaryOp<A, B, C>,
    {
        self.mul.eval(a, b)
    }

    /// `a ⊕ b`.
    #[inline(always)]
    pub fn accumulate<C>(&self, a: C, b: C) -> C
    where
        AddM: Monoid<C>,
    {
        self.add.combine(a, b)
    }
}

/// Ready-made semirings covering the classic graph algorithms.
pub mod semirings {
    use super::*;

    /// Conventional arithmetic `(+, ×)` over any [`Scalar`]; PageRank,
    /// counting walks, numeric SpGEMM. On `bool` it is `(or, and)`, plain
    /// reachability: `Plus` *is* logical OR and `Times` *is* logical AND
    /// there (see `Scalar for bool`).
    pub fn plus_times<T: Scalar>() -> Semiring<Plus, Times> {
        Semiring::new(Plus, Times)
    }

    /// `(+, ×)` over `f64` (the most common instantiation, named for
    /// convenience in examples and docs).
    pub fn plus_times_f64() -> Semiring<Plus, Times> {
        plus_times::<f64>()
    }

    /// Tropical `(min, +)`: single-source shortest paths via repeated
    /// SpMSpV/SpMV.
    pub fn min_plus() -> Semiring<Min, Plus> {
        Semiring::new(Min, Plus)
    }

    /// `(plus, pair)`: counts structural intersections; with a mask this is
    /// the triangle-counting semiring.
    pub fn plus_pair() -> Semiring<Plus, Pair> {
        Semiring::new(Plus, Pair)
    }

    /// `(plus, first)`: sums the vector operand over the matrix *pattern*
    /// — `y[j] = Σ_{i: A[i,j] stored} x[i]` in `y = x A`. The matrix
    /// value is never an input of the multiply, so the kernels
    /// monomorphise its load away and `A` may hold any value type: a
    /// row-scaled multiply (`W[i,j] = w[i]`) is this semiring over `A`
    /// itself with `x[i]·w[i]` as the operand, no `W` materialised. The
    /// PageRank semiring.
    pub fn plus_first() -> Semiring<Plus, First> {
        Semiring::new(Plus, First)
    }
}

#[cfg(test)]
mod tests {
    use super::semirings::*;

    #[test]
    fn plus_times_behaves_like_arithmetic() {
        let s = plus_times_f64();
        let z: f64 = s.zero();
        assert_eq!(z, 0.0);
        let prod: f64 = s.multiply(3.0f64, 4.0f64);
        assert_eq!(prod, 12.0);
        assert_eq!(s.accumulate(prod, 1.0), 13.0);
    }

    #[test]
    fn tropical_zero_is_infinity() {
        let s = min_plus();
        let z: f64 = s.zero();
        assert_eq!(z, f64::INFINITY);
        let relaxed: f64 = s.multiply(2.0f64, 3.0f64); // path extension
        assert_eq!(s.accumulate(relaxed, 10.0), 5.0);
    }

    #[test]
    fn boolean_reachability() {
        let s = plus_times::<bool>();
        let z: bool = s.zero();
        assert!(!z);
        let reach: bool = s.multiply(true, true);
        assert!(s.accumulate(reach, false));
    }

    #[test]
    fn plus_first_ignores_the_matrix_operand() {
        let s = plus_first();
        let kept: f64 = s.multiply(0.25f64, f64::NAN);
        assert_eq!(kept, 0.25);
        let kept: f64 = s.multiply(0.25f64, true); // any matrix value type
        assert_eq!(s.accumulate(kept, 1.0), 1.25);
    }

    #[test]
    fn plus_pair_counts() {
        let s = plus_pair();
        let one: u64 = s.multiply(9.0f64, 4.0f64);
        assert_eq!(one, 1);
        assert_eq!(s.accumulate(one, 5u64), 6);
    }
}
