//! A small dense `f64` vector.
//!
//! Rate vectors `R`, capacity vectors `C`, load-coefficient rows and weight
//! rows in the ROD formulation all have between 2 and a few dozen entries,
//! so a thin wrapper over `Vec<f64>` with the handful of operations the
//! algorithms need is the right tool — no SIMD, no generic dimension
//! gymnastics.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Sub};

use serde::{Deserialize, Serialize};

/// A dense vector of `f64` components.
#[derive(Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Vector(pub Vec<f64>);

impl Vector {
    /// Creates a vector from components.
    pub fn new(components: Vec<f64>) -> Self {
        Vector(components)
    }

    /// Creates a zero vector of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        Vector(vec![0.0; dim])
    }

    /// Creates a vector of all ones of dimension `dim`.
    pub fn ones(dim: usize) -> Self {
        Vector(vec![1.0; dim])
    }

    /// Dimension (number of components).
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// True when the vector has no components.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Component slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Dot product. Panics if dimensions differ.
    pub fn dot(&self, other: &Vector) -> f64 {
        assert_eq!(
            self.dim(),
            other.dim(),
            "dot product of vectors with different dimensions"
        );
        self.0.iter().zip(other.0.iter()).map(|(a, b)| a * b).sum()
    }

    /// Euclidean (L2) norm. This is the norm the ROD paper uses both to
    /// order operators (Phase 1) and to measure plane distance `1/‖W_i‖₂`.
    pub fn norm(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Sum of components.
    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Largest component (`-inf` for the empty vector).
    pub fn max(&self) -> f64 {
        self.0.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Smallest component (`+inf` for the empty vector).
    pub fn min(&self) -> f64 {
        self.0.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Component-wise scaling by a scalar.
    pub fn scaled(&self, factor: f64) -> Vector {
        Vector(self.0.iter().map(|a| a * factor).collect())
    }

    /// Component-wise product (Hadamard).
    pub fn hadamard(&self, other: &Vector) -> Vector {
        assert_eq!(self.dim(), other.dim());
        Vector(
            self.0
                .iter()
                .zip(other.0.iter())
                .map(|(a, b)| a * b)
                .collect(),
        )
    }

    /// True when every component is ≥ 0.
    pub fn is_nonnegative(&self) -> bool {
        self.0.iter().all(|&a| a >= 0.0)
    }

    /// True when `self[k] <= other[k]` for every `k` (the component-wise
    /// partial order used to state feasibility monotonicity).
    pub fn le(&self, other: &Vector) -> bool {
        assert_eq!(self.dim(), other.dim());
        self.0.iter().zip(other.0.iter()).all(|(a, b)| a <= b)
    }
}

impl fmt::Debug for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Vector{:?}", self.0)
    }
}

impl From<Vec<f64>> for Vector {
    fn from(v: Vec<f64>) -> Self {
        Vector(v)
    }
}

impl From<&[f64]> for Vector {
    fn from(v: &[f64]) -> Self {
        Vector(v.to_vec())
    }
}

impl<const N: usize> From<[f64; N]> for Vector {
    fn from(v: [f64; N]) -> Self {
        Vector(v.to_vec())
    }
}

impl Index<usize> for Vector {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.0[i]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.0[i]
    }
}

impl Add<&Vector> for &Vector {
    type Output = Vector;
    fn add(self, other: &Vector) -> Vector {
        assert_eq!(self.dim(), other.dim());
        Vector(
            self.0
                .iter()
                .zip(other.0.iter())
                .map(|(a, b)| a + b)
                .collect(),
        )
    }
}

impl Sub<&Vector> for &Vector {
    type Output = Vector;
    fn sub(self, other: &Vector) -> Vector {
        assert_eq!(self.dim(), other.dim());
        Vector(
            self.0
                .iter()
                .zip(other.0.iter())
                .map(|(a, b)| a - b)
                .collect(),
        )
    }
}

impl AddAssign<&Vector> for Vector {
    fn add_assign(&mut self, other: &Vector) {
        assert_eq!(self.dim(), other.dim());
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a += b;
        }
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;
    fn mul(self, factor: f64) -> Vector {
        self.scaled(factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn dot_and_norm() {
        let a = Vector::from([3.0, 4.0]);
        assert!(approx_eq(a.norm(), 5.0));
        let b = Vector::from([1.0, 2.0]);
        assert!(approx_eq(a.dot(&b), 11.0));
    }

    #[test]
    fn arithmetic() {
        let a = Vector::from([1.0, 2.0]);
        let b = Vector::from([10.0, 20.0]);
        assert_eq!((&a + &b).as_slice(), &[11.0, 22.0]);
        assert_eq!((&b - &a).as_slice(), &[9.0, 18.0]);
        assert_eq!(a.scaled(3.0).as_slice(), &[3.0, 6.0]);
        assert_eq!(a.hadamard(&b).as_slice(), &[10.0, 40.0]);
    }

    #[test]
    fn aggregates() {
        let a = Vector::from([4.0, -1.0, 2.5]);
        assert!(approx_eq(a.sum(), 5.5));
        assert!(approx_eq(a.max(), 4.0));
        assert!(approx_eq(a.min(), -1.0));
        assert!(!a.is_nonnegative());
        assert!(Vector::zeros(3).is_nonnegative());
    }

    #[test]
    fn partial_order() {
        let lo = Vector::from([1.0, 1.0]);
        let hi = Vector::from([1.0, 2.0]);
        assert!(lo.le(&hi));
        assert!(!hi.le(&lo));
        assert!(lo.le(&lo));
    }

    #[test]
    #[should_panic(expected = "different dimensions")]
    fn dot_dimension_mismatch_panics() {
        let _ = Vector::from([1.0]).dot(&Vector::from([1.0, 2.0]));
    }

    #[test]
    fn add_assign_accumulates() {
        let mut acc = Vector::zeros(2);
        acc += &Vector::from([1.0, 2.0]);
        acc += &Vector::from([0.5, 0.5]);
        assert_eq!(acc.as_slice(), &[1.5, 2.5]);
    }
}
