/// Orientation of a hinge function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HingeDirection {
    /// `max(0, x − knot)`.
    Positive,
    /// `max(0, knot − x)`.
    Negative,
}

/// A single hinge function `max(0, ±(x_feature − knot))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hinge {
    /// Input feature index the hinge reads.
    pub feature: usize,
    /// Knot location `t`.
    pub knot: f64,
    /// Which side of the knot is active.
    pub direction: HingeDirection,
}

impl Hinge {
    /// Evaluates the hinge at an input vector.
    ///
    /// # Panics
    ///
    /// Panics if `feature` is out of bounds for `x`.
    pub fn eval(&self, x: &[f64]) -> f64 {
        let v = x[self.feature];
        match self.direction {
            HingeDirection::Positive => (v - self.knot).max(0.0),
            HingeDirection::Negative => (self.knot - v).max(0.0),
        }
    }
}

/// A MARS basis function: a product of hinges and plain linear factors
/// (empty product = intercept).
///
/// Linear factors (`x_j` with no knot) give the model non-vanishing slopes
/// outside the training range — without them a pruned model can go
/// completely flat in extrapolation, which matters when silicon PCMs drift
/// beyond the simulated range.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BasisFunction {
    hinges: Vec<Hinge>,
    linear: Vec<usize>,
}

impl BasisFunction {
    /// The intercept basis (constant `1`).
    pub fn intercept() -> Self {
        BasisFunction::default()
    }

    /// A pure linear basis `x_feature`.
    pub fn linear(feature: usize) -> Self {
        BasisFunction {
            hinges: Vec::new(),
            linear: vec![feature],
        }
    }

    /// Rebuilds a basis from its factors — the reconstruction path for
    /// persisted models, inverse of [`BasisFunction::hinges`] +
    /// [`BasisFunction::linear_features`].
    pub fn from_parts(hinges: Vec<Hinge>, linear: Vec<usize>) -> Self {
        BasisFunction { hinges, linear }
    }

    /// Extends this basis with one more hinge (the forward-pass child).
    pub fn with_hinge(&self, hinge: Hinge) -> Self {
        let mut out = self.clone();
        out.hinges.push(hinge);
        out
    }

    /// Interaction degree (number of hinge and linear factors).
    pub fn degree(&self) -> usize {
        self.hinges.len() + self.linear.len()
    }

    /// `true` if this is the intercept.
    pub fn is_intercept(&self) -> bool {
        self.hinges.is_empty() && self.linear.is_empty()
    }

    /// The hinges making up the product.
    pub fn hinges(&self) -> &[Hinge] {
        &self.hinges
    }

    /// The linear factors making up the product.
    pub fn linear_features(&self) -> &[usize] {
        &self.linear
    }

    /// `true` if the basis already uses the feature (MARS forbids repeated
    /// features within one product term).
    pub fn uses_feature(&self, feature: usize) -> bool {
        self.hinges.iter().any(|h| h.feature == feature) || self.linear.contains(&feature)
    }

    /// Evaluates the product of factors at an input vector.
    ///
    /// # Panics
    ///
    /// Panics if any factor's feature index is out of bounds for `x`.
    pub fn eval(&self, x: &[f64]) -> f64 {
        let hinge_part: f64 = self.hinges.iter().map(|h| h.eval(x)).product();
        let linear_part: f64 = self.linear.iter().map(|&j| x[j]).product();
        hinge_part * linear_part
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hinge_directions() {
        let pos = Hinge {
            feature: 0,
            knot: 2.0,
            direction: HingeDirection::Positive,
        };
        assert_eq!(pos.eval(&[3.0]), 1.0);
        assert_eq!(pos.eval(&[1.0]), 0.0);
        let neg = Hinge {
            feature: 0,
            knot: 2.0,
            direction: HingeDirection::Negative,
        };
        assert_eq!(neg.eval(&[3.0]), 0.0);
        assert_eq!(neg.eval(&[1.0]), 1.0);
    }

    #[test]
    fn intercept_evaluates_to_one() {
        let b = BasisFunction::intercept();
        assert_eq!(b.eval(&[1.0, 2.0]), 1.0);
        assert!(b.is_intercept());
        assert_eq!(b.degree(), 0);
    }

    #[test]
    fn product_of_hinges() {
        let b = BasisFunction::from_parts(
            vec![
                Hinge {
                    feature: 0,
                    knot: 0.0,
                    direction: HingeDirection::Positive,
                },
                Hinge {
                    feature: 1,
                    knot: 1.0,
                    direction: HingeDirection::Negative,
                },
            ],
            Vec::new(),
        );
        // (x0 - 0)+ * (1 - x1)+ at (2, 0) = 2 * 1 = 2.
        assert_eq!(b.eval(&[2.0, 0.0]), 2.0);
        // Any zero factor kills the product.
        assert_eq!(b.eval(&[-1.0, 0.0]), 0.0);
        assert_eq!(b.degree(), 2);
    }

    #[test]
    fn with_hinge_is_nondestructive() {
        let parent = BasisFunction::intercept();
        let child = parent.with_hinge(Hinge {
            feature: 0,
            knot: 1.0,
            direction: HingeDirection::Positive,
        });
        assert_eq!(parent.degree(), 0);
        assert_eq!(child.degree(), 1);
        assert!(child.uses_feature(0));
        assert!(!child.uses_feature(1));
    }
}
