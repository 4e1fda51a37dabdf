//! Memory-less (static) math blocks.

use ecl_sim::{impl_block_any, Block, PortSpec};

use crate::error::BlockError;

/// `y = k · u`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gain {
    k: f64,
}

impl Gain {
    /// Creates a gain block with factor `k`.
    pub fn new(k: f64) -> Self {
        Gain { k }
    }

    /// The gain factor.
    pub fn k(&self) -> f64 {
        self.k
    }
}

impl Block for Gain {
    fn type_name(&self) -> &'static str {
        "Gain"
    }
    fn ports(&self) -> PortSpec {
        PortSpec::siso(1, 1)
    }
    fn depends_on_time(&self) -> bool {
        false
    }
    fn outputs(&mut self, _t: f64, _x: &[f64], u: &[f64], y: &mut [f64]) {
        y[0] = self.k * u[0];
    }
    impl_block_any!();
}

/// Weighted sum `y = Σ gains[i] · u[i]`.
///
/// The classic two-input comparator is `Sum::new(vec![1.0, -1.0])`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sum {
    gains: Vec<f64>,
}

impl Sum {
    /// Creates a sum block with one input per gain entry.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::InvalidParameter`] if `gains` is empty.
    pub fn new(gains: Vec<f64>) -> Result<Self, BlockError> {
        if gains.is_empty() {
            return Err(BlockError::InvalidParameter {
                block: "Sum",
                parameter: "gains",
                reason: "needs at least one input".into(),
            });
        }
        Ok(Sum { gains })
    }

    /// The standard comparator `y = u0 − u1`.
    pub fn comparator() -> Self {
        Sum {
            gains: vec![1.0, -1.0],
        }
    }
}

impl Block for Sum {
    fn type_name(&self) -> &'static str {
        "Sum"
    }
    fn ports(&self) -> PortSpec {
        PortSpec::siso(self.gains.len(), 1)
    }
    fn depends_on_time(&self) -> bool {
        false
    }
    fn outputs(&mut self, _t: f64, _x: &[f64], u: &[f64], y: &mut [f64]) {
        y[0] = self.gains.iter().zip(u).map(|(g, v)| g * v).sum();
    }
    impl_block_any!();
}

/// Clamps its input to `[min, max]` — models actuator limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Saturation {
    min: f64,
    max: f64,
}

impl Saturation {
    /// Creates a saturation with the given bounds.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::InvalidParameter`] if `min >= max`.
    pub fn new(min: f64, max: f64) -> Result<Self, BlockError> {
        if min >= max {
            return Err(BlockError::InvalidParameter {
                block: "Saturation",
                parameter: "min/max",
                reason: format!("min ({min}) must be below max ({max})"),
            });
        }
        Ok(Saturation { min, max })
    }

    /// A symmetric saturation `[-limit, limit]`.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::InvalidParameter`] if `limit <= 0`.
    pub fn symmetric(limit: f64) -> Result<Self, BlockError> {
        Saturation::new(-limit, limit)
    }
}

impl Block for Saturation {
    fn type_name(&self) -> &'static str {
        "Saturation"
    }
    fn ports(&self) -> PortSpec {
        PortSpec::siso(1, 1)
    }
    fn depends_on_time(&self) -> bool {
        false
    }
    fn outputs(&mut self, _t: f64, _x: &[f64], u: &[f64], y: &mut [f64]) {
        y[0] = u[0].clamp(self.min, self.max);
    }
    impl_block_any!();
}

/// Rounds its input to the nearest multiple of `step` — models ADC/DAC
/// quantization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantizer {
    step: f64,
}

impl Quantizer {
    /// Creates a quantizer with resolution `step`.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::InvalidParameter`] if `step <= 0` or not
    /// finite.
    pub fn new(step: f64) -> Result<Self, BlockError> {
        if !(step > 0.0) || !step.is_finite() {
            return Err(BlockError::InvalidParameter {
                block: "Quantizer",
                parameter: "step",
                reason: format!("must be positive and finite, got {step}"),
            });
        }
        Ok(Quantizer { step })
    }
}

impl Block for Quantizer {
    fn type_name(&self) -> &'static str {
        "Quantizer"
    }
    fn ports(&self) -> PortSpec {
        PortSpec::siso(1, 1)
    }
    fn depends_on_time(&self) -> bool {
        false
    }
    fn outputs(&mut self, _t: f64, _x: &[f64], u: &[f64], y: &mut [f64]) {
        y[0] = (u[0] / self.step).round() * self.step;
    }
    impl_block_any!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(b: &mut impl Block, u: &[f64]) -> f64 {
        let mut y = [0.0];
        b.outputs(0.0, &[], u, &mut y);
        y[0]
    }

    #[test]
    fn gain_scales() {
        let mut g = Gain::new(-2.0);
        assert_eq!(eval(&mut g, &[3.0]), -6.0);
        assert_eq!(g.k(), -2.0);
    }

    #[test]
    fn sum_weighted() {
        let mut s = Sum::new(vec![1.0, -1.0, 0.5]).unwrap();
        assert_eq!(eval(&mut s, &[1.0, 2.0, 4.0]), 1.0);
        assert_eq!(s.ports().inputs, 3);
        let mut c = Sum::comparator();
        assert_eq!(eval(&mut c, &[5.0, 3.0]), 2.0);
    }

    #[test]
    fn sum_rejects_empty() {
        assert!(Sum::new(vec![]).is_err());
    }

    #[test]
    fn saturation_clamps() {
        let mut s = Saturation::new(-1.0, 2.0).unwrap();
        assert_eq!(eval(&mut s, &[-5.0]), -1.0);
        assert_eq!(eval(&mut s, &[0.5]), 0.5);
        assert_eq!(eval(&mut s, &[9.0]), 2.0);
        assert!(Saturation::new(1.0, 1.0).is_err());
        assert!(Saturation::symmetric(-1.0).is_err());
        let mut sym = Saturation::symmetric(3.0).unwrap();
        assert_eq!(eval(&mut sym, &[-10.0]), -3.0);
    }

    #[test]
    fn quantizer_rounds() {
        let mut q = Quantizer::new(0.5).unwrap();
        assert_eq!(eval(&mut q, &[0.74]), 0.5);
        assert_eq!(eval(&mut q, &[0.76]), 1.0);
        assert_eq!(eval(&mut q, &[-0.74]), -0.5);
        assert!(Quantizer::new(0.0).is_err());
        assert!(Quantizer::new(f64::NAN).is_err());
    }
}
