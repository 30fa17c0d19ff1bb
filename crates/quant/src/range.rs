//! Input-range profiling.
//!
//! The paper obtains each layer's input range "via profiling using the
//! training dataset" (Section III). [`RangeProfiler`] plays that role here:
//! feed it every input vector of a calibration sequence and ask for the
//! resulting [`InputRange`].

use crate::QuantError;

/// A closed input interval `[min, max]` for one layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InputRange {
    min: f32,
    max: f32,
}

impl InputRange {
    /// Creates a range; `min` may equal `max` (degenerate constant input).
    pub fn new(min: f32, max: f32) -> Self {
        InputRange { min, max }
    }

    /// A symmetric range `[-m, m]`.
    pub fn symmetric(m: f32) -> Self {
        InputRange {
            min: -m.abs(),
            max: m.abs(),
        }
    }

    /// The lower bound.
    pub fn min(&self) -> f32 {
        self.min
    }

    /// The upper bound.
    pub fn max(&self) -> f32 {
        self.max
    }

    /// The width `max - min`.
    pub fn width(&self) -> f32 {
        self.max - self.min
    }

    /// Validates the range for quantizer construction.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidRange`] when inverted, non-finite or of
    /// zero width.
    pub fn validated(self) -> Result<Self, QuantError> {
        if !self.min.is_finite() || !self.max.is_finite() || self.max <= self.min {
            return Err(QuantError::InvalidRange {
                min: self.min,
                max: self.max,
            });
        }
        Ok(self)
    }

    /// Clamps a value into the range.
    pub fn clamp(&self, v: f32) -> f32 {
        v.clamp(self.min, self.max)
    }
}

/// Accumulates the observed min/max over calibration inputs.
#[derive(Debug, Clone, Default)]
pub struct RangeProfiler {
    min: Option<f32>,
    max: Option<f32>,
}

impl RangeProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes one value (non-finite values are ignored).
    pub fn observe(&mut self, v: f32) {
        if !v.is_finite() {
            return;
        }
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
    }

    /// Observes a whole slice.
    pub fn observe_slice(&mut self, vs: &[f32]) {
        for &v in vs {
            self.observe(v);
        }
    }

    /// The profiled range, widened by `margin` (relative) on both sides so
    /// the deployed quantizer tolerates mild distribution shift.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidRange`] when nothing (or only a single
    /// constant value) was observed.
    pub fn range(&self, margin: f32) -> Result<InputRange, QuantError> {
        match (self.min, self.max) {
            (Some(lo), Some(hi)) if hi > lo => {
                let pad = (hi - lo) * margin;
                InputRange::new(lo - pad, hi + pad).validated()
            }
            (Some(lo), Some(hi)) => Err(QuantError::InvalidRange { min: lo, max: hi }),
            _ => Err(QuantError::InvalidRange {
                min: f32::NAN,
                max: f32::NAN,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiler_tracks_extremes() {
        let mut p = RangeProfiler::new();
        p.observe_slice(&[0.5, -1.5, 2.0, 0.0]);
        let r = p.range(0.0).unwrap();
        assert_eq!((r.min(), r.max()), (-1.5, 2.0));
    }

    #[test]
    fn margin_widens_range() {
        let mut p = RangeProfiler::new();
        p.observe_slice(&[0.0, 1.0]);
        let r = p.range(0.1).unwrap();
        assert!((r.min() + 0.1).abs() < 1e-6);
        assert!((r.max() - 1.1).abs() < 1e-6);
    }

    #[test]
    fn empty_profiler_errors() {
        let p = RangeProfiler::new();
        assert!(p.range(0.0).is_err());
    }

    #[test]
    fn constant_input_errors() {
        let mut p = RangeProfiler::new();
        p.observe_slice(&[3.0, 3.0, 3.0]);
        assert!(p.range(0.0).is_err());
    }

    #[test]
    fn non_finite_values_ignored() {
        let mut p = RangeProfiler::new();
        p.observe(f32::NAN);
        p.observe(f32::INFINITY);
        p.observe_slice(&[1.0, 2.0]);
        let r = p.range(0.0).unwrap();
        assert_eq!((r.min(), r.max()), (1.0, 2.0));
    }

    #[test]
    fn clamp_and_width() {
        let r = InputRange::new(-1.0, 3.0);
        assert_eq!(r.width(), 4.0);
        assert_eq!(r.clamp(5.0), 3.0);
        assert_eq!(r.clamp(-5.0), -1.0);
        assert_eq!(r.clamp(0.5), 0.5);
    }

    #[test]
    fn symmetric_takes_abs() {
        let r = InputRange::symmetric(-2.0);
        assert_eq!((r.min(), r.max()), (-2.0, 2.0));
    }

    #[test]
    fn inverted_range_invalid() {
        assert!(InputRange::new(1.0, -1.0).validated().is_err());
        assert!(InputRange::new(0.0, 0.0).validated().is_err());
        assert!(InputRange::new(0.0, 1.0).validated().is_ok());
    }
}
