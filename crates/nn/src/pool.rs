//! Max-pooling layers.
//!
//! Pooling layers carry no weights, so the paper excludes them from the
//! reuse scheme (Table I note); they still matter for shape plumbing and for
//! the accelerator's op accounting. The layers are window descriptions;
//! [`crate::Layer::forward_into`] runs both ranks through
//! `reuse_tensor::conv::max_pool_into`.

/// A 2D max-pooling layer with a square window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool2dLayer {
    /// Window side length.
    pub window: usize,
    /// Stride (usually equal to `window`).
    pub stride: usize,
    /// Emit a final partial window when the stride does not divide evenly.
    pub ceil: bool,
}

impl Pool2dLayer {
    /// Square non-overlapping pooling (stride = window, floor mode).
    pub fn square(window: usize) -> Self {
        Pool2dLayer {
            window,
            stride: window,
            ceil: false,
        }
    }
}

/// A 3D max-pooling layer with independent temporal and spatial windows
/// (C3D convention: pool1 is 1×2×2, the rest 2×2×2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool3dLayer {
    /// Temporal (depth) window; stride equals the window.
    pub wd: usize,
    /// Spatial window (applied to both height and width); stride equals it.
    pub whw: usize,
    /// Emit final partial windows (Caffe/C3D ceil mode).
    pub ceil: bool,
}

impl Pool3dLayer {
    /// Creates a pooling layer with the C3D window convention.
    pub fn new(wd: usize, whw: usize, ceil: bool) -> Self {
        Pool3dLayer { wd, whw, ceil }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Layer;
    use reuse_tensor::Shape;

    /// Pools zeros of `shape` through the layer entry; the output volume
    /// must be the one shape inference promised.
    fn pooled_dims(layer: Layer, shape: Shape) -> Vec<usize> {
        let mut out = Vec::new();
        layer
            .forward_into(&shape, &vec![0.0; shape.volume()], &mut out)
            .unwrap();
        let inferred = layer.output_shape(&shape).unwrap();
        assert_eq!(out.len(), inferred.volume());
        inferred.dims().to_vec()
    }

    #[test]
    fn square_pool_halves_dimensions() {
        let layer = Layer::Pool2d(Pool2dLayer::square(2));
        let input: Vec<f32> = (0..32).map(|i| i as f32).collect();
        let mut out = Vec::new();
        layer
            .forward_into(&Shape::d3(2, 4, 4), &input, &mut out)
            .unwrap();
        assert_eq!(out, [5., 7., 13., 15., 21., 23., 29., 31.]);
    }

    #[test]
    fn pool3d_c3d_chain_shapes() {
        // The C3D feature-map chain from Table I:
        // 64x16x112x112 -pool 1x2x2-> 64x16x56x56
        let p1 = Layer::Pool3d(Pool3dLayer::new(1, 2, false));
        assert_eq!(pooled_dims(p1, Shape::d4(2, 16, 112, 112)), [2, 16, 56, 56]);
        // 128x16x56x56 -pool 2x2x2-> 128x8x28x28
        let p2 = Layer::Pool3d(Pool3dLayer::new(2, 2, false));
        assert_eq!(pooled_dims(p2, Shape::d4(2, 16, 56, 56)), [2, 8, 28, 28]);
    }

    #[test]
    fn pool3d_ceil_final_stage() {
        // 512x2x7x7 -pool 2x2x2 ceil-> 512x1x4x4 (8192 inputs for FC1).
        let p5 = Layer::Pool3d(Pool3dLayer::new(2, 2, true));
        assert_eq!(pooled_dims(p5, Shape::d4(4, 2, 7, 7)), [4, 1, 4, 4]);
    }

    #[test]
    fn oversized_window_errors() {
        let mut out = Vec::new();
        let pool = Layer::Pool2d(Pool2dLayer::square(4));
        assert!(pool
            .forward_into(&Shape::d3(1, 2, 2), &[0.0; 4], &mut out)
            .is_err());
        let pool = Layer::Pool2d(Pool2dLayer::square(2));
        assert!(pool
            .forward_into(&Shape::d4(1, 1, 2, 2), &[0.0; 4], &mut out)
            .is_err());
    }
}
