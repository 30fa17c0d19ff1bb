use crate::TensorError;

/// The shape of a tensor: an ordered list of dimension sizes.
///
/// Shapes are row-major: the last dimension varies fastest in memory.
///
/// # Example
///
/// ```
/// use reuse_tensor::Shape;
///
/// let s = Shape::d3(2, 3, 4);
/// assert_eq!(s.volume(), 24);
/// assert_eq!(s.dims(), &[2, 3, 4]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from a slice of dimension sizes.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyShape`] if `dims` is empty or any
    /// dimension is zero.
    pub fn new(dims: &[usize]) -> Result<Self, TensorError> {
        if dims.is_empty() || dims.contains(&0) {
            return Err(TensorError::EmptyShape);
        }
        Ok(Shape {
            dims: dims.to_vec(),
        })
    }

    /// Creates a 1-dimensional shape.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn d1(n: usize) -> Self {
        Self::new(&[n]).expect("dimension must be non-zero")
    }

    /// Creates a 2-dimensional shape (rows, cols).
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn d2(rows: usize, cols: usize) -> Self {
        Self::new(&[rows, cols]).expect("dimensions must be non-zero")
    }

    /// Creates a 3-dimensional shape (channels, height, width).
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn d3(c: usize, h: usize, w: usize) -> Self {
        Self::new(&[c, h, w]).expect("dimensions must be non-zero")
    }

    /// Creates a 4-dimensional shape (channels, depth, height, width),
    /// the NCDHW-without-batch convention used for 3D convolutions.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn d4(c: usize, d: usize, h: usize, w: usize) -> Self {
        Self::new(&[c, d, h, w]).expect("dimensions must be non-zero")
    }

    /// The dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The total number of elements.
    pub fn volume(&self) -> usize {
        self.dims.iter().product()
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Shape> for Vec<usize> {
    fn from(shape: Shape) -> Self {
        shape.dims
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_is_the_product_of_dims() {
        let s = Shape::d4(3, 16, 112, 112);
        assert_eq!(s.dims(), &[3, 16, 112, 112]);
        assert_eq!(s.volume(), 3 * 16 * 112 * 112);
    }

    #[test]
    fn zero_dimensions_rejected() {
        assert_eq!(Shape::new(&[]), Err(TensorError::EmptyShape));
        assert_eq!(Shape::new(&[2, 0, 3]), Err(TensorError::EmptyShape));
    }

    #[test]
    fn display_formats_dimensions() {
        assert_eq!(Shape::d3(3, 66, 200).to_string(), "[3x66x200]");
    }
}
