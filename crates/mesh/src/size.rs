//! Mesh dimensions.

use std::error::Error;
use std::fmt;

/// Errors building a mesh.
#[derive(Clone, Debug, PartialEq)]
pub enum MeshError {
    /// Dimensions outside the supported range.
    InvalidSize {
        /// Requested columns.
        cols: usize,
        /// Requested rows.
        rows: usize,
    },
    /// The injection rate is not positive and finite.
    InvalidRate {
        /// The rejected rate.
        rate: f64,
    },
    /// The traffic layer rejected the configuration.
    Traffic(asynoc_traffic::TrafficError),
}

impl fmt::Display for MeshError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeshError::InvalidSize { cols, rows } => write!(
                f,
                "mesh {cols}x{rows} unsupported: each dimension must be in 2..=8 and the \
                 endpoint count ({}) must be a power of two",
                cols * rows
            ),
            MeshError::InvalidRate { rate } => {
                write!(
                    f,
                    "injection rate {rate} flits/ns is not positive and finite"
                )
            }
            MeshError::Traffic(e) => write!(f, "traffic error: {e}"),
        }
    }
}

impl Error for MeshError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MeshError::Traffic(e) => Some(e),
            _ => None,
        }
    }
}

impl From<asynoc_traffic::TrafficError> for MeshError {
    fn from(e: asynoc_traffic::TrafficError) -> Self {
        match e {
            asynoc_traffic::TrafficError::InvalidRate { rate } => MeshError::InvalidRate { rate },
            e => MeshError::Traffic(e),
        }
    }
}

/// Validated mesh dimensions: `cols × rows` routers, one endpoint per
/// router, at most 64 endpoints (the destination-set capacity). The
/// endpoint count must additionally be a power of two for the shared
/// benchmark suite's bit permutations to apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MeshSize {
    cols: usize,
    rows: usize,
}

impl MeshSize {
    /// Validates mesh dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::InvalidSize`] unless both dimensions are in
    /// `2..=8` and `cols·rows` is a power of two.
    pub fn new(cols: usize, rows: usize) -> Result<Self, MeshError> {
        let ok =
            (2..=8).contains(&cols) && (2..=8).contains(&rows) && (cols * rows).is_power_of_two();
        if ok {
            Ok(MeshSize { cols, rows })
        } else {
            Err(MeshError::InvalidSize { cols, rows })
        }
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(self) -> usize {
        self.cols
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(self) -> usize {
        self.rows
    }

    /// Number of routers (= endpoints).
    #[must_use]
    pub fn endpoints(self) -> usize {
        self.cols * self.rows
    }

    /// Endpoint index of router `(x, y)` (row-major).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) on out-of-range coordinates.
    #[must_use]
    pub fn index(self, x: usize, y: usize) -> usize {
        debug_assert!(x < self.cols && y < self.rows);
        y * self.cols + x
    }

    /// Coordinates of endpoint `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn coords(self, index: usize) -> (usize, usize) {
        assert!(index < self.endpoints(), "endpoint {index} out of range");
        (index % self.cols, index / self.cols)
    }

    /// Manhattan hop distance between two endpoints (router-to-router
    /// hops, excluding injection/ejection).
    #[must_use]
    pub fn hops(self, from: usize, to: usize) -> usize {
        let (x0, y0) = self.coords(from);
        let (x1, y1) = self.coords(to);
        x0.abs_diff(x1) + y0.abs_diff(y1)
    }
}

impl fmt::Display for MeshSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{} mesh", self.cols, self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_power_of_two_meshes() {
        for (c, r) in [(2, 2), (4, 2), (4, 4), (8, 4), (8, 8)] {
            let size = MeshSize::new(c, r).expect("valid");
            assert_eq!(size.endpoints(), c * r);
        }
    }

    #[test]
    fn rejects_bad_dimensions() {
        for (c, r) in [(1, 4), (9, 8), (3, 4), (6, 6), (8, 6)] {
            assert!(MeshSize::new(c, r).is_err(), "{c}x{r} should be rejected");
        }
    }

    #[test]
    fn index_coords_roundtrip() {
        let size = MeshSize::new(8, 4).unwrap();
        for i in 0..size.endpoints() {
            let (x, y) = size.coords(i);
            assert_eq!(size.index(x, y), i);
        }
    }

    #[test]
    fn manhattan_hops() {
        let size = MeshSize::new(4, 4).unwrap();
        assert_eq!(size.hops(0, 0), 0);
        assert_eq!(size.hops(0, 3), 3); // corner of row 0
        assert_eq!(size.hops(0, 15), 6); // opposite corner
        assert_eq!(size.hops(5, 6), 1);
    }

    #[test]
    fn display_and_errors() {
        assert_eq!(MeshSize::new(4, 2).unwrap().to_string(), "4x2 mesh");
        let err = MeshSize::new(9, 9).unwrap_err();
        assert!(err.to_string().contains("9x9"));
        let err = MeshSize::new(3, 3).unwrap_err().to_string();
        assert!(err.contains("(9) must be a power of two"), "{err}");
    }
}
