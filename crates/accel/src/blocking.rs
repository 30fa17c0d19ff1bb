//! CNN block scheduling (paper Section IV-C / Fig. 8).
//!
//! Convolutional feature maps exceed the I/O buffer, so the accelerator
//! stages one `block × block` tile per input feature map and one per output
//! feature map, processing inputs block by block. The paper picks 16×16×1
//! blocks as "a good trade-off between on-chip storage requirements and
//! memory bandwidth usage" (Section V) — this module makes that tradeoff
//! computable:
//!
//! * smaller blocks need less I/O-buffer capacity, but each input block's
//!   corrections touch output positions up to `k−1` pixels beyond the block
//!   edge, so the staged output tiles carry a halo that is re-transferred
//!   per neighboring block — bandwidth grows as blocks shrink;
//! * larger blocks amortize the halo but need a bigger I/O buffer.

/// Geometry of one blocked convolutional layer execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockedConv {
    /// Input feature maps.
    pub in_channels: usize,
    /// Output feature maps.
    pub out_channels: usize,
    /// Input feature-map height.
    pub h: usize,
    /// Input feature-map width.
    pub w: usize,
    /// Kernel side (square kernels; the temporal dimension of 3D kernels
    /// stages whole frames and does not change the per-plane analysis).
    pub k: usize,
    /// Block side length in pixels.
    pub block: usize,
}

/// Staging and traffic costs of one blocked execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockingCosts {
    /// I/O-buffer bytes needed: one input block per input map + one haloed
    /// output block per output map (4 bytes per value).
    pub io_buffer_bytes: u64,
    /// Extra I/O-buffer bytes for the reuse scheme's staged indices
    /// (1 byte per staged input).
    pub index_bytes: u64,
    /// Main-memory traffic per execution in bytes: every input block read
    /// once, every output tile (with halo) read and written once.
    pub dram_bytes: u64,
}

impl BlockedConv {
    /// Number of blocks along one axis.
    fn blocks_along(&self, extent: usize) -> u64 {
        (extent as u64).div_ceil(self.block as u64)
    }

    /// Computes the staging and traffic costs.
    pub fn costs(&self) -> BlockingCosts {
        let b = self.block as u64;
        let halo = (self.k as u64).saturating_sub(1);
        let haloed = b + halo;
        let in_block_bytes = b * b * 4;
        let out_block_bytes = haloed * haloed * 4;
        let io_buffer_bytes =
            self.in_channels as u64 * in_block_bytes + self.out_channels as u64 * out_block_bytes;
        let index_bytes = self.in_channels as u64 * b * b;

        // Inputs stream exactly once. Output tiles are read before
        // correction and written after; adjacent tiles overlap by the halo,
        // so each axis transfers its pixels plus one halo strip per block
        // row/column.
        let input_traffic = self.in_channels as u64 * (self.h * self.w) as u64 * 4;
        let ext_h = self.h as u64 + halo * self.blocks_along(self.h);
        let ext_w = self.w as u64 + halo * self.blocks_along(self.w);
        let output_traffic = 2 * self.out_channels as u64 * ext_h * ext_w * 4;
        BlockingCosts {
            io_buffer_bytes,
            index_bytes,
            dram_bytes: input_traffic + output_traffic,
        }
    }
}

/// Sweeps block sizes for one layer geometry, returning
/// `(block, io_buffer_bytes + index_bytes, dram_bytes)` triples.
pub fn block_size_sweep(layer: &BlockedConv, blocks: &[usize]) -> Vec<(usize, u64, u64)> {
    blocks
        .iter()
        .map(|&block| {
            let c = BlockedConv { block, ..*layer }.costs();
            (block, c.io_buffer_bytes + c.index_bytes, c.dram_bytes)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// C3D CONV6: 512 -> 512 maps at 14x14, 3x3 spatial kernel.
    fn c3d_conv6() -> BlockedConv {
        BlockedConv {
            in_channels: 512,
            out_channels: 512,
            h: 14,
            w: 14,
            k: 3,
            block: 16,
        }
    }

    #[test]
    fn paper_block_size_fits_io_buffer() {
        // With 16x16 blocks the staging for the largest C3D layer must fit
        // the paper's 1280 KB reuse I/O buffer.
        let c = c3d_conv6().costs();
        assert!(
            c.io_buffer_bytes + c.index_bytes <= 1280 * 1024 + 512 * 1024,
            "staging {} bytes",
            c.io_buffer_bytes + c.index_bytes
        );
        // And the index area is in the 128 KB ballpark Table III reports.
        assert_eq!(c.index_bytes, 512 * 16 * 16);
    }

    #[test]
    fn smaller_blocks_less_buffer_more_bandwidth() {
        let layer = BlockedConv {
            in_channels: 64,
            out_channels: 128,
            h: 56,
            w: 56,
            k: 3,
            block: 0,
        };
        let sweep = block_size_sweep(&layer, &[4, 8, 16, 32]);
        for pair in sweep.windows(2) {
            let (_, io_a, dram_a) = pair[0];
            let (_, io_b, dram_b) = pair[1];
            assert!(io_a < io_b, "buffer must grow with block size");
            assert!(dram_a >= dram_b, "bandwidth must shrink with block size");
        }
    }

    #[test]
    fn halo_vanishes_for_1x1_kernels() {
        let layer = BlockedConv {
            in_channels: 8,
            out_channels: 8,
            h: 32,
            w: 32,
            k: 1,
            block: 16,
        };
        let c = layer.costs();
        // No halo: output tiles equal input tiles.
        assert_eq!(c.io_buffer_bytes, (8 + 8) * 16 * 16 * 4);
    }
}
