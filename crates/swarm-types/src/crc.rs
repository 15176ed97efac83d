//! CRC32 (IEEE 802.3 polynomial), used to checksum fragment headers,
//! entry tables, and network frames.
//!
//! Implemented in-repo because Swarm defines its own on-disk format and
//! the workspace keeps its dependency set minimal. Every wire byte is
//! checksummed three times (fragment seal, frame header, frame receive),
//! so the kernel is picked by the CPU, not by the caller: inputs of 64
//! bytes or more go through the carry-less-multiply fold in `shims/simd`
//! where the CPU has one, and whatever that leaves — the sub-16-byte
//! tail, short inputs, every byte on other CPUs — goes through the
//! portable slice-by-8 loop (eight precomputed tables fold one 64-bit
//! word per step). Both compute the same polynomial, so which one ran is
//! invisible on the wire and on disk. The tables are built by `const fn`,
//! so there is no build script and no lazy initialization.

/// The IEEE CRC32 polynomial in reversed bit order.
const POLY: u32 = 0xedb8_8320;

/// The classic one-byte-at-a-time table (table 0 of the slice-by-8 set).
const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Slice-by-8 table set: `TABLES[k][b]` is the CRC contribution of byte
/// `b` seen `k` positions before the end of an 8-byte word, i.e.
/// `TABLES[k][b] = crc_shift(TABLES[k-1][b])`.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    tables[0] = build_table();
    let mut i = 0;
    while i < 256 {
        let mut crc = tables[0][i];
        let mut k = 1;
        while k < 8 {
            crc = tables[0][(crc & 0xff) as usize] ^ (crc >> 8);
            tables[k][i] = crc;
            k += 1;
        }
        i += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Computes the CRC32 (IEEE) of `data`.
///
/// # Example
///
/// ```
/// // Standard test vector: CRC32("123456789") == 0xcbf43926.
/// assert_eq!(swarm_types::crc32(b"123456789"), 0xcbf43926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    update(0xffff_ffff, data) ^ 0xffff_ffff
}

/// Incremental CRC32: feed chunks through [`Crc32`] when data is not
/// contiguous (e.g. a fragment header plus its payload).
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Starts a new incremental checksum.
    pub fn new() -> Self {
        Crc32 { state: 0xffff_ffff }
    }

    /// Feeds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        self.state = update(self.state, data);
    }

    /// Finishes and returns the checksum value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xffff_ffff
    }
}

/// Below this length the fold kernel declines (it starts from four
/// 16-byte lanes), so the call is skipped.
const FOLD_MIN: usize = 64;

fn update(mut state: u32, data: &[u8]) -> u32 {
    let mut done = 0;
    if data.len() >= FOLD_MIN {
        (state, done) = simd::crc32_fold(state, data);
    }
    update_portable(state, &data[done..])
}

/// Slice-by-8: the kernel for short inputs, fold tails, and CPUs without a
/// carry-less multiplier.
fn update_portable(mut state: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        // Fold the running state into the low word, then look all eight
        // bytes up in parallel-independent tables. One iteration advances
        // the CRC by 64 bits.
        let lo = u32::from_le_bytes(chunk[0..4].try_into().unwrap()) ^ state;
        let hi = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
        state = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xff) as usize]
            ^ TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        state = TABLES[0][((state ^ b as u32) & 0xff) as usize] ^ (state >> 8);
    }
    state
}

/// [`crc32`] through the portable slice-by-8 loop alone, whatever the CPU
/// offers: the `crc32/portable` row of `swarm-bench`'s kernel benchmark.
/// Not an entry point; [`crc32`] picks the kernel itself.
#[doc(hidden)]
pub fn crc32_portable(data: &[u8]) -> u32 {
    update_portable(0xffff_ffff, data) ^ 0xffff_ffff
}

/// Reference byte-at-a-time CRC32, kept for benchmarks and as a
/// cross-check oracle for the faster kernels.
///
/// Not used on any hot path; `swarm-bench` measures [`crc32`] against it
/// and the kernel sanity tests assert they agree.
#[doc(hidden)]
pub fn crc32_baseline(data: &[u8]) -> u32 {
    let mut state = 0xffff_ffffu32;
    for &b in data {
        state = TABLES[0][((state ^ b as u32) & 0xff) as usize] ^ (state >> 8);
    }
    state ^ 0xffff_ffff
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"swarm striped log fragments";
        let mut inc = Crc32::new();
        inc.update(&data[..7]);
        inc.update(&data[7..]);
        assert_eq!(inc.finish(), crc32(data));
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0u8; 1024];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let orig = crc32(&data);
        data[512] ^= 0x10;
        assert_ne!(crc32(&data), orig);
    }

    #[test]
    fn empty_incremental_is_zero() {
        assert_eq!(Crc32::new().finish(), 0);
    }

    /// Quick-mode kernel sanity: slice-by-8 agrees with the byte-at-a-time
    /// oracle at every alignment and length around the 8-byte boundaries.
    #[test]
    fn slice_by_8_matches_baseline_at_all_alignments() {
        let data: Vec<u8> = (0..257u32).map(|i| (i * 31 % 251) as u8).collect();
        for start in 0..9 {
            for end in start..data.len() {
                let s = &data[start..end];
                assert_eq!(crc32(s), crc32_baseline(s), "range {start}..{end}");
            }
        }
    }

    proptest! {
        /// The dispatching kernel, the portable loop called directly (so
        /// both run whatever this machine's CPU offers) and the bytewise
        /// oracle agree on any slice, fed whole or in pieces.
        #[test]
        fn prop_every_kernel_matches_baseline(
            buf in proptest::collection::vec(any::<u8>(), 0..70 * 1024 + 1),
            start in any::<proptest::sample::Index>(),
            cuts in proptest::collection::vec(any::<proptest::sample::Index>(), 0..6),
        ) {
            // Any alignment class of the 16-byte lanes, without shortening
            // the buffer much.
            let data = &buf[start.index(64).min(buf.len())..];
            let want = crc32_baseline(data);
            prop_assert_eq!(crc32(data), want);
            prop_assert_eq!(update_portable(0xffff_ffff, data) ^ 0xffff_ffff, want);

            let mut cuts: Vec<usize> = cuts.iter().map(|c| c.index(data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut inc = Crc32::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                inc.update(&data[from..cut]);
                from = cut;
            }
            prop_assert_eq!(inc.finish(), want);
        }
    }
}
