//! In-tree SIMD kernel shim: safe wrappers over the x86 byte-shuffle
//! (`pshufb`) GF(2^8) multiply-fold and the carry-less-multiply
//! (`pclmulqdq`) CRC32 fold.
//!
//! The workspace forbids unsafe code everywhere business logic lives,
//! but the Reed–Solomon encode kernel is bottlenecked on per-byte field
//! multiplies, and the classic fix — split each byte into nibbles and
//! look both halves up in 16-entry product tables with one vector
//! shuffle each — only exists as `core::arch` intrinsics. This shim
//! confines the `unsafe` exactly like `shims/epoll` confines syscalls:
//! feature-gated `#[target_feature]` functions guarded by runtime
//! detection, with a fully safe public surface.
//!
//! [`gf8_mul_fold`] folds `c · src` into `dst` given the two nibble
//! product tables for `c` (`lo[n] = c·n`, `hi[n] = c·(n<<4)`; the caller
//! owns the field arithmetic) and returns how many leading bytes it
//! handled — `0` on targets or CPUs without the shuffle unit, in which
//! case the caller runs its portable kernel instead. The tail shorter
//! than one vector is always left to the caller.
//!
//! [`crc32_fold`] has the same contract for the IEEE CRC32: it advances
//! the raw CRC register over a prefix of the input and reports how many
//! bytes that was — `0` without the carry-less multiplier — and the
//! caller's table loop finishes the rest.

#![deny(unsafe_op_in_unsafe_fn)]

/// Folds `c · src[i]` into `dst[i]` for a prefix of `src`, using the
/// nibble product tables `lo` and `hi` (GF(2^8) multiplication is
/// GF(2)-linear, so `c·s = c·(s & 0x0f) ⊕ c·(s & 0xf0)`). Returns the
/// number of bytes processed: a multiple of the vector width, `0` when
/// no suitable SIMD unit exists. Never touches `dst` beyond
/// `min(dst.len(), src.len())`.
pub fn gf8_mul_fold(dst: &mut [u8], src: &[u8], lo: &[u8; 16], hi: &[u8; 16]) -> usize {
    let n = dst.len().min(src.len());
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the AVX2 feature was just detected at runtime.
            return unsafe { x86::mul_fold_avx2(&mut dst[..n], &src[..n], lo, hi) };
        }
        if std::arch::is_x86_feature_detected!("ssse3") {
            // SAFETY: the SSSE3 feature was just detected at runtime.
            return unsafe { x86::mul_fold_ssse3(&mut dst[..n], &src[..n], lo, hi) };
        }
    }
    let _ = (n, lo, hi);
    0
}

/// Advances the IEEE CRC32 (reflected, polynomial `0xedb88320`) register
/// `state` over a prefix of `data` by carry-less-multiply folding and
/// returns the new register with the number of bytes consumed: `0` for
/// inputs shorter than 64 bytes (the kernel starts from four 16-byte
/// lanes) and on CPUs or targets without `pclmulqdq`, otherwise a
/// multiple of 16. The register is the raw one (the caller applies the
/// initial and final `0xffffffff`), so a call can continue any checksum
/// in progress, and the caller finishes `data[consumed..]` with its own
/// kernel.
pub fn crc32_fold(state: u32, data: &[u8]) -> (u32, usize) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            // SAFETY: both features were just detected at runtime.
            return unsafe { x86::crc32_fold_pclmul(state, data) };
        }
    }
    let _ = data;
    (state, 0)
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn mul_fold_avx2(dst: &mut [u8], src: &[u8], lo: &[u8; 16], hi: &[u8; 16]) -> usize {
        let n = src.len() / 32 * 32;
        // SAFETY: unaligned 16-byte loads from 16-byte arrays.
        let (lo_t, hi_t) = unsafe {
            (
                _mm256_broadcastsi128_si256(_mm_loadu_si128(lo.as_ptr().cast())),
                _mm256_broadcastsi128_si256(_mm_loadu_si128(hi.as_ptr().cast())),
            )
        };
        let nib = _mm256_set1_epi8(0x0f);
        let mut off = 0usize;
        while off < n {
            // SAFETY: `off + 32 <= n <= src.len() <= dst.len()`; loads and
            // stores are unaligned.
            unsafe {
                let s = _mm256_loadu_si256(src.as_ptr().add(off).cast());
                let d_ptr = dst.as_mut_ptr().add(off).cast();
                let d = _mm256_loadu_si256(d_ptr as *const __m256i);
                let lo_part = _mm256_shuffle_epi8(lo_t, _mm256_and_si256(s, nib));
                let hi_part =
                    _mm256_shuffle_epi8(hi_t, _mm256_and_si256(_mm256_srli_epi16(s, 4), nib));
                let prod = _mm256_xor_si256(lo_part, hi_part);
                _mm256_storeu_si256(d_ptr, _mm256_xor_si256(d, prod));
            }
            off += 32;
        }
        n
    }

    /// # Safety
    ///
    /// The caller must have verified SSSE3 support at runtime.
    #[target_feature(enable = "ssse3")]
    pub unsafe fn mul_fold_ssse3(
        dst: &mut [u8],
        src: &[u8],
        lo: &[u8; 16],
        hi: &[u8; 16],
    ) -> usize {
        let n = src.len() / 16 * 16;
        // SAFETY: unaligned 16-byte loads from 16-byte arrays.
        let (lo_t, hi_t) = unsafe {
            (
                _mm_loadu_si128(lo.as_ptr().cast()),
                _mm_loadu_si128(hi.as_ptr().cast()),
            )
        };
        let nib = _mm_set1_epi8(0x0f);
        let mut off = 0usize;
        while off < n {
            // SAFETY: `off + 16 <= n <= src.len() <= dst.len()`; loads and
            // stores are unaligned.
            unsafe {
                let s = _mm_loadu_si128(src.as_ptr().add(off).cast());
                let d_ptr = dst.as_mut_ptr().add(off).cast();
                let d = _mm_loadu_si128(d_ptr as *const __m128i);
                let lo_part = _mm_shuffle_epi8(lo_t, _mm_and_si128(s, nib));
                let hi_part = _mm_shuffle_epi8(hi_t, _mm_and_si128(_mm_srli_epi16(s, 4), nib));
                let prod = _mm_xor_si128(lo_part, hi_part);
                _mm_storeu_si128(d_ptr, _mm_xor_si128(d, prod));
            }
            off += 16;
        }
        n
    }

    // Folding constants for the reflected IEEE polynomial, from Intel's
    // "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ":
    // x^(512±32), x^(128±32) and x^64 mod P (bit-reflected, shifted left
    // one), then P itself and the Barrett quotient floor(x^64 / P).
    const K1: i64 = 0x01_5444_2bd4;
    const K2: i64 = 0x01_c6e4_1596;
    const K3: i64 = 0x01_7519_97d0;
    const K4: i64 = 0x00_ccaa_009e;
    const K5: i64 = 0x01_63cd_6124;
    const POLY: i64 = 0x01_db71_0641;
    const MU: i64 = 0x01_f701_1641;

    #[inline]
    #[target_feature(enable = "sse2")]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes and the load is unaligned.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// Multiplies the 128-bit remainder `x` forward by the distance the
    /// pair `k` encodes and adds the next input `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Fold-by-4 over 64-byte strides, fold-by-1 over the remaining whole
    /// 16-byte blocks, then 128 → 64 → 32 bits by Barrett reduction.
    /// Returns `(state, 0)` for fewer than 64 bytes.
    ///
    /// # Safety
    ///
    /// The caller must have verified PCLMULQDQ and SSE4.1 support at
    /// runtime.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub unsafe fn crc32_fold_pclmul(state: u32, data: &[u8]) -> (u32, usize) {
        let (blocks, _) = data.as_chunks::<16>();
        let mut quads = blocks.chunks_exact(4);
        let Some(first) = quads.next() else {
            return (state, 0);
        };
        let mut x = [
            _mm_xor_si128(load(&first[0]), _mm_cvtsi32_si128(state as i32)),
            load(&first[1]),
            load(&first[2]),
            load(&first[3]),
        ];
        let k1k2 = _mm_set_epi64x(K2, K1);
        for quad in &mut quads {
            for (lane, block) in x.iter_mut().zip(quad) {
                *lane = fold(*lane, k1k2, load(block));
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = x[0];
        for lane in &x[1..] {
            acc = fold(acc, k3k4, *lane);
        }
        for block in quads.remainder() {
            acc = fold(acc, k3k4, load(block));
        }

        // 128 → 64 bits.
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);
        let t = _mm_clmulepi64_si128::<0x10>(acc, k3k4);
        acc = _mm_xor_si128(_mm_srli_si128::<8>(acc), t);
        let t = _mm_srli_si128::<4>(acc);
        acc = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5));
        acc = _mm_xor_si128(acc, t);

        // Barrett: 64 → 32 bits.
        let poly_mu = _mm_set_epi64x(MU, POLY);
        let t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), poly_mu);
        let t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, low32), poly_mu);
        acc = _mm_xor_si128(acc, t);
        (_mm_extract_epi32::<1>(acc) as u32, blocks.len() * 16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // A tiny independent GF(2^8) multiply (poly 0x11d) so the shim's
    // tests don't depend on the caller's tables.
    fn gf_mul(mut a: u8, mut b: u8) -> u8 {
        let mut p = 0u8;
        while b != 0 {
            if b & 1 != 0 {
                p ^= a;
            }
            let hi = a & 0x80;
            a <<= 1;
            if hi != 0 {
                a ^= 0x1d;
            }
            b >>= 1;
        }
        p
    }

    #[test]
    fn folds_match_scalar_for_every_coefficient_class() {
        for c in [0u8, 1, 2, 0x1d, 0x8e, 0xff] {
            let mut lo = [0u8; 16];
            let mut hi = [0u8; 16];
            for n in 0..16u8 {
                lo[n as usize] = gf_mul(c, n);
                hi[n as usize] = gf_mul(c, n << 4);
            }
            for len in [0usize, 15, 16, 17, 31, 32, 33, 257, 4096] {
                let src: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(31)).collect();
                let mut dst: Vec<u8> = (0..len).map(|i| (i as u8) ^ 0x5a).collect();
                let want: Vec<u8> = dst
                    .iter()
                    .zip(&src)
                    .map(|(&d, &s)| d ^ gf_mul(c, s))
                    .collect();
                let done = gf8_mul_fold(&mut dst, &src, &lo, &hi);
                assert!(
                    done <= len && done.is_multiple_of(16),
                    "done={done} len={len}"
                );
                assert_eq!(&dst[..done], &want[..done], "c={c:#x} len={len}");
                assert_eq!(
                    &dst[done..],
                    &{
                        let tail: Vec<u8> = (done..len).map(|i| (i as u8) ^ 0x5a).collect();
                        tail
                    }[..],
                    "tail must be untouched"
                );
            }
        }
    }

    /// The IEEE CRC32 register update straight from its definition (one
    /// conditional subtract of the polynomial per bit, tabulated per byte
    /// so a megabyte stays testable unoptimised), sharing nothing with the
    /// kernel or with the caller's tables.
    fn crc32_reference(mut state: u32, data: &[u8]) -> u32 {
        let table: [u32; 256] = std::array::from_fn(|b| {
            (0..8).fold(b as u32, |r, _| {
                (r >> 1) ^ (0xedb8_8320 & (r & 1).wrapping_neg())
            })
        });
        for &b in data {
            state = table[((state ^ b as u32) & 0xff) as usize] ^ (state >> 8);
        }
        state
    }

    #[test]
    fn crc32_fold_matches_reference_at_every_length_offset_and_state() {
        assert_eq!(!crc32_reference(!0, b"123456789"), 0xcbf4_3926);
        let (_, probe) = crc32_fold(0, &[0u8; 64]);
        println!(
            "crc32 path on this CPU: {}",
            if probe == 0 {
                "portable (crc32_fold consumed 0)"
            } else {
                "pclmulqdq fold"
            }
        );
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let buf: Vec<u8> = (0..(1 << 20) + 5 + 64)
            .map(|_| {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (seed >> 56) as u8
            })
            .collect();
        for len in [0usize, 63, 64, 65, 79, 80, 127, 128, 4096, (1 << 20) + 5] {
            for off in 0..64 {
                let data = &buf[off..off + len];
                for state in [0xffff_ffffu32, 0x1234_5678 ^ (off as u32) << 7] {
                    let (folded, consumed) = crc32_fold(state, data);
                    assert!(consumed <= len, "consumed={consumed} len={len}");
                    if len < 64 || probe == 0 {
                        assert_eq!((folded, consumed), (state, 0), "len={len}");
                    } else {
                        assert!(consumed >= 64 && consumed.is_multiple_of(16));
                    }
                    assert_eq!(
                        crc32_reference(folded, &data[consumed..]),
                        crc32_reference(state, data),
                        "len={len} off={off} state={state:#x}"
                    );
                }
            }
        }
    }
}
