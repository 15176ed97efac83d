//! Parity computation (§2.1.2).
//!
//! "A stripe's parity is computed as its fragments are written": the
//! [`ParityAccumulator`] folds each sealed data fragment into `m` running
//! parity buffers, so by the time the last data fragment of a stripe ships,
//! every parity fragment is ready too. Parity row 0 is the paper's XOR
//! (the all-ones row of the normalized Cauchy matrix — see [`crate::gf`]);
//! rows 1.. are GF(2^8) Reed–Solomon combinations, and together the `m`
//! rows survive any `m` concurrent member losses. Fragments in a stripe
//! may have different lengths (the final stripe before a flush can be
//! short); shorter fragments are treated as zero-padded, and the true
//! lengths are recorded in every parity fragment's header so
//! reconstruction can trim its output.

use swarm_types::{crc32, ByteWriter, Encode, FragmentId};

use crate::fragment::{FragmentHeader, SealedFragment, FLAG_PARITY};
use crate::gf;

/// XORs `src` into `dst`, growing `dst` with zero padding if needed.
///
/// The hot loop works a u64 word at a time (`chunks_exact` pairs), which
/// the compiler further widens to SIMD; the sub-word tail is folded
/// byte-wise. Results are identical to the byte loop for every length and
/// alignment (the words are assembled with native-endian loads/stores, and
/// XOR is bytewise-independent).
pub fn xor_into(dst: &mut Vec<u8>, src: &[u8]) {
    if src.len() > dst.len() {
        dst.resize(src.len(), 0);
    }
    let n = src.len();
    let mut d_words = dst[..n].chunks_exact_mut(8);
    let mut s_words = src.chunks_exact(8);
    for (d, s) in (&mut d_words).zip(&mut s_words) {
        let word = u64::from_ne_bytes(d[..8].try_into().expect("chunk is 8 bytes"))
            ^ u64::from_ne_bytes(s[..8].try_into().expect("chunk is 8 bytes"));
        d.copy_from_slice(&word.to_ne_bytes());
    }
    for (d, s) in d_words.into_remainder().iter_mut().zip(s_words.remainder()) {
        *d ^= s;
    }
}

/// Reference byte-at-a-time XOR, kept for differential tests and as the
/// benchmark baseline. The per-byte `black_box` pins the loop to scalar
/// code so the comparison measures the word-wide kernel, not the
/// auto-vectorizer.
#[doc(hidden)]
pub fn xor_into_baseline(dst: &mut Vec<u8>, src: &[u8]) {
    if src.len() > dst.len() {
        dst.resize(src.len(), 0);
    }
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d = std::hint::black_box(*d ^ *s);
    }
}

/// Accumulates `m` parity rows over the data fragments of one stripe as
/// they seal.
///
/// Row 0 is always plain XOR ([`xor_into`] — the all-ones coding row), so
/// single-parity stripes pay no table lookups and produce bytes identical
/// to the paper's XOR parity. Rows 1.. fold each member through the
/// word-wide GF(2^8) kernel with its [`gf::coding_row`] coefficient.
#[derive(Debug)]
pub struct ParityAccumulator {
    rows: Vec<Vec<u8>>,
    /// Coding rows 1..m (row 0 is implicit all-ones); empty when `m == 1`.
    coding: Vec<Vec<u8>>,
    members: Vec<(FragmentId, u32)>,
}

impl ParityAccumulator {
    /// Starts an accumulator for a `data + parity` stripe, one per
    /// in-flight stripe. `parity == 1` is the paper's single XOR parity.
    pub fn with_geometry(data: usize, parity: usize) -> Self {
        debug_assert!(data >= 1 && parity >= 1);
        ParityAccumulator {
            rows: vec![Vec::new(); parity],
            coding: (1..parity).map(|j| gf::coding_row(data, j)).collect(),
            members: Vec::new(),
        }
    }

    /// Number of parity rows this accumulator seals (`m`).
    pub fn parity_count(&self) -> usize {
        self.rows.len()
    }

    /// Folds a sealed data fragment into every parity row.
    pub fn add(&mut self, fragment: &SealedFragment) {
        let i = self.members.len();
        xor_into(&mut self.rows[0], &fragment.bytes);
        for (row, coeffs) in self.rows[1..].iter_mut().zip(&self.coding) {
            gf::mul_into(row, &fragment.bytes, coeffs[i]);
        }
        self.members.push((fragment.fid(), fragment.len()));
    }

    /// Number of data fragments folded in so far.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// `true` if nothing has been folded in.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The member fragment lengths accumulated so far.
    pub fn member_lens(&self) -> Vec<u32> {
        self.members.iter().map(|(_, len)| *len).collect()
    }

    /// Finalizes into `m` parity fragments, one per row, consuming the
    /// accumulator. `headers` must describe the parity members in row
    /// order (member indices `k`, `k+1`, …); each gets the parity flag,
    /// body fields, and the shared member length table filled in.
    pub fn build_parities(
        self,
        headers: impl IntoIterator<Item = FragmentHeader>,
    ) -> Vec<SealedFragment> {
        let lens = self.member_lens();
        let mut out = Vec::with_capacity(self.rows.len());
        let mut headers = headers.into_iter();
        for body in self.rows {
            let mut header = headers.next().expect("a header per parity row");
            header.flags |= FLAG_PARITY;
            header.member_lens = lens.clone();
            header.body_len = body.len() as u32;
            header.body_crc = crc32(&body);
            let mut w = ByteWriter::with_capacity(header.encoded_len() + body.len());
            header.encode(&mut w);
            w.put_raw(&body);
            out.push(SealedFragment {
                header,
                bytes: w.into_bytes().into(),
                marked: false,
            });
        }
        assert!(headers.next().is_none(), "a header per parity row");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use swarm_types::{ClientId, ServerId, ServiceId, StripeSeq};

    use crate::fragment::FragmentBuilder;

    fn header(seq: u64, idx: u8, count: u8) -> FragmentHeader {
        FragmentHeader {
            flags: 0,
            fid: FragmentId::new(ClientId::new(1), seq),
            stripe: StripeSeq::new(0),
            stripe_first_seq: 0,
            member_count: count,
            my_index: idx,
            parity_index: count - 1,
            body_len: 0,
            body_crc: 0,
            group: (0..count as u32).map(ServerId::new).collect(),
            member_lens: vec![],
        }
    }

    fn data_fragment(seq: u64, idx: u8, count: u8, payload: &[u8]) -> SealedFragment {
        let mut b = FragmentBuilder::new(header(seq, idx, count), 1 << 16);
        b.append_block(ServiceId::new(1), b"", payload);
        b.seal()
    }

    #[test]
    fn xor_into_extends_and_xors() {
        let mut dst = vec![0b1010];
        xor_into(&mut dst, &[0b0110, 0b1111]);
        assert_eq!(dst, vec![0b1100, 0b1111]);
    }

    #[test]
    fn word_kernel_matches_baseline_at_all_lengths() {
        // Cover every word/tail split up to a few words, plus a large
        // buffer, for both src-longer and dst-longer shapes.
        let pattern: Vec<u8> = (0..4096u32).map(|i| (i * 31 % 251) as u8).collect();
        for &(dst_len, src_len) in &[
            (0usize, 0usize),
            (0, 7),
            (3, 29),
            (29, 3),
            (8, 8),
            (64, 63),
            (63, 64),
            (4096, 4000),
            (4000, 4096),
        ] {
            let mut fast = pattern[..dst_len].to_vec();
            let mut slow = fast.clone();
            xor_into(&mut fast, &pattern[..src_len]);
            xor_into_baseline(&mut slow, &pattern[..src_len]);
            assert_eq!(fast, slow, "dst {dst_len} src {src_len}");
        }
    }

    #[test]
    fn xor_is_self_inverse() {
        let a = vec![1u8, 2, 3, 4];
        let mut acc = Vec::new();
        xor_into(&mut acc, &a);
        xor_into(&mut acc, &a);
        assert!(acc.iter().all(|&b| b == 0));
    }

    /// Seals a single-parity accumulator (the paper's configuration).
    fn build_one(acc: ParityAccumulator, header: FragmentHeader) -> SealedFragment {
        acc.build_parities([header]).pop().expect("one row")
    }

    /// Decodes the erased members of a stripe from ≥k survivors using the
    /// gf kernel — the same math `reconstruct.rs` runs against fetched
    /// bytes.
    fn rs_decode(k: usize, survivors: &[(usize, &[u8])], wanted: &[usize]) -> Vec<Vec<u8>> {
        let indices: Vec<usize> = survivors.iter().map(|(i, _)| *i).collect();
        let rows = crate::gf::decode_rows(k, &indices, wanted).expect("MDS");
        rows.into_iter()
            .map(|row| {
                let mut out = Vec::new();
                for ((_, bytes), &c) in survivors.iter().zip(&row) {
                    crate::gf::mul_into(&mut out, bytes, c);
                }
                out
            })
            .collect()
    }

    /// Rebuilds data member `lost` of a k+1 stripe from the parity body
    /// and the other data members, trimmed to its recorded length.
    fn rebuild_from_single_parity(
        frags: &[SealedFragment],
        parity: &SealedFragment,
        lost: usize,
    ) -> Vec<u8> {
        let k = frags.len();
        let body = &parity.bytes[parity.header.encoded_len()..];
        let mut survivors: Vec<(usize, &[u8])> = frags
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != lost)
            .map(|(i, f)| (i, &f.bytes[..]))
            .collect();
        survivors.push((k, body));
        let mut rebuilt = rs_decode(k, &survivors, &[lost]).pop().unwrap();
        rebuilt.truncate(parity.header.member_lens[lost] as usize);
        rebuilt
    }

    #[test]
    fn any_single_member_is_reconstructible() {
        // Three data fragments of different lengths + parity.
        let frags = vec![
            data_fragment(0, 0, 4, &[1u8; 100]),
            data_fragment(1, 1, 4, &[2u8; 500]),
            data_fragment(2, 2, 4, &[3u8; 50]),
        ];
        let mut acc = ParityAccumulator::with_geometry(3, 1);
        for f in &frags {
            acc.add(f);
        }
        let lens = acc.member_lens();
        let parity = build_one(acc, header(3, 3, 4));
        let parity_view = crate::fragment::FragmentView::parse(&parity.bytes).unwrap();
        assert!(parity_view.header.is_parity());
        assert_eq!(parity_view.header.member_lens, lens);

        for lost in 0..3 {
            let rebuilt = rebuild_from_single_parity(&frags, &parity, lost);
            assert_eq!(rebuilt, frags[lost].bytes, "member {lost}");
            // Rebuilt bytes parse as a valid fragment.
            crate::fragment::FragmentView::parse(&rebuilt).unwrap();
        }
    }

    #[test]
    fn parity_of_single_fragment_is_a_mirror() {
        // The 1-client/2-server minimum configuration (§3.4): stripe =
        // one data fragment + parity ⇒ parity body == data bytes.
        let f = data_fragment(0, 0, 2, b"mirrored payload");
        let mut acc = ParityAccumulator::with_geometry(1, 1);
        acc.add(&f);
        let parity = build_one(acc, header(1, 1, 2));
        let body_start = parity.header.encoded_len();
        assert_eq!(&parity.bytes[body_start..], &f.bytes[..]);
    }

    #[test]
    fn single_parity_is_the_papers_xor_format_bit_for_bit() {
        // m = 1 must produce exactly the paper's parity fragment whatever
        // k is: the body is the byte-wise XOR of the zero-padded members
        // (computed here with the scalar reference loop, independent of
        // the gf kernels), behind a header carrying the parity flag, the
        // member length table, and the body's length and CRC.
        for k in [1u8, 3, 7] {
            let frags: Vec<SealedFragment> = (0..k)
                .map(|i| {
                    data_fragment(
                        i as u64,
                        i,
                        k + 1,
                        &vec![i.wrapping_mul(37); 64 + i as usize * 111],
                    )
                })
                .collect();
            let mut acc = ParityAccumulator::with_geometry(k as usize, 1);
            let mut body = Vec::new();
            for f in &frags {
                acc.add(f);
                xor_into_baseline(&mut body, &f.bytes);
            }
            let got = build_one(acc, header(k as u64, k, k + 1));

            let mut want = header(k as u64, k, k + 1);
            want.flags |= FLAG_PARITY;
            want.member_lens = frags.iter().map(|f| f.len()).collect();
            want.body_len = body.len() as u32;
            want.body_crc = crc32(&body);
            let mut w = ByteWriter::new();
            want.encode(&mut w);
            w.put_raw(&body);
            assert_eq!(&got.bytes[..], w.as_slice(), "k={k}");
        }
    }

    fn rs_headers(k: u8, m: u8) -> Vec<FragmentHeader> {
        (0..m)
            .map(|j| {
                let mut h = header((k + j) as u64, k + j, k + m);
                h.parity_index = k;
                h
            })
            .collect()
    }

    #[test]
    fn multi_parity_row_zero_is_xor() {
        // The first of m parities is still plain XOR, bit-identical to a
        // single-parity stripe's fragment over the same members.
        let frags = vec![
            data_fragment(0, 0, 6, &[5u8; 320]),
            data_fragment(1, 1, 6, &[9u8; 17]),
            data_fragment(2, 2, 6, &[13u8; 199]),
            data_fragment(3, 3, 6, &[17u8; 64]),
        ];
        let mut xor = ParityAccumulator::with_geometry(4, 1);
        let mut rs = ParityAccumulator::with_geometry(4, 2);
        for f in &frags {
            xor.add(f);
            rs.add(f);
        }
        let xor_parity = build_one(xor, {
            let mut h = header(4, 4, 6);
            h.parity_index = 4;
            h
        });
        let parities = rs.build_parities(rs_headers(4, 2));
        assert_eq!(parities.len(), 2);
        assert_eq!(parities[0].bytes, xor_parity.bytes);
        assert_ne!(
            &parities[1].bytes[parities[1].header.encoded_len()..],
            &parities[0].bytes[parities[0].header.encoded_len()..],
        );
    }

    proptest! {
        #[test]
        fn prop_rs_roundtrips_every_erasure_pattern(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 1..400), 2..5),
            m in 2usize..4,
        ) {
            let k = payloads.len();
            let width = (k + m) as u8;
            let frags: Vec<SealedFragment> = payloads
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let mut h = header(i as u64, i as u8, width);
                    h.parity_index = k as u8;
                    let mut b = FragmentBuilder::new(h, 1 << 16);
                    b.append_block(ServiceId::new(1), b"", p);
                    b.seal()
                })
                .collect();
            let mut acc = ParityAccumulator::with_geometry(k, m);
            for f in &frags {
                acc.add(f);
            }
            let lens = acc.member_lens();
            let parities = acc.build_parities(rs_headers(k as u8, m as u8));
            // Member symbol i: data members contribute their full bytes
            // (zero-padded by the kernels); parities contribute bodies.
            let symbol = |i: usize| -> Vec<u8> {
                if i < k {
                    frags[i].bytes.to_vec()
                } else {
                    let p = &parities[i - k];
                    p.bytes[p.header.encoded_len()..].to_vec()
                }
            };
            // Every erasure pattern of size exactly m (subsumes < m).
            let width = k + m;
            for pattern in 0u32..(1 << width) {
                if pattern.count_ones() as usize != m {
                    continue;
                }
                let erased: Vec<usize> =
                    (0..width).filter(|i| pattern & (1 << i) != 0).collect();
                let surv_syms: Vec<Vec<u8>> = (0..width)
                    .filter(|i| !erased.contains(i))
                    .map(symbol)
                    .collect();
                let survivors: Vec<(usize, &[u8])> = (0..width)
                    .filter(|i| !erased.contains(i))
                    .zip(surv_syms.iter().map(|s| s.as_slice()))
                    .take(k)
                    .collect();
                let wanted: Vec<usize> =
                    erased.iter().copied().filter(|&i| i < k).collect();
                let rebuilt = rs_decode(k, &survivors, &wanted);
                for (w, got) in wanted.iter().zip(&rebuilt) {
                    let mut expect = frags[*w].bytes.to_vec();
                    // Decoded symbols are stripe-width, zero-padded.
                    let mut got = got.clone();
                    got.truncate(lens[*w] as usize);
                    expect.truncate(lens[*w] as usize);
                    prop_assert_eq!(&got, &expect, "pattern {:b} member {}", pattern, w);
                }
            }
        }

        #[test]
        fn prop_reconstruction_recovers_any_member(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 1..800), 1..6),
            lost_idx in 0usize..6,
        ) {
            let count = payloads.len() as u8 + 1;
            let frags: Vec<SealedFragment> = payloads
                .iter()
                .enumerate()
                .map(|(i, p)| data_fragment(i as u64, i as u8, count, p))
                .collect();
            let lost = lost_idx % frags.len();
            let mut acc = ParityAccumulator::with_geometry(frags.len(), 1);
            for f in &frags {
                acc.add(f);
            }
            let parity = build_one(acc, header(payloads.len() as u64, count - 1, count));
            let rebuilt = rebuild_from_single_parity(&frags, &parity, lost);
            prop_assert_eq!(&rebuilt, &frags[lost].bytes);
        }
    }
}
