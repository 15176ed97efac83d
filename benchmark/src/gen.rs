//! Seeded input generation: key choice and block contents.
//!
//! Every block's bytes are a function of `(client, key, version)`, so any
//! read anywhere in a run can be checked byte-exact without keeping the
//! data: the benchmark keeps only a version number per key.

/// Size of every block the workloads write and read.
pub const BLOCK: usize = 4096;

/// xorshift64* — deterministic, seedable, dependency-free.
pub struct Rng64(u64);

impl Rng64 {
    /// A generator seeded from `seed` (mixed so that neighbouring seeds
    /// give unrelated streams; the state must be non-zero).
    pub fn new(seed: u64) -> Rng64 {
        Rng64(mix(seed).max(1))
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// splitmix64 finalizer.
fn mix(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// YCSB's scrambled zipfian over `0..items`: rank 0 is the hottest, and
/// ranks are hashed over the key space so hot keys are not neighbours.
pub struct Zipfian {
    items: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    /// The skew `oltp` uses (YCSB's default).
    pub const THETA: f64 = 0.99;

    pub fn new(items: u64, theta: f64) -> Zipfian {
        let items = items.max(1);
        let zeta = |n: u64| (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(items);
        let zeta2 = zeta(2.min(items));
        Zipfian {
            items,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / items as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    /// Next rank in `0..items` (0 is the hottest).
    pub fn next_rank(&self, rng: &mut Rng64) -> u64 {
        if self.items == 1 {
            return 0;
        }
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.items as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.items - 1)
    }

    /// Next key: the rank scrambled over `0..items`.
    pub fn next_key(&self, rng: &mut Rng64) -> u64 {
        mix(self.next_rank(rng)) % self.items
    }
}

/// Fills `buf` with the contents of version `version` of `key` as written
/// by `client`.
pub fn fill_value(buf: &mut [u8; BLOCK], client: u32, key: u64, version: u32) {
    let mut x = mix(key ^ ((client as u64) << 40) ^ ((version as u64) << 20 | 1));
    for chunk in buf.chunks_exact_mut(8) {
        // One multiply-xorshift per word: far cheaper than the append it
        // feeds, and every word differs so a shifted or torn block shows.
        x = x.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ (x >> 29);
        chunk.copy_from_slice(&x.to_le_bytes());
    }
}

/// Does `got` hold exactly version `version` of `key`? `scratch` is
/// reused for the expected bytes.
pub fn check_value(
    got: &[u8],
    scratch: &mut [u8; BLOCK],
    client: u32,
    key: u64,
    version: u32,
) -> bool {
    fill_value(scratch, client, key, version);
    got == scratch.as_slice()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_seed() {
        let mut a = Rng64::new(7);
        let mut b = Rng64::new(7);
        let mut c = Rng64::new(8);
        let mut same_as_c = 0;
        for _ in 0..100 {
            let x = a.next_u64();
            assert_eq!(x, b.next_u64());
            same_as_c += u32::from(x == c.next_u64());
            assert!(a.next_f64() < 1.0);
            let _ = b.next_f64();
            let _ = c.next_f64();
        }
        assert_eq!(same_as_c, 0);
        assert_ne!(Rng64::new(0).next_u64(), 0);
    }

    #[test]
    fn zipfian_is_skewed_scrambled_and_in_bounds() {
        let n = 1000u64;
        let zipf = Zipfian::new(n, Zipfian::THETA);
        let mut rng = Rng64::new(1);
        let mut ranks = vec![0u64; n as usize];
        let mut keys = vec![0u64; n as usize];
        for _ in 0..50_000 {
            let r = zipf.next_rank(&mut rng);
            assert!(r < n);
            ranks[r as usize] += 1;
            let k = zipf.next_key(&mut rng);
            assert!(k < n);
            keys[k as usize] += 1;
        }
        // Rank 0 is far hotter than the middle of the distribution.
        assert!(ranks[0] > ranks[n as usize / 2].max(1) * 20);
        // The hottest key carries the hottest rank's share, but is not key 0.
        let hottest = (0..n as usize).max_by_key(|&k| keys[k]).unwrap();
        assert_eq!(hottest as u64, super::mix(0) % n);
        assert!(keys[hottest] > 50_000 / 20);
        assert_eq!(Zipfian::new(1, 0.99).next_key(&mut rng), 0);
    }

    #[test]
    fn values_differ_by_client_key_and_version() {
        let mut a = [0u8; BLOCK];
        let mut b = [0u8; BLOCK];
        fill_value(&mut a, 1, 5, 0);
        for (c, k, v) in [(2, 5, 0), (1, 6, 0), (1, 5, 1)] {
            fill_value(&mut b, c, k, v);
            assert_ne!(a, b);
        }
        assert!(check_value(&a.clone(), &mut b, 1, 5, 0));
        let mut torn = a;
        torn[BLOCK - 1] ^= 1;
        assert!(!check_value(&torn, &mut b, 1, 5, 0));
        assert!(!check_value(&a[..BLOCK - 8], &mut b, 1, 5, 0));
    }
}
