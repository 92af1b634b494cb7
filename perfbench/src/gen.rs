//! Seeded input generation, independent of the program's own generators
//! so that a change to `streamcore::workload` cannot change what the
//! benchmark feeds.
//!
//! Input `i` (0-based, over the whole run) goes to stream R when `i` is
//! even and to S when it is odd, so its per-stream sequence number is
//! `i / 2`. Payloads carry that sequence number, which lets every result
//! row be mapped back to the two inputs that produced it.

use streamcore::{StreamTag, Tuple};

/// SplitMix64 finalizer: a bijective 64-bit mixer.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// SplitMix64 generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (`n > 0`), by 128-bit multiply-shift.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// How join keys are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Keys {
    /// Uniform over `0..domain`.
    Uniform { domain: u32 },
    /// Zipf over `0..domain` with exponent `s` (key 0 most frequent).
    Zipf { domain: u32, s: f64 },
}

impl Keys {
    /// Draws `n` keys.
    pub fn draw(self, n: usize, rng: &mut Rng) -> Vec<u32> {
        match self {
            Keys::Uniform { domain } => (0..n)
                .map(|_| rng.below(u64::from(domain)) as u32)
                .collect(),
            Keys::Zipf { domain, s } => {
                let zipf = Zipf::new(u64::from(domain), s);
                (0..n).map(|_| (zipf.sample(rng) - 1) as u32).collect()
            }
        }
    }
}

/// Zipf sampler by rejection-inversion (Hörmann and Derflinger, 1996):
/// O(1) memory, so a 2^22-key domain costs no table.
struct Zipf {
    n: f64,
    s: f64,
    h_x1: f64,
    h_n: f64,
    cut: f64,
}

impl Zipf {
    fn new(n: u64, s: f64) -> Self {
        assert!(n >= 1 && s > 0.0, "zipf needs a non-empty domain and s > 0");
        let mut z = Self {
            n: n as f64,
            s,
            h_x1: 0.0,
            h_n: 0.0,
            cut: 0.0,
        };
        z.h_x1 = z.h_integral(1.5) - 1.0;
        z.h_n = z.h_integral(z.n + 0.5);
        z.cut = 2.0 - z.h_integral_inv(z.h_integral(2.5) - z.h(2.0));
        z
    }

    /// A rank in `1..=n`.
    fn sample(&self, rng: &mut Rng) -> u64 {
        loop {
            let u = self.h_n + rng.next_f64() * (self.h_x1 - self.h_n);
            let x = self.h_integral_inv(u);
            let k = (x + 0.5).floor().clamp(1.0, self.n);
            if k - x <= self.cut || u >= self.h_integral(k + 0.5) - self.h(k) {
                return k as u64;
            }
        }
    }

    fn h(&self, x: f64) -> f64 {
        (-self.s * x.ln()).exp()
    }

    fn h_integral(&self, x: f64) -> f64 {
        let log_x = x.ln();
        helper2((1.0 - self.s) * log_x) * log_x
    }

    fn h_integral_inv(&self, x: f64) -> f64 {
        let t = (x * (1.0 - self.s)).max(-1.0);
        (helper1(t) * x).exp()
    }
}

/// `ln(1 + x) / x`, accurate near 0.
fn helper1(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.ln_1p() / x
    } else {
        1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x))
    }
}

/// `(e^x - 1) / x`, accurate near 0.
fn helper2(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.exp_m1() / x
    } else {
        1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + 0.25 * x))
    }
}

/// Bits of a tagged payload that hold the sequence number; the byte
/// above them holds a seeded value that the standing queries filter on.
pub const SEQ_BITS: u32 = 24;
const SEQ_MASK: u32 = (1 << SEQ_BITS) - 1;

/// The input stream of one run: a seeded pool of keys, cycled, with
/// payloads derived from each input's index.
///
/// The pool is longer than two windows, so by the time a key repeats
/// through the cycle, its earlier occurrence has left the window and the
/// match statistics are those of fresh draws.
pub struct Inputs {
    keys: Vec<u32>,
    seed: u64,
    /// Payload = `value << 24 | seq` instead of plain `seq`.
    tagged: bool,
}

impl Inputs {
    pub fn new(keys: Keys, pool: usize, seed: u64, tagged: bool) -> Self {
        let mut rng = Rng::new(seed);
        Self {
            keys: keys.draw(pool, &mut rng),
            seed,
            tagged,
        }
    }

    pub fn tag(i: u64) -> StreamTag {
        if i.is_multiple_of(2) {
            StreamTag::R
        } else {
            StreamTag::S
        }
    }

    /// The seeded byte a tagged payload carries above the sequence number.
    pub fn value(&self, i: u64) -> u32 {
        (mix64(self.seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) >> 56) as u32
    }

    /// Input `i`. Panics if its sequence number no longer fits the
    /// payload, which would make results ambiguous.
    pub fn tuple(&self, i: u64) -> Tuple {
        let seq = i / 2;
        let key = self.keys[(i % self.keys.len() as u64) as usize];
        let payload = if self.tagged {
            assert!(
                seq <= u64::from(SEQ_MASK),
                "run too long for tagged payloads"
            );
            self.value(i) << SEQ_BITS | seq as u32
        } else {
            u32::try_from(seq).expect("run too long for sequence payloads")
        };
        Tuple::new(key, payload)
    }

    /// Replaces `out` with inputs `range`.
    pub fn fill(&self, range: std::ops::Range<u64>, out: &mut Vec<(StreamTag, Tuple)>) {
        out.clear();
        out.extend(range.map(|i| (Self::tag(i), self.tuple(i))));
    }

    /// The input index a result payload on stream `tag` came from.
    pub fn index_of(&self, tag: StreamTag, payload: u64) -> u64 {
        let seq = if self.tagged {
            payload & u64::from(SEQ_MASK)
        } else {
            payload
        };
        2 * seq + u64::from(tag == StreamTag::S)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let a = Inputs::new(Keys::Zipf { domain: 64, s: 1.0 }, 1000, 7, true);
        let b = Inputs::new(Keys::Zipf { domain: 64, s: 1.0 }, 1000, 7, true);
        let c = Inputs::new(Keys::Zipf { domain: 64, s: 1.0 }, 1000, 8, true);
        let seq = |x: &Inputs| (0..3000).map(|i| x.tuple(i)).collect::<Vec<_>>();
        assert_eq!(seq(&a), seq(&b));
        assert_ne!(seq(&a), seq(&c));
    }

    #[test]
    fn payloads_map_back_to_their_index() {
        for tagged in [false, true] {
            let inputs = Inputs::new(Keys::Uniform { domain: 16 }, 64, 3, tagged);
            for i in 0..500 {
                let t = inputs.tuple(i);
                assert_eq!(inputs.index_of(Inputs::tag(i), u64::from(t.payload())), i);
            }
        }
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let mut rng = Rng::new(1);
        let keys = Keys::Zipf { domain: 64, s: 1.0 }.draw(200_000, &mut rng);
        let mut counts = [0u32; 64];
        for k in keys {
            counts[k as usize] += 1;
        }
        // P(rank 1) / P(rank 2) = 2 for s = 1.
        let ratio = f64::from(counts[0]) / f64::from(counts[1]);
        assert!((1.85..2.15).contains(&ratio), "ratio {ratio}");
        // P(rank 1) = 1 / H_64 ≈ 0.2108.
        let p0 = f64::from(counts[0]) / 200_000.0;
        assert!((0.20..0.22).contains(&p0), "p0 {p0}");
    }
}
