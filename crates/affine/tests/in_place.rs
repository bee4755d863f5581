//! The `*_into` forms write into an existing form and reuse its storage.
//! Whatever that form held before — more symbols than the result, the
//! entire form, a NaN center, the previous result, another placement —
//! the result must be bit-identical to the by-value operation's, and the
//! context must allocate the same symbols and count the same events.

use safegen_affine::{AaConfig, AaContext, Affine, CenterValue, Dd, Placement, Protect};

/// A form's bits: center (`Debug` renders every part exactly), dedicated
/// noise, and `(id, coefficient)` terms.
fn bits<C: CenterValue>(v: &Affine<C>) -> (String, u64, Vec<(u64, u64)>) {
    let terms = v
        .terms()
        .iter()
        .map(|t| (t.id, t.coeff.to_bits()))
        .collect();
    (format!("{:?}", v.center()), v.acc_noise().to_bits(), terms)
}

/// xorshift64*: the op sequence and operands of one seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Stale contents for an output, drawn from a context of its own so that
/// building it leaves the contexts under test untouched.
fn stale<C: CenterValue>(
    kind: usize,
    previous: &Affine<C>,
    config: AaConfig,
    scratch: &AaContext,
) -> Affine<C> {
    match kind {
        // More symbols than most results: a sum of many inputs.
        0 => {
            let mut v = Affine::from_input(0.5, scratch);
            for i in 0..2 * config.k + 3 {
                let x = Affine::from_input(1.0 + i as f64, scratch);
                v = v.add(&x, scratch, Protect::None);
            }
            v
        }
        1 => Affine::entire(scratch),
        2 => Affine::exact(f64::NAN, scratch),
        3 => previous.clone(),
        // The other placement (and another slot count).
        _ => {
            let other = match config.placement {
                Placement::Sorted => AaConfig::new(config.k + 3),
                Placement::DirectMapped => {
                    AaConfig::new(config.k).with_placement(Placement::Sorted)
                }
            };
            let cx = AaContext::new(other);
            Affine::from_input(3.0, &cx).mul(&Affine::from_input(0.1, &cx), &cx, Protect::None)
        }
    }
}

/// Runs one seeded op sequence twice in lock step — by value, and through
/// the `*_into` forms on stale outputs — comparing every result.
fn lock_step<C: CenterValue>(config: AaConfig, seed: u64) {
    let by_value = AaContext::new(config);
    let in_place = AaContext::new(config);
    let scratch = AaContext::new(config);
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let mut a: Vec<Affine<C>> = Vec::new();
    let mut b: Vec<Affine<C>> = Vec::new();
    for _ in 0..6 {
        let x = 0.25 + 2.0 * rng.unit();
        a.push(Affine::from_input(x, &by_value));
        b.push(Affine::from_input(x, &in_place));
    }
    let mut previous = b[0].clone();
    for step in 0..120 {
        let (i, j) = (rng.below(a.len()), rng.below(a.len()));
        let op = rng.below(12);
        // Protect the left operand's strongest symbols on some ops.
        let mut ids = Vec::new();
        if rng.below(3) == 0 {
            a[i].protect_ids_into(config.k / 2 + 1, &mut ids);
        }
        let p = if ids.is_empty() {
            Protect::None
        } else {
            Protect::Ids(&ids)
        };
        let c = if rng.below(2) == 0 {
            (rng.below(7) as f64) - 3.0
        } else {
            rng.unit() - 0.5
        };
        let want = match op {
            0 => a[i].add(&a[j], &by_value, p),
            1 => a[i].sub(&a[j], &by_value, p),
            2 => a[i].mul(&a[j], &by_value, p),
            3 => a[i].div(&a[j], &by_value, p),
            4 => a[i].sqrt(&by_value, p),
            5 => a[i].neg(),
            6 => a[i].abs(&by_value),
            7 => a[i].min(&a[j], &by_value),
            8 => a[i].max(&a[j], &by_value),
            9 => Affine::constant(c, &by_value),
            10 => a[i].recip(&by_value, p),
            _ => a[i].clone(),
        };
        let mut got = stale(rng.below(5), &previous, config, &scratch);
        match op {
            0 => b[i].add_into(&b[j], &in_place, p, &mut got),
            1 => b[i].sub_into(&b[j], &in_place, p, &mut got),
            2 => b[i].mul_into(&b[j], &in_place, p, &mut got),
            3 => b[i].div_into(&b[j], &in_place, p, &mut got),
            4 => b[i].sqrt_into(&in_place, p, &mut got),
            5 => b[i].neg_into(&mut got),
            6 => b[i].abs_into(&in_place, &mut got),
            7 => b[i].min_into(&b[j], &in_place, &mut got),
            8 => b[i].max_into(&b[j], &in_place, &mut got),
            9 => Affine::constant_into(c, &in_place, &mut got),
            10 => b[i].recip_into(&in_place, p, &mut got),
            _ => got.clone_from(&b[i]),
        }
        let at = format!("{config:?} seed {seed} step {step} op {op}");
        assert_eq!(bits(&got), bits(&want), "{at}");
        assert_eq!(
            in_place.symbols_allocated(),
            by_value.symbols_allocated(),
            "{at}"
        );
        assert_eq!(in_place.counters(), by_value.counters(), "{at}");
        // Results replace a random pool slot (and may become operands).
        let slot = rng.below(a.len());
        a[slot] = want;
        previous = got.clone();
        b[slot] = got;
    }
}

/// ss, ds and dsv placement.
fn configs(k: usize) -> Vec<AaConfig> {
    [
        (Placement::Sorted, false),
        (Placement::DirectMapped, false),
        (Placement::DirectMapped, true),
    ]
    .map(|(placement, vectorized)| {
        AaConfig::new(k)
            .with_placement(placement)
            .with_vectorized(vectorized)
    })
    .to_vec()
}

#[test]
fn in_place_forms_match_by_value_on_stale_outputs() {
    for k in [3, 8, 12] {
        for config in configs(k) {
            for seed in 0..6 {
                lock_step::<f64>(config, seed);
                lock_step::<Dd>(config, seed);
                lock_step::<f32>(config, seed);
            }
        }
    }
}
