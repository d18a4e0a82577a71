//! Differential suite for the driver's admission cache (DESIGN.md
//! §4.10): the report the cached path returns must equal, byte for
//! byte (`Report: PartialEq`), what `netpu_check::check_words` returns
//! for the same stream — on first sight and on every repeat with a
//! spliced input — and a repeat of an admitted stream with in-range
//! pixels must actually be served from the cache.

use netpu_check::{check_words, AdmissionVerdict, RuleId};
use netpu_compiler::{batch_stream, compile, compile_packed, Loadable, PackingMode};
use netpu_core::HwConfig;
use netpu_nn::export::BnMode;
use netpu_nn::zoo::{random_model, ZooModel};
use netpu_nn::QuantMlp;
use netpu_runtime::{Driver, InferRequest};
use netpu_serve::{FaultInjector, FaultPlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The cached report of `words`, asserted equal to the uncached one.
fn assert_same(driver: &Driver, words: &[u64], what: &str) -> netpu_check::Report {
    let cached = driver.admission_report(words);
    assert_eq!(cached, check_words(words, &driver.hw), "{what}");
    cached
}

fn random_pixels(rng: &mut StdRng, len: usize, lo: u8, hi: u8) -> Vec<u8> {
    (0..len).map(|_| rng.gen_range(lo..=hi)).collect()
}

/// First sight, then two spliced inputs: every report matches the full
/// check, and when the stream was admissible in structure every repeat
/// is a cache hit.
fn first_sight_and_repeats(driver: &Driver, mut loadable: Loadable, rng: &mut StdRng, what: &str) {
    let first = assert_same(driver, &loadable.words, what);
    let pixels = netpu_compiler::decode(&loadable.words).map_or(0, |d| d.pixels.len());
    for k in 0..2 {
        let hits = driver.admission_cache_stats().hits;
        loadable
            .replace_input(&random_pixels(rng, pixels, 0, u8::MAX))
            .expect("same input length");
        assert_same(driver, &loadable.words, &format!("{what}, repeat {k}"));
        if !first.has_structural_errors() {
            assert_eq!(
                driver.admission_cache_stats().hits,
                hits + 1,
                "{what}, repeat {k}: not served from the cache"
            );
        }
    }
}

#[test]
fn zoo_in_both_bn_modes_and_both_packings() {
    let mut rng = StdRng::seed_from_u64(1);
    let paper = Driver::builder().build();
    let dense = Driver::builder()
        .hw(HwConfig {
            dense_weight_packing: true,
            ..HwConfig::paper_instance()
        })
        .build();
    for zoo in ZooModel::ALL {
        for bn in [BnMode::Folded, BnMode::Hardware] {
            let model = zoo.build_untrained(11, bn).unwrap();
            for mode in [PackingMode::Lanes8, PackingMode::Dense] {
                let pixels = random_pixels(&mut rng, model.input.len, 0, u8::MAX);
                let loadable = compile_packed(&model, &pixels, mode).unwrap();
                // The paper instance lacks the dense unpack logic, so
                // dense streams are refused there (NPC006) and never
                // stored; the dense instance admits both packings.
                for driver in [&paper, &dense] {
                    let what = format!(
                        "{zoo:?} {bn:?} {mode:?} dense={}",
                        driver.hw.dense_weight_packing
                    );
                    first_sight_and_repeats(driver, loadable.clone(), &mut rng, &what);
                }
            }
        }
    }
}

#[test]
fn random_models_match_on_first_sight_and_repeats() {
    // One driver for the whole sweep: random models share topologies,
    // so same-pre-key replacement is exercised too.
    let driver = Driver::builder().build();
    let mut rng = StdRng::seed_from_u64(2);
    for seed in 0..200 {
        let model = random_model(seed);
        let pixels = random_pixels(&mut rng, model.input.len, 0, u8::MAX);
        let loadable = compile(&model, &pixels).unwrap();
        first_sight_and_repeats(&driver, loadable, &mut rng, &format!("random model {seed}"));
    }
}

#[test]
fn narrowed_input_ranges_with_pixels_inside_and_outside() {
    let mut rng = StdRng::seed_from_u64(3);
    let models: Vec<QuantMlp> = vec![
        ZooModel::TfcW1A1
            .build_untrained(4, BnMode::Folded)
            .unwrap(),
        // A partial final input word: padding lanes next to pixels.
        (0..64)
            .map(random_model)
            .find(|m| m.input.len % 8 != 0)
            .unwrap(),
    ];
    for model in &models {
        for (lo, hi) in [(10u8, 200u8), (0, 0), (255, 255), (0, 127)] {
            let driver = Driver::builder().build();
            let what = format!("input {} range {lo}..={hi}", model.input.len);
            let mut loadable =
                compile(model, &random_pixels(&mut rng, model.input.len, lo, hi)).unwrap();
            loadable.set_declared_input_range(lo, hi);
            assert!(!assert_same(&driver, &loadable.words, &what).has_structural_errors());

            // Inside the range: a hit.
            let inside = random_pixels(&mut rng, model.input.len, lo, hi);
            loadable.replace_input(&inside).unwrap();
            assert_same(&driver, &loadable.words, &what);
            assert_eq!(driver.admission_cache_stats().hits, 1, "{what}");

            // One pixel outside: the full check runs and NPC020 fires.
            let mut outside = inside.clone();
            outside[model.input.len / 2] = if lo > 0 { lo - 1 } else { hi + 1 };
            loadable.replace_input(&outside).unwrap();
            let report = assert_same(&driver, &loadable.words, &what);
            assert!(report.fired(RuleId::Npc020), "{what}");
            let stats = driver.admission_cache_stats();
            assert_eq!((stats.hits, stats.misses), (1, 2), "{what}");

            // The out-of-range request did not displace the entry.
            loadable.replace_input(&inside).unwrap();
            assert_same(&driver, &loadable.words, &what);
            assert_eq!(driver.admission_cache_stats().hits, 2, "{what}");
        }
        // An empty declared range rejects whatever the pixels are.
        let driver = Driver::builder().build();
        let mut loadable = compile(model, &vec![5u8; model.input.len]).unwrap();
        loadable.set_declared_input_range(9, 3);
        for _ in 0..2 {
            assert!(assert_same(&driver, &loadable.words, "empty range").fired(RuleId::Npc020));
        }
        assert_eq!(driver.admission_cache_stats().hits, 0);
    }
}

#[test]
fn padding_lanes_of_the_final_input_word_are_compared() {
    let model = (0..64)
        .map(random_model)
        .find(|m| m.input.len % 8 != 0)
        .unwrap();
    let driver = Driver::builder().build();
    let loadable = compile(&model, &vec![3u8; model.input.len]).unwrap();
    assert_same(&driver, &loadable.words, "clean");
    let last = loadable.layout.input.end - 1;
    let lane = model.input.len % 8;
    for bit in 8 * lane..64 {
        let mut words = loadable.words.clone();
        words[last] ^= 1 << bit;
        assert_same(&driver, &words, &format!("padding bit {bit}"));
    }
    assert_eq!(driver.admission_cache_stats().hits, 0);
}

#[test]
fn header_bit_faults_never_reuse_a_report() {
    let model = ZooModel::TfcW2A2
        .build_untrained(5, BnMode::Folded)
        .unwrap();
    let driver = Driver::builder().build();
    let loadable = compile(&model, &vec![17u8; 784]).unwrap();
    assert_same(&driver, &loadable.words, "clean");

    // The serving layer's injected fault: the header magic bit.
    let mut injector = FaultInjector::new(FaultPlan::FailFirstAttempts(1));
    let mut words = loadable.words.clone();
    assert!(injector.corrupt(0, &mut words));
    assert!(assert_same(&driver, &words, "injected fault").fired(RuleId::Npc001));

    // Every other header bit, too.
    for bit in 0..64 {
        let mut words = loadable.words.clone();
        words[0] ^= 1 << bit;
        assert_same(&driver, &words, &format!("header bit {bit}"));
    }
    assert_eq!(driver.admission_cache_stats().hits, 0);
    // The clean stream is still served from the cache afterwards.
    assert_same(&driver, &loadable.words, "clean again");
    assert_eq!(driver.admission_cache_stats().hits, 1);
}

#[test]
fn trailing_burst_words() {
    let model = ZooModel::TfcW1A1
        .build_untrained(6, BnMode::Folded)
        .unwrap();
    let driver = Driver::builder().build();
    let (a, b, c) = (vec![1u8; 784], vec![2u8; 784], vec![3u8; 784]);
    let ab = batch_stream(&model, &[a.clone(), b.clone()], PackingMode::Lanes8).unwrap();
    assert_same(&driver, &ab, "burst a,b");
    // Only the first segment's pixels are spliceable...
    let cb = batch_stream(&model, &[c.clone(), b], PackingMode::Lanes8).unwrap();
    assert_same(&driver, &cb, "burst c,b");
    assert_eq!(driver.admission_cache_stats().hits, 1);
    // ...a later segment's input is compared exactly.
    let ac = batch_stream(&model, &[a.clone(), c], PackingMode::Lanes8).unwrap();
    assert_same(&driver, &ac, "burst a,c");
    assert_eq!(driver.admission_cache_stats().hits, 1);

    // One garbage word past a clean loadable.
    let mut garbage = compile(&model, &a).unwrap().words;
    garbage.push(0xDEAD_BEEF);
    for _ in 0..2 {
        assert!(assert_same(&driver, &garbage, "garbage tail").has_structural_errors());
    }
    assert_eq!(driver.admission_cache_stats().hits, 1);
}

#[test]
fn the_false_accept_fuzz_fixture() {
    let words =
        netpu_fuzz::words_from_text(include_str!("../crates/fuzz/fixtures/false-accept-0.words"))
            .unwrap();
    let driver = Driver::builder().build();
    for _ in 0..2 {
        assert!(assert_same(&driver, &words, "false-accept-0").has_structural_errors());
    }
    assert_eq!(driver.admission_cache_stats().hits, 0);
}

#[test]
fn verdicts_follow_each_drivers_own_strict_range() {
    // A range-unsound stream (NPC014 on an 8-bit accumulator) is
    // stored; strict and lenient clones share the report but each
    // derives its own verdict.
    let model = ZooModel::TfcW2A2
        .build_untrained(7, BnMode::Folded)
        .unwrap();
    let strict = Driver::builder()
        .hw(HwConfig {
            accumulator_bits: 8,
            ..HwConfig::paper_instance()
        })
        .build();
    let mut lenient = strict.clone();
    lenient.strict_range = false;
    let mut loadable = compile(&model, &vec![0u8; 784]).unwrap();
    let report = assert_same(&strict, &loadable.words, "narrow accumulator");
    assert!(report.fired(RuleId::Npc014) && !report.has_structural_errors());
    loadable.replace_input(&vec![9u8; 784]).unwrap();
    assert!(strict
        .run(InferRequest::loadable(loadable.clone()))
        .is_err());
    lenient
        .run(InferRequest::loadable(loadable.clone()))
        .expect("lenient drivers admit range-unsound streams");
    assert_eq!(strict.admission_cache_stats().hits, 2);
    assert_eq!(
        AdmissionVerdict::from_report(strict.admission_report(&loadable.words), false),
        AdmissionVerdict::Admitted {
            range_flagged: true
        }
    );
}

#[test]
fn two_threads_racing_on_the_same_stream() {
    let model = ZooModel::SfcW1A1
        .build_untrained(8, BnMode::Folded)
        .unwrap();
    let driver = Driver::builder().build();
    let loadable = compile(&model, &vec![0u8; 784]).unwrap();
    let want = check_words(&loadable.words, &driver.hw);
    let barrier = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        for t in 0..2u64 {
            let (driver, barrier, want) = (driver.clone(), &barrier, &want);
            let mut loadable = loadable.clone();
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(t);
                for _ in 0..16 {
                    loadable
                        .replace_input(&random_pixels(&mut rng, 784, 0, u8::MAX))
                        .unwrap();
                    barrier.wait();
                    assert_eq!(&driver.admission_report(&loadable.words), want);
                }
            });
        }
    });
    let stats = driver.admission_cache_stats();
    assert_eq!(stats.hits + stats.misses, 32);
    assert!(stats.misses >= 1 && stats.misses <= 2, "{stats:?}");
    assert_eq!(stats.entries, 1);
}
