//! Property-based tests: differential testing of the compiler+VM against a
//! Rust reference evaluator, LZW roundtrips on arbitrary data, and
//! predictor/metric invariants on arbitrary branch statistics.

use proptest::prelude::*;

use fisher92::lang::compile;
use fisher92::opt::Pipeline;
use fisher92::predict::{evaluate, experiment, BreakConfig, Direction, Predictor};
use fisher92::profile::{combine, coverage, overlap, CombineRule, Coverage};
use fisher92::vm::{BranchCounts, Input, RunStats, Vm};

// ---------------------------------------------------------------------
// Differential testing: random integer expressions evaluated by the guest
// toolchain must match a Rust reference evaluator.
// ---------------------------------------------------------------------

/// A little expression AST we can both print as guest source and evaluate
/// in Rust.
#[derive(Clone, Debug)]
enum E {
    Lit(i64),
    Var(usize),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    And(Box<E>, Box<E>),
    Or(Box<E>, Box<E>),
    Xor(Box<E>, Box<E>),
    Shl(Box<E>, u8),
    Lt(Box<E>, Box<E>),
    Neg(Box<E>),
    Not(Box<E>),
}

impl E {
    fn to_source(&self) -> String {
        match self {
            E::Lit(v) => {
                if *v < 0 {
                    format!("(0 - {})", -v)
                } else {
                    v.to_string()
                }
            }
            E::Var(i) => format!("v{i}"),
            E::Add(a, b) => format!("({} + {})", a.to_source(), b.to_source()),
            E::Sub(a, b) => format!("({} - {})", a.to_source(), b.to_source()),
            E::Mul(a, b) => format!("({} * {})", a.to_source(), b.to_source()),
            E::And(a, b) => format!("({} & {})", a.to_source(), b.to_source()),
            E::Or(a, b) => format!("({} | {})", a.to_source(), b.to_source()),
            E::Xor(a, b) => format!("({} ^ {})", a.to_source(), b.to_source()),
            E::Shl(a, s) => format!("({} << {s})", a.to_source()),
            E::Lt(a, b) => format!("({} < {})", a.to_source(), b.to_source()),
            E::Neg(a) => format!("(-{})", a.to_source()),
            E::Not(a) => format!("(~{})", a.to_source()),
        }
    }

    fn eval(&self, vars: &[i64]) -> i64 {
        match self {
            E::Lit(v) => *v,
            E::Var(i) => vars[*i],
            E::Add(a, b) => a.eval(vars).wrapping_add(b.eval(vars)),
            E::Sub(a, b) => a.eval(vars).wrapping_sub(b.eval(vars)),
            E::Mul(a, b) => a.eval(vars).wrapping_mul(b.eval(vars)),
            E::And(a, b) => a.eval(vars) & b.eval(vars),
            E::Or(a, b) => a.eval(vars) | b.eval(vars),
            E::Xor(a, b) => a.eval(vars) ^ b.eval(vars),
            E::Shl(a, s) => a.eval(vars).wrapping_shl(u32::from(*s)),
            E::Lt(a, b) => i64::from(a.eval(vars) < b.eval(vars)),
            E::Neg(a) => a.eval(vars).wrapping_neg(),
            E::Not(a) => !a.eval(vars),
        }
    }
}

fn arb_expr() -> impl Strategy<Value = E> {
    let leaf = prop_oneof![
        (-1000i64..1000).prop_map(E::Lit),
        (0usize..3).prop_map(E::Var),
    ];
    leaf.prop_recursive(4, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Xor(Box::new(a), Box::new(b))),
            (inner.clone(), 0u8..63).prop_map(|(a, s)| E::Shl(Box::new(a), s)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Lt(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|a| E::Neg(Box::new(a))),
            inner.prop_map(|a| E::Not(Box::new(a))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn guest_expressions_match_reference(
        e in arb_expr(),
        vars in prop::array::uniform3(-1000i64..1000),
    ) {
        let src = format!(
            "fn main(v0: int, v1: int, v2: int) {{ emit({}); }}",
            e.to_source()
        );
        let program = compile(&src).expect("generated source compiles");
        let inputs: Vec<Input> = vars.iter().map(|&v| Input::Int(v)).collect();
        let run = Vm::new(&program).run(&inputs).expect("runs");
        prop_assert_eq!(run.output_ints(), vec![e.eval(&vars)]);
    }

    #[test]
    fn optimizer_preserves_random_expressions(
        e in arb_expr(),
        vars in prop::array::uniform3(-1000i64..1000),
    ) {
        let src = format!(
            "fn main(v0: int, v1: int, v2: int) {{ emit({}); }}",
            e.to_source()
        );
        let base = compile(&src).expect("compiles");
        let mut opt = base.clone();
        Pipeline::standard().run(&mut opt);
        let inputs: Vec<Input> = vars.iter().map(|&v| Input::Int(v)).collect();
        let b = Vm::new(&base).run(&inputs).expect("runs");
        let o = Vm::new(&opt).run(&inputs).expect("runs optimized");
        prop_assert_eq!(b.output, o.output);
        prop_assert!(o.stats.total_instrs <= b.stats.total_instrs);
    }
}

// ---------------------------------------------------------------------
// LZW roundtrip on arbitrary byte strings, through the real guest program.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lzw_roundtrips_arbitrary_bytes(data in prop::collection::vec(0i64..256, 1..600)) {
        let source = (fisher92::workloads::row("compress").expect("compress").source)();
        let program = compile(&source).expect("compiles");
        let n = data.len() as i64;
        let codes = Vm::new(&program)
            .run(&[Input::Ints(data.clone()), Input::Int(n), Input::Int(0)])
            .expect("compresses")
            .output_ints();
        let back = Vm::new(&program)
            .run(&[
                Input::Ints(codes.clone()),
                Input::Int(codes.len() as i64),
                Input::Int(1),
            ])
            .expect("decompresses")
            .output_ints();
        prop_assert_eq!(back, data);
    }
}

// ---------------------------------------------------------------------
// Predictor and metric invariants on arbitrary branch statistics.
// ---------------------------------------------------------------------

fn arb_counts() -> impl Strategy<Value = BranchCounts> {
    prop::collection::vec((0u32..40, 0u64..2000, 0u64..2000), 0..30).prop_map(|entries| {
        entries
            .into_iter()
            .map(|(id, e, t)| {
                let e = e.max(t); // taken <= executed
                (fisher92::ir::BranchId(id), e, t)
            })
            .collect()
    })
}

/// Counters small enough that ties (`2 * taken == executed`) and sites
/// that never ran (`executed == 0`) are common.
fn arb_small_counts() -> impl Strategy<Value = BranchCounts> {
    prop::collection::vec((0u32..40, 0u64..5, 0u64..5), 0..30).prop_map(|entries| {
        entries
            .into_iter()
            .map(|(id, e, t)| (fisher92::ir::BranchId(id), e.max(t), t))
            .collect()
    })
}

fn stats_from(counts: &BranchCounts, instrs: u64) -> RunStats {
    RunStats {
        total_instrs: instrs,
        branches: counts.clone(),
        events: Default::default(),
        pixie: Default::default(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn self_prediction_is_optimal(counts in arb_counts(), other in arb_counts()) {
        let stats = stats_from(&counts, 1_000_000);
        let cfg = BreakConfig::fig2();
        let self_p = Predictor::from_counts(&counts, Direction::NotTaken);
        let other_p = Predictor::from_counts(&other, Direction::NotTaken);
        let self_m = evaluate(&stats, &self_p, cfg);
        let other_m = evaluate(&stats, &other_p, cfg);
        prop_assert!(self_m.mispredicted <= other_m.mispredicted);
        // And equals the sum of minority sides.
        let expected: u64 = counts.iter().map(|(_, e, t)| t.min(e - t)).sum();
        prop_assert_eq!(self_m.mispredicted, expected);
        // `self_metrics` counts exactly that without building the
        // predictor, under every break convention.
        for cfg in [
            BreakConfig::fig1(),
            BreakConfig::fig1_with_calls(),
            BreakConfig::fig2(),
            BreakConfig::fig2_with_calls(),
        ] {
            prop_assert_eq!(
                experiment::self_metrics(&stats, cfg),
                evaluate(&stats, &self_p, cfg)
            );
        }
    }

    #[test]
    fn cross_metrics_match_the_predictor_model(
        counts in arb_counts(),
        other in arb_counts(),
        small in arb_small_counts(),
    ) {
        // The model: the majority predictor built over the profile, as
        // `cross_metrics` did before it counted from the counters.
        let target = experiment::DatasetRun::new("target", stats_from(&counts, 1_000_000));
        for profile in [&other, &small, &counts, &BranchCounts::new()] {
            let model = Predictor::from_counts(profile, Direction::NotTaken);
            for cfg in [
                BreakConfig::fig1(),
                BreakConfig::fig1_with_calls(),
                BreakConfig::fig2(),
                BreakConfig::fig2_with_calls(),
            ] {
                prop_assert_eq!(
                    experiment::cross_metrics(&target, profile, cfg),
                    evaluate(&target.stats, &model, cfg)
                );
            }
        }
    }

    #[test]
    fn mispredicts_bounded_by_executions(counts in arb_counts(), other in arb_counts()) {
        let stats = stats_from(&counts, 500);
        let p = Predictor::from_counts(&other, Direction::Taken);
        let m = evaluate(&stats, &p, BreakConfig::fig2());
        prop_assert!(m.mispredicted <= m.branch_execs);
        prop_assert!((0.0..=1.0).contains(&m.correct_fraction()));
        prop_assert!(m.instrs_per_break.is_finite());
        prop_assert!(m.instrs_per_break > 0.0);
    }

    #[test]
    fn flipping_a_predictor_complements_mispredicts(counts in arb_counts()) {
        let stats = stats_from(&counts, 1000);
        let cfg = BreakConfig::fig2();
        let taken = evaluate(&stats, &Predictor::always(Direction::Taken), cfg);
        let not = evaluate(&stats, &Predictor::always(Direction::NotTaken), cfg);
        prop_assert_eq!(taken.mispredicted + not.mispredicted, stats.branches.total_executed());
    }

    #[test]
    fn combination_rules_agree_on_single_profile(counts in arb_counts()) {
        let scaled = combine(&[&counts], CombineRule::Scaled);
        let unscaled = combine(&[&counts], CombineRule::Unscaled);
        let pa = Predictor::from_weighted(&scaled, Direction::NotTaken);
        let pb = Predictor::from_weighted(&unscaled, Direction::NotTaken);
        prop_assert_eq!(pa, pb);
    }

    #[test]
    fn combination_is_order_invariant(a in arb_counts(), b in arb_counts(), c in arb_counts()) {
        for rule in [CombineRule::Scaled, CombineRule::Unscaled, CombineRule::Polling] {
            let ab = combine(&[&a, &b, &c], rule);
            let ba = combine(&[&c, &a, &b], rule);
            for (id, e, t) in ab.iter() {
                let (e2, t2) = ba.get(id);
                prop_assert!((e - e2).abs() < 1e-9);
                prop_assert!((t - t2).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn directives_roundtrip_arbitrary_counts(taken_counts in prop::collection::vec((0u64..1000, 0u64..1000), 1..6)) {
        use fisher92::profile::directives;
        // Build a program with as many branches as entries.
        let mut body = String::new();
        for i in 0..taken_counts.len() {
            body.push_str(&format!("if (x > {i}) {{ emit({i}); }}\n"));
        }
        let src = format!("fn main(x: int) {{\n{body}}}");
        let program = compile(&src).expect("compiles");
        let mut counts = BranchCounts::new();
        for (i, (t, nt)) in taken_counts.iter().enumerate() {
            counts.add(fisher92::ir::BranchId(i as u32), t + nt, *t);
        }
        let text = directives::write_directives(&program, &counts);
        let parsed = directives::parse_directives(&program, &text).expect("parses");
        prop_assert_eq!(parsed, counts);
    }
}

// ---------------------------------------------------------------------
// The per-site arrays behind `Predictor` and `combine` against the
// `BTreeMap` model they replaced.
// ---------------------------------------------------------------------

mod map_model {
    use std::collections::BTreeMap;

    use fisher92::ir::BranchId;
    use fisher92::predict::Direction;
    use fisher92::profile::CombineRule;
    use fisher92::vm::BranchCounts;

    /// A predictor as one map entry per predicted site.
    pub struct Predictor {
        pub map: BTreeMap<BranchId, Direction>,
        pub default: Direction,
    }

    impl Predictor {
        pub fn from_counts(counts: &BranchCounts, default: Direction) -> Self {
            let map = counts
                .iter()
                .filter(|(_, e, _)| *e > 0)
                .map(|(id, e, t)| {
                    let dir = if t * 2 >= e {
                        Direction::Taken
                    } else {
                        Direction::NotTaken
                    };
                    (id, dir)
                })
                .collect();
            Predictor { map, default }
        }

        pub fn from_weighted(counts: &BTreeMap<BranchId, (f64, f64)>, default: Direction) -> Self {
            let map = counts
                .iter()
                .filter(|&(_, &(e, _))| e > 0.0)
                .map(|(&id, &(e, t))| {
                    let dir = if t / e >= 0.5 {
                        Direction::Taken
                    } else {
                        Direction::NotTaken
                    };
                    (id, dir)
                })
                .collect();
            Predictor { map, default }
        }

        pub fn predict(&self, id: BranchId) -> Direction {
            self.map.get(&id).copied().unwrap_or(self.default)
        }
    }

    /// Combines profiles into one map entry per seen site.
    pub fn combine(
        profiles: &[&BranchCounts],
        rule: CombineRule,
    ) -> BTreeMap<BranchId, (f64, f64)> {
        let mut out: BTreeMap<BranchId, (f64, f64)> = BTreeMap::new();
        for p in profiles {
            match rule {
                CombineRule::Unscaled => {
                    for (id, e, t) in p.iter() {
                        let slot = out.entry(id).or_insert((0.0, 0.0));
                        slot.0 += e as f64;
                        slot.1 += t as f64;
                    }
                }
                CombineRule::Scaled => {
                    let total = p.total_executed();
                    if total == 0 {
                        continue;
                    }
                    let w = 1.0 / total as f64;
                    for (id, e, t) in p.iter() {
                        let slot = out.entry(id).or_insert((0.0, 0.0));
                        slot.0 += e as f64 * w;
                        slot.1 += t as f64 * w;
                    }
                }
                CombineRule::Polling => {
                    for (id, e, t) in p.iter() {
                        if e == 0 {
                            continue;
                        }
                        let slot = out.entry(id).or_insert((0.0, 0.0));
                        slot.0 += 1.0;
                        if t * 2 >= e {
                            slot.1 += 1.0;
                        }
                    }
                }
            }
        }
        out
    }

    /// `ifprob::coverage` as one map lookup per target site.
    pub fn coverage(predictor: &BranchCounts, target: &BranchCounts) -> (u64, u64, u64, u64, u64) {
        let (mut covered_dyn, mut total_dyn, mut agree_dyn) = (0, 0, 0);
        let (mut covered_static, mut total_static) = (0, 0);
        for (id, e, t) in target.iter() {
            if e == 0 {
                continue;
            }
            total_dyn += e;
            total_static += 1;
            let (pe, pt) = predictor.get(id);
            if pe > 0 {
                covered_dyn += e;
                covered_static += 1;
                if (t * 2 >= e) == (pt * 2 >= pe) {
                    agree_dyn += e;
                }
            }
        }
        (
            covered_dyn,
            total_dyn,
            covered_static,
            total_static,
            agree_dyn,
        )
    }

    /// `ifprob::overlap` as one map lookup per site of `a`.
    pub fn overlap(a: &BranchCounts, b: &BranchCounts) -> f64 {
        let ta = a.total_executed();
        let tb = b.total_executed();
        if ta == 0 || tb == 0 {
            return 0.0;
        }
        let (mut dot, mut na, mut nb) = (0.0, 0.0, 0.0);
        for (id, e, _) in a.iter() {
            let wa = e as f64 / ta as f64;
            na += wa * wa;
            let (eb, _) = b.get(id);
            dot += wa * (eb as f64 / tb as f64);
        }
        for (_, e, _) in b.iter() {
            let wb = e as f64 / tb as f64;
            nb += wb * wb;
        }
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            dot / (na.sqrt() * nb.sqrt())
        }
    }
}

fn direction(taken: u8) -> Direction {
    if taken == 1 {
        Direction::Taken
    } else {
        Direction::NotTaken
    }
}

/// Every site the generated profiles can name, and a few beyond.
fn probe_ids() -> impl Iterator<Item = fisher92::ir::BranchId> {
    (0u32..48).map(fisher92::ir::BranchId)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dense_predictors_match_the_map_model(
        counts in arb_counts(),
        dirs in prop::collection::vec((0u32..40, 0u8..2), 0..30),
        default in 0u8..2,
    ) {
        let default = direction(default);
        let pairs: Vec<_> = dirs
            .iter()
            .map(|&(id, taken)| (fisher92::ir::BranchId(id), direction(taken)))
            .collect();
        let model = map_model::Predictor {
            map: pairs.iter().copied().collect(),
            default,
        };
        let dense = Predictor::from_directions(pairs.iter().copied(), default);
        let from_counts = Predictor::from_counts(&counts, default);
        let counts_model = map_model::Predictor::from_counts(&counts, default);
        for (dense, model) in [(&dense, &model), (&from_counts, &counts_model)] {
            for id in probe_ids() {
                prop_assert_eq!(dense.predict(id), model.predict(id), "{:?}", id);
            }
            let entries: Vec<_> = model.map.iter().map(|(&id, &d)| (id, d)).collect();
            prop_assert_eq!(dense.iter().collect::<Vec<_>>(), entries.clone());
            prop_assert_eq!(dense.len(), model.map.len());
            prop_assert_eq!(dense.is_empty(), model.map.is_empty());
            // Any insertion order of the same predictions is the same
            // predictor.
            let reversed = Predictor::from_directions(entries.into_iter().rev(), model.default);
            prop_assert_eq!(&reversed, dense);
        }
    }

    #[test]
    fn merged_coverage_and_overlap_match_the_lookup_model(a in arb_counts(), b in arb_counts()) {
        let ratio = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
        for (x, y) in [(&a, &b), (&b, &a), (&a, &a)] {
            let (covered_dyn, total_dyn, covered_static, total_static, agree_dyn) =
                map_model::coverage(x, y);
            let want = Coverage {
                dynamic: ratio(covered_dyn, total_dyn),
                static_: ratio(covered_static, total_static),
                agreement: ratio(agree_dyn, covered_dyn),
            };
            let got = coverage(x, y);
            let bits = |c: Coverage| (c.dynamic.to_bits(), c.static_.to_bits(), c.agreement.to_bits());
            prop_assert_eq!(bits(got), bits(want));
            // Every sum takes the same terms in the same order: equal to
            // the bit.
            prop_assert_eq!(overlap(x, y).to_bits(), map_model::overlap(x, y).to_bits());
        }
    }

    #[test]
    fn dense_combine_matches_the_map_model(
        a in arb_counts(),
        b in arb_counts(),
        c in arb_counts(),
    ) {
        let bits = |(e, t): (f64, f64)| (e.to_bits(), t.to_bits());
        for rule in [CombineRule::Scaled, CombineRule::Unscaled, CombineRule::Polling] {
            for profiles in [vec![&a, &b, &c], vec![&c, &a], vec![&b]] {
                let dense = combine(&profiles, rule);
                let model = map_model::combine(&profiles, rule);
                // Every weight is the same sum in the same order: equal to
                // the bit.
                let got: Vec<_> = dense.iter().map(|(id, e, t)| (id, bits((e, t)))).collect();
                let want: Vec<_> = model.iter().map(|(&id, &w)| (id, bits(w))).collect();
                prop_assert_eq!(got, want, "{:?}", rule);
                prop_assert_eq!(dense.len(), model.len());
                prop_assert_eq!(dense.is_empty(), model.is_empty());
                for id in probe_ids() {
                    let unseen = (0.0, 0.0);
                    let w = model.get(&id).copied().unwrap_or(unseen);
                    prop_assert_eq!(bits(dense.get(id)), bits(w), "{:?} {:?}", rule, id);
                }
                let predictor = Predictor::from_weighted(&dense, Direction::NotTaken);
                let expected = map_model::Predictor::from_weighted(&model, Direction::NotTaken);
                for id in probe_ids() {
                    prop_assert_eq!(predictor.predict(id), expected.predict(id), "{:?}", id);
                }
            }
        }
    }
}
