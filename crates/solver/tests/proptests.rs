//! Property-based tests for the solver's core data structures, the soundness
//! of its satisfiability answers, and the agreement of the incremental
//! prefix-cached procedure with from-scratch solving.

use proptest::prelude::*;
use symnet_solver::{CmpOp, Formula, IntervalSet, PathCond, Solver, SolverConfig, SymVar, Term};

/// Strategy producing small interval sets inside a bounded universe.
fn interval_set(universe: i128) -> impl Strategy<Value = IntervalSet> {
    prop::collection::vec((0..universe, 0..universe), 0..8).prop_map(|pairs| {
        IntervalSet::from_ranges(pairs.into_iter().map(|(a, b)| (a.min(b), a.max(b))))
    })
}

proptest! {
    #[test]
    fn union_contains_both_operands(a in interval_set(1000), b in interval_set(1000), x in 0i128..1000) {
        let u = a.union(&b);
        prop_assert_eq!(u.contains(x), a.contains(x) || b.contains(x));
    }

    #[test]
    fn intersection_is_conjunction(a in interval_set(1000), b in interval_set(1000), x in 0i128..1000) {
        let i = a.intersect(&b);
        prop_assert_eq!(i.contains(x), a.contains(x) && b.contains(x));
    }

    #[test]
    fn complement_flips_membership(a in interval_set(1000), x in 0i128..1000) {
        let c = a.complement(0, 999);
        prop_assert_eq!(c.contains(x), !a.contains(x));
    }

    #[test]
    fn difference_removes_exactly(a in interval_set(1000), b in interval_set(1000), x in 0i128..1000) {
        let d = a.difference(&b);
        prop_assert_eq!(d.contains(x), a.contains(x) && !b.contains(x));
    }

    #[test]
    fn shift_translates_membership(a in interval_set(1000), delta in -500i128..500, x in 0i128..1000) {
        let s = a.shift(delta);
        prop_assert_eq!(s.contains(x + delta), a.contains(x));
    }

    #[test]
    fn cardinality_matches_membership_count(a in interval_set(200)) {
        let count = (0i128..200).filter(|x| a.contains(*x)).count() as u128;
        prop_assert_eq!(a.cardinality(), count);
    }

    /// Every `Sat` answer must come with a model that actually satisfies the
    /// formula (the solver re-checks witnesses, so this must always hold).
    #[test]
    fn sat_answers_carry_valid_models(
        ops in prop::collection::vec((0usize..6, 0u64..4, 0u64..256), 1..6),
    ) {
        let mut solver = Solver::default();
        let parts: Vec<Formula> = ops
            .iter()
            .map(|(op, var, value)| {
                let v = SymVar::new(*var, 8);
                let op = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][*op];
                Formula::cmp_const(op, v, *value)
            })
            .collect();
        let f = Formula::and(parts);
        if let Some(model) = solver.model(&f) {
            prop_assert!(model.satisfies(&f));
        }
    }

    /// Brute-force cross-check on 8-bit single-variable formulas: the solver's
    /// sat/unsat answer must agree with exhaustive enumeration.
    #[test]
    fn single_var_agrees_with_bruteforce(
        ops in prop::collection::vec((0usize..6, 0u64..256, prop::bool::ANY), 1..8),
    ) {
        let v = SymVar::new(0, 8);
        let atoms: Vec<Formula> = ops
            .iter()
            .map(|(op, value, _)| {
                let op = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][*op];
                Formula::cmp_const(op, v, *value)
            })
            .collect();
        // Alternate and/or nesting driven by the boolean flags.
        let mut f = atoms[0].clone();
        for (atom, (_, _, use_or)) in atoms.iter().skip(1).zip(ops.iter().skip(1)) {
            f = if *use_or {
                Formula::or(vec![f, atom.clone()])
            } else {
                Formula::and(vec![f, atom.clone()])
            };
        }
        let brute = (0u64..256).any(|x| f.eval(&|_| Some(x)) == Some(true));
        let mut solver = Solver::default();
        let result = solver.check(&f);
        prop_assert_eq!(result.is_sat(), brute);
        prop_assert_eq!(result.is_unsat(), !brute);
    }

    /// Brute-force cross-check on cubes over 2–3 variables of 3–4 bits that
    /// mix constant exclusions, disequalities and offset orderings — the
    /// shapes a sampled witness search can miss. The solver may give up with
    /// `Unknown`, but it must never answer `Unsat` on a satisfiable cube nor
    /// `Sat` on an unsatisfiable one.
    #[test]
    fn multi_var_never_contradicts_bruteforce(
        shape in (2usize..4, 3u8..5),
        lits in prop::collection::vec((0usize..6, 0u64..3, 0u64..3, 0u64..16), 1..17),
    ) {
        let (n, width) = shape;
        let vars: Vec<SymVar> = (0..n as u64).map(|i| SymVar::new(i, width)).collect();
        let max = (1u64 << width) - 1;
        let atoms: Vec<Formula> = lits
            .iter()
            .map(|&(kind, a, b, k)| {
                // `k` is the constant of a constant literal and, mod 4, the
                // offset of a cross-variable one.
                let (va, vb) = (vars[a as usize % n], vars[b as usize % n]);
                let (ta, tb) = (Term::var(va), Term::var(vb).plus((k % 4) as i128));
                match kind {
                    0 | 1 => Formula::ne_const(va, k.min(max)),
                    2 | 3 => Formula::cmp(CmpOp::Ne, ta, tb),
                    4 => Formula::cmp(CmpOp::Lt, ta, tb),
                    _ => Formula::cmp(CmpOp::Le, ta, tb),
                }
            })
            .collect();
        let f = Formula::and(atoms);
        let total = 1u64 << (width as u32 * n as u32);
        let brute = (0..total).any(|code| {
            f.eval(&|id| Some((code >> (width as u64 * id.0)) & max)) == Some(true)
        });
        let result = Solver::default().check(&f);
        if brute {
            prop_assert!(!result.is_unsat(), "satisfiable cube answered Unsat: {}", f);
        } else {
            prop_assert!(!result.is_sat(), "unsatisfiable cube answered Sat: {}", f);
        }
    }

    /// The incremental prefix-cached solver must agree with a fresh
    /// from-scratch `Solver` at every step of a random conjunct chain: same
    /// SAT/UNSAT verdicts and identical feasible-value intervals.
    #[test]
    fn incremental_agrees_with_scratch_on_chains(
        ops in prop::collection::vec((0usize..8, 0u64..3, 0u64..3, 0u64..64), 1..10),
    ) {
        let vars: Vec<SymVar> = (0..3).map(|i| SymVar::new(i, 6)).collect();
        let mut incremental = Solver::default();
        let mut cond = PathCond::empty();
        for (kind, a, b, value) in &ops {
            let (va, vb) = (vars[*a as usize], vars[*b as usize]);
            let conjunct = match kind {
                0 => Formula::eq_const(va, *value),
                1 => Formula::ne_const(va, *value),
                2 => Formula::cmp_const(CmpOp::Le, va, *value),
                3 => Formula::cmp_const(CmpOp::Ge, va, *value),
                4 => Formula::cmp(CmpOp::Eq, Term::var(va), Term::var(vb).plus((*value as i128) % 8)),
                5 => Formula::cmp(CmpOp::Lt, Term::var(va), Term::var(vb)),
                6 => Formula::prefix_match(va, *value, (*value % 7) as u8),
                _ => Formula::or(vec![
                    Formula::eq_const(va, *value),
                    Formula::cmp_const(CmpOp::Ge, vb, *value),
                ]),
            };
            cond = cond.push(conjunct);
            // Verdict agreement at every prefix of the chain, against a fresh
            // from-scratch solver (no shared caches).
            let mut scratch = Solver::default();
            let materialised = cond.to_formula();
            let inc = incremental.check_path(&cond);
            let scr = scratch.check(&materialised);
            prop_assert_eq!(inc.is_sat(), scr.is_sat());
            prop_assert_eq!(inc.is_unsat(), scr.is_unsat());
            // Feasible-value projections must be identical sets.
            for var in &vars {
                let a = incremental.feasible_values_path(&cond, *var);
                let b = scratch.feasible_values(&materialised, *var);
                prop_assert_eq!(a, b);
            }
        }
        // Re-checking the full chain is answered from the caches with the
        // same verdict.
        let mut scratch = Solver::default();
        let again = incremental.check_path(&cond);
        prop_assert_eq!(again.is_sat(), scratch.check(&cond.to_formula()).is_sat());
        prop_assert!(incremental.stats().prefix_hits > 0);
    }

    /// Interning is invisible to answers: rebuilding the same conjunct chain
    /// from scratch produces fresh path nodes but identical interned content
    /// ids, so the second pass is answered by the process-wide content memos —
    /// and must agree, verdict for verdict and interval for interval, with
    /// both its own first pass and the uninterned `incremental = false`
    /// baseline that re-solves the materialised formula every time.
    #[test]
    fn interned_warm_rerun_agrees_with_uninterned(
        ops in prop::collection::vec((0usize..8, 0u64..3, 0u64..3, 0u64..64), 1..10),
    ) {
        let vars: Vec<SymVar> = (0..3).map(|i| SymVar::new(i, 6)).collect();
        let conjuncts: Vec<Formula> = ops
            .iter()
            .map(|(kind, a, b, value)| {
                let (va, vb) = (vars[*a as usize], vars[*b as usize]);
                match kind {
                    0 => Formula::eq_const(va, *value),
                    1 => Formula::ne_const(va, *value),
                    2 => Formula::cmp_const(CmpOp::Le, va, *value),
                    3 => Formula::cmp_const(CmpOp::Ge, va, *value),
                    4 => Formula::cmp(CmpOp::Eq, Term::var(va), Term::var(vb).plus((*value as i128) % 8)),
                    5 => Formula::cmp(CmpOp::Lt, Term::var(va), Term::var(vb)),
                    6 => Formula::prefix_match(va, *value, (*value % 7) as u8),
                    _ => Formula::or(vec![
                        Formula::eq_const(va, *value),
                        Formula::cmp_const(CmpOp::Ge, vb, *value),
                    ]),
                }
            })
            .collect();
        let run = |solver: &mut Solver| {
            let mut cond = PathCond::empty();
            let mut verdicts = Vec::new();
            for conjunct in &conjuncts {
                cond = cond.push(conjunct.clone());
                let verdict = solver.check_path(&cond);
                let projections: Vec<_> = vars
                    .iter()
                    .map(|v| solver.feasible_values_path(&cond, *v))
                    .collect();
                verdicts.push((verdict.is_sat(), verdict.is_unsat(), projections));
            }
            verdicts
        };
        let mut cold = Solver::default();
        let first = run(&mut cold);
        // Fresh solver, fresh nodes: only interned content survives between
        // the passes, so agreement here is agreement through the memo tables.
        let mut warm = Solver::default();
        let second = run(&mut warm);
        prop_assert_eq!(&first, &second);
        let mut uninterned = Solver::with_config(SolverConfig {
            incremental: false,
            ..SolverConfig::default()
        });
        let third = run(&mut uninterned);
        prop_assert_eq!(&first, &third);
    }

    /// Two-variable conjunctions of constant comparisons and one cross
    /// equality, cross-checked by brute force over 6-bit domains.
    #[test]
    fn cross_equality_agrees_with_bruteforce(
        xa in 0u64..64, xb in 0u64..64, offset in -8i128..8,
    ) {
        let x = SymVar::new(0, 6);
        let y = SymVar::new(1, 6);
        let f = Formula::and(vec![
            Formula::cmp_const(CmpOp::Ge, x, xa),
            Formula::cmp_const(CmpOp::Le, y, xb),
            Formula::cmp(CmpOp::Eq, Term::var(y), Term::var(x).plus(offset)),
        ]);
        let brute = (0u64..64).any(|xv| {
            (0u64..64).any(|yv| {
                f.eval(&|id| if id.0 == 0 { Some(xv) } else { Some(yv) }) == Some(true)
            })
        });
        let mut solver = Solver::default();
        prop_assert_eq!(solver.check(&f).is_sat(), brute);
    }
}
