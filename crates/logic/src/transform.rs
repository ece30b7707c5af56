//! Formula transformations: negation normal form, atom collection, forced
//! literals, and the existential prenexing that feeds Fact 2.

use crate::error::LogicError;
use crate::formula::Formula;
use crate::term::{Term, Var};
use dds_structure::SymbolId;

/// Negation normal form: negations pushed to the atoms. Existential
/// quantifiers are preserved when they occur positively; `Not(Exists ..)`
/// is rejected (outside the decidable fragment, §6.2).
pub fn nnf(f: &Formula) -> Result<Formula, LogicError> {
    fn pos(f: &Formula) -> Result<Formula, LogicError> {
        Ok(match f {
            Formula::True | Formula::False | Formula::Eq(..) | Formula::Rel(..) => f.clone(),
            Formula::Not(inner) => neg(inner)?,
            Formula::And(fs) => Formula::and(fs.iter().map(pos).collect::<Result<_, _>>()?),
            Formula::Or(fs) => Formula::or(fs.iter().map(pos).collect::<Result<_, _>>()?),
            Formula::Exists(vs, body) => Formula::Exists(vs.clone(), Box::new(pos(body)?)),
        })
    }
    fn neg(f: &Formula) -> Result<Formula, LogicError> {
        Ok(match f {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::Eq(..) | Formula::Rel(..) => Formula::Not(Box::new(f.clone())),
            Formula::Not(inner) => pos(inner)?,
            Formula::And(fs) => Formula::or(fs.iter().map(neg).collect::<Result<_, _>>()?),
            Formula::Or(fs) => Formula::and(fs.iter().map(neg).collect::<Result<_, _>>()?),
            Formula::Exists(..) => return Err(LogicError::NotExistential),
        })
    }
    pos(f)
}

/// Collects the distinct atoms (equalities and relation atoms) of a formula,
/// ignoring polarity, in first-occurrence order.
pub fn atoms(f: &Formula) -> Vec<Formula> {
    fn go(f: &Formula, out: &mut Vec<Formula>) {
        match f {
            Formula::True | Formula::False => {}
            Formula::Eq(..) | Formula::Rel(..) => {
                if !out.contains(f) {
                    out.push(f.clone());
                }
            }
            Formula::Not(inner) | Formula::Exists(_, inner) => go(inner, out),
            Formula::And(fs) | Formula::Or(fs) => {
                for sub in fs {
                    go(sub, out);
                }
            }
        }
    }
    let mut out = Vec::new();
    go(f, &mut out);
    out
}

/// A literal over variables: a (dis)equality or a (negated) relation atom.
/// The `bool` is the polarity (`true` for the atom, `false` for its
/// negation).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Literal {
    /// `a = b` (or `a != b`).
    Eq(Var, Var, bool),
    /// `R(v1, .., vn)` (or its negation).
    Rel(SymbolId, Vec<Var>, bool),
}

/// The literals that hold in every model of `f`: the variable
/// (dis)equalities and (negated) relation atoms over variables that occur as
/// conjuncts of `f`, found by descending `And` only. `Or` and `Exists` are
/// never entered and atoms with function terms are skipped, so the result
/// is a sound under-approximation: any valuation breaking one of them
/// falsifies `f`.
pub fn forced_literals(f: &Formula) -> Vec<Literal> {
    fn vars(args: &[Term]) -> Option<Vec<Var>> {
        args.iter()
            .map(|t| match t {
                Term::Var(v) => Some(*v),
                Term::App(..) => None,
            })
            .collect()
    }
    fn literal(atom: &Formula, polarity: bool) -> Option<Literal> {
        match atom {
            Formula::Eq(Term::Var(a), Term::Var(b)) => Some(Literal::Eq(*a, *b, polarity)),
            Formula::Rel(r, args) => Some(Literal::Rel(*r, vars(args)?, polarity)),
            _ => None,
        }
    }
    fn go(f: &Formula, out: &mut Vec<Literal>) {
        match f {
            Formula::And(fs) => fs.iter().for_each(|g| go(g, out)),
            Formula::Not(inner) => out.extend(literal(inner, false)),
            atom => out.extend(literal(atom, true)),
        }
    }
    let mut out = Vec::new();
    go(f, &mut out);
    out
}

/// Pulls all existential quantifiers of an *existential* formula to the
/// front, renaming bound variables to the fresh consecutive block
/// `fresh_base, fresh_base+1, ..`.
///
/// Returns the renamed bound variables (in allocation order) and the
/// quantifier-free matrix: `φ ≡ ∃ z̄. matrix`. This is the formula-level half
/// of Fact 2; `dds-system` turns the block `z̄` into extra registers.
///
/// Correctness: `∃` commutes with `∧` and `∨` once bound names are fresh
/// (they never capture), and the input is rejected if a quantifier occurs
/// under a negation.
pub fn prenex_existential(f: &Formula, fresh_base: u32) -> Result<(Vec<Var>, Formula), LogicError> {
    if !f.is_existential() {
        return Err(LogicError::NotExistential);
    }
    let mut next = fresh_base;
    let mut block = Vec::new();
    let matrix = go(f, &mut next, &mut block)?;
    return Ok((block, matrix));

    fn go(f: &Formula, next: &mut u32, block: &mut Vec<Var>) -> Result<Formula, LogicError> {
        Ok(match f {
            Formula::True | Formula::False | Formula::Eq(..) | Formula::Rel(..) => f.clone(),
            Formula::Not(inner) => {
                // is_existential guarantees `inner` is quantifier-free.
                debug_assert!(inner.is_quantifier_free());
                f.clone()
            }
            Formula::And(fs) => Formula::and(
                fs.iter()
                    .map(|sub| go(sub, next, block))
                    .collect::<Result<_, _>>()?,
            ),
            Formula::Or(fs) => Formula::or(
                fs.iter()
                    .map(|sub| go(sub, next, block))
                    .collect::<Result<_, _>>()?,
            ),
            Formula::Exists(vs, body) => {
                // Rename this binder's whole block at once (one traversal per
                // binder keeps the compilation linear, as Fact 2 promises).
                let mut map = std::collections::HashMap::with_capacity(vs.len());
                for &v in vs {
                    let fresh = Var(*next);
                    *next += 1;
                    block.push(fresh);
                    map.insert(v, fresh);
                }
                let renamed = body.map_vars(&|u| *map.get(&u).unwrap_or(&u));
                go(&renamed, next, block)?
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::Formula;
    use crate::term::Term;
    use dds_structure::SymbolId;

    fn atom(i: u32, j: u32) -> Formula {
        Formula::var_eq(Var(i), Var(j))
    }

    #[test]
    fn nnf_pushes_negations() {
        let f = Formula::negate(Formula::and(vec![atom(0, 1), Formula::negate(atom(1, 2))]));
        let g = nnf(&f).unwrap();
        // !(a & !b) == !a | b
        match g {
            Formula::Or(parts) => {
                assert_eq!(parts.len(), 2);
                assert!(matches!(parts[0], Formula::Not(_)));
                assert!(matches!(parts[1], Formula::Eq(..)));
            }
            other => panic!("unexpected: {other:?}"),
        }
        // Negated existential rejected.
        let bad = Formula::negate(Formula::Exists(vec![Var(9)], Box::new(atom(9, 0))));
        assert_eq!(nnf(&bad), Err(LogicError::NotExistential));
    }

    #[test]
    fn atoms_deduplicate() {
        let f = Formula::and(vec![
            atom(0, 1),
            Formula::negate(atom(0, 1)),
            Formula::Rel(SymbolId(0), vec![Term::var(Var(2))]),
        ]);
        let a = atoms(&f);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn forced_literals_descend_nested_and_only() {
        let r = SymbolId(0);
        // Built without `Formula::and`, so the conjunctions stay nested.
        let f = Formula::And(vec![
            atom(0, 1),
            Formula::And(vec![
                Formula::negate(atom(1, 2)),
                Formula::rel_vars(r, &[Var(0), Var(3)]),
            ]),
            Formula::Or(vec![atom(4, 5), atom(4, 6)]),
            Formula::Exists(vec![Var(9)], Box::new(atom(9, 0))),
        ]);
        assert_eq!(
            forced_literals(&f),
            vec![
                Literal::Eq(Var(0), Var(1), true),
                Literal::Eq(Var(1), Var(2), false),
                Literal::Rel(r, vec![Var(0), Var(3)], true),
            ]
        );
        // A bare `Or` or `Exists` forces nothing.
        assert!(forced_literals(&Formula::or(vec![atom(0, 1), atom(1, 2)])).is_empty());
        assert!(forced_literals(&Formula::Exists(vec![Var(9)], Box::new(atom(9, 0)))).is_empty());
    }

    #[test]
    fn forced_literals_negate_atoms_and_skip_function_terms() {
        let (r, f) = (SymbolId(0), SymbolId(1));
        let fx = Term::app(f, vec![Term::var(Var(0))]);
        let g = Formula::and(vec![
            Formula::negate(Formula::rel_vars(r, &[Var(2), Var(2)])),
            Formula::Rel(r, vec![fx.clone(), Term::var(Var(1))]),
            Formula::negate(Formula::Rel(r, vec![Term::var(Var(1)), fx.clone()])),
            Formula::Eq(fx, Term::var(Var(1))),
            // A double negation is not a literal.
            Formula::Not(Box::new(Formula::Not(Box::new(atom(0, 1))))),
        ]);
        assert_eq!(
            forced_literals(&g),
            vec![Literal::Rel(r, vec![Var(2), Var(2)], false)]
        );
    }

    #[test]
    fn prenex_flattens_nested_existentials() {
        // exists a. (x=a & exists b. a=b) | exists c. x=c
        let inner = Formula::Exists(vec![Var(101)], Box::new(atom(100, 101)));
        let left = Formula::Exists(
            vec![Var(100)],
            Box::new(Formula::and(vec![atom(0, 100), inner])),
        );
        let right = Formula::Exists(vec![Var(200)], Box::new(atom(0, 200)));
        let f = Formula::or(vec![left, right]);
        let (block, matrix) = prenex_existential(&f, 10).unwrap();
        assert_eq!(block, vec![Var(10), Var(11), Var(12)]);
        assert!(matrix.is_quantifier_free());
        // All renamed variables are in the fresh block.
        for v in matrix.free_vars() {
            assert!(v == Var(0) || (v.0 >= 10 && v.0 < 13), "stray var {v:?}");
        }
    }

    #[test]
    fn prenex_identity_on_qf() {
        let f = Formula::and(vec![atom(0, 1), Formula::negate(atom(2, 3))]);
        let (block, matrix) = prenex_existential(&f, 10).unwrap();
        assert!(block.is_empty());
        assert_eq!(matrix, f);
    }

    #[test]
    fn prenex_rejects_negated_quantifier() {
        let bad = Formula::negate(Formula::Exists(vec![Var(9)], Box::new(atom(9, 0))));
        assert_eq!(
            prenex_existential(&bad, 10),
            Err(LogicError::NotExistential)
        );
    }
}
