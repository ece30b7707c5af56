//! A small concrete syntax for guards, used by builders, examples and tests.
//!
//! Grammar (precedence low → high: `|`, `&`, `!`):
//!
//! ```text
//! formula  := or
//! or       := and ('|' and)*
//! and      := unary ('&' unary)*
//! unary    := '!' unary | 'exists' ident+ '.' or | primary
//! primary  := 'true' | 'false' | '(' formula ')'
//!           | RelName '(' term, .. ')'                 (relation atom)
//!           | term ('=' | '!=' | InfixRel) term        (equality / infix atom)
//! term     := ident ('(' term, .. ')')?                (variable, constant or
//!                                                       function application)
//! ```
//!
//! Identifiers are resolved first as variables (via the caller-supplied
//! resolver — `dds-system` maps `x_old`/`x_new` register names), then as
//! schema symbols. Any binary relation in the schema named `<`, `<=`, `~`,
//! `<<` or `doc` can be written infix; `!=` abbreviates a negated equality.
//! `exists` introduces fresh variable indices starting at the caller-chosen
//! base (systems pass `2k` so quantified variables never clash with register
//! variables).
//!
//! Parentheses, `!`, `exists` bodies and function arguments may nest at most
//! [`MAX_NESTING`] levels deep; deeper input is a parse error. Every
//! recursive walk over a parsed formula (translation, elimination,
//! evaluation, even dropping it) recurses as deep as the formula nests, so
//! the bound limits their depth too. Formulas built in code, without the
//! parser, are not bounded.

use crate::error::LogicError;
use crate::formula::Formula;
use crate::term::{Term, Var};
use dds_structure::{Schema, SymbolKind};

/// How deep parentheses, `!`, `exists` bodies and function arguments may
/// nest in one parsed formula (see the module docs).
pub const MAX_NESTING: usize = 256;

/// Tokens of the guard language.
#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    LParen,
    RParen,
    Comma,
    Dot,
    Eq,
    Neq,
    And,
    Or,
    Not,
    Infix(String),
}

fn tokenize(src: &str) -> Result<Vec<(usize, Tok)>, LogicError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                out.push((i, Tok::LParen));
                i += 1;
            }
            ')' => {
                out.push((i, Tok::RParen));
                i += 1;
            }
            ',' => {
                out.push((i, Tok::Comma));
                i += 1;
            }
            '.' => {
                out.push((i, Tok::Dot));
                i += 1;
            }
            '&' => {
                out.push((i, Tok::And));
                i += 1;
            }
            '|' => {
                out.push((i, Tok::Or));
                i += 1;
            }
            '=' => {
                out.push((i, Tok::Eq));
                i += 1;
            }
            '~' => {
                out.push((i, Tok::Infix("~".into())));
                i += 1;
            }
            '!' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push((i, Tok::Neq));
                    i += 2;
                } else {
                    out.push((i, Tok::Not));
                    i += 1;
                }
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push((i, Tok::Infix("<=".into())));
                    i += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1] == b'<' {
                    out.push((i, Tok::Infix("<<".into())));
                    i += 2;
                } else {
                    out.push((i, Tok::Infix("<".into())));
                    i += 1;
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric()
                        || bytes[i] == b'_'
                        || bytes[i] == b'\'')
                {
                    i += 1;
                }
                out.push((start, Tok::Ident(src[start..i].to_owned())));
            }
            other => {
                return Err(LogicError::Parse {
                    at: i,
                    msg: format!("unexpected character `{other}`"),
                })
            }
        }
    }
    Ok(out)
}

struct Parser<'a, R: Fn(&str) -> Option<Var>> {
    toks: Vec<(usize, Tok)>,
    pos: usize,
    schema: &'a Schema,
    resolve: R,
    /// Stack of (name, var) for quantifier-bound names.
    scope: Vec<(String, Var)>,
    next_fresh: u32,
    /// Nesting levels entered so far (at most [`MAX_NESTING`]).
    depth: usize,
}

impl<'a, R: Fn(&str) -> Option<Var>> Parser<'a, R> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(_, t)| t)
    }

    fn at(&self) -> usize {
        self.toks
            .get(self.pos)
            .map(|(i, _)| *i)
            .unwrap_or(usize::MAX)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(_, t)| t.clone());
        self.pos += 1;
        t
    }

    fn expect(&mut self, want: &Tok, what: &str) -> Result<(), LogicError> {
        let at = self.at();
        match self.bump() {
            Some(ref t) if t == want => Ok(()),
            other => Err(LogicError::Parse {
                at,
                msg: format!("expected {what}, found {other:?}"),
            }),
        }
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, LogicError> {
        Err(LogicError::Parse {
            at: self.at(),
            msg: msg.into(),
        })
    }

    /// Parses with `inner` one nesting level deeper.
    fn nested<T>(
        &mut self,
        inner: impl FnOnce(&mut Self) -> Result<T, LogicError>,
    ) -> Result<T, LogicError> {
        if self.depth == MAX_NESTING {
            return self.err(format!("nesting deeper than {MAX_NESTING} levels"));
        }
        self.depth += 1;
        let out = inner(self);
        self.depth -= 1;
        out
    }

    fn formula(&mut self) -> Result<Formula, LogicError> {
        let mut parts = vec![self.and_expr()?];
        while self.peek() == Some(&Tok::Or) {
            self.bump();
            parts.push(self.and_expr()?);
        }
        Ok(Formula::or(parts))
    }

    fn and_expr(&mut self) -> Result<Formula, LogicError> {
        let mut parts = vec![self.unary()?];
        while self.peek() == Some(&Tok::And) {
            self.bump();
            parts.push(self.unary()?);
        }
        Ok(Formula::and(parts))
    }

    fn unary(&mut self) -> Result<Formula, LogicError> {
        match self.peek() {
            Some(Tok::Not) => {
                self.bump();
                Ok(Formula::negate(self.nested(Self::unary)?))
            }
            Some(Tok::Ident(name)) if name == "exists" => {
                self.bump();
                let mut names = Vec::new();
                while let Some(Tok::Ident(n)) = self.peek() {
                    names.push(n.clone());
                    self.bump();
                }
                if names.is_empty() {
                    return self.err("`exists` needs at least one variable");
                }
                self.expect(&Tok::Dot, "`.` after exists variables")?;
                let depth = self.scope.len();
                let mut vars = Vec::with_capacity(names.len());
                for n in names {
                    let v = Var(self.next_fresh);
                    self.next_fresh += 1;
                    self.scope.push((n, v));
                    vars.push(v);
                }
                let body = self.nested(Self::formula)?;
                self.scope.truncate(depth);
                Ok(Formula::Exists(vars, Box::new(body)))
            }
            _ => self.primary(),
        }
    }

    fn primary(&mut self) -> Result<Formula, LogicError> {
        match self.peek().cloned() {
            Some(Tok::Ident(name)) if name == "true" => {
                self.bump();
                Ok(Formula::True)
            }
            Some(Tok::Ident(name)) if name == "false" => {
                self.bump();
                Ok(Formula::False)
            }
            Some(Tok::LParen) => {
                self.bump();
                let f = self.nested(Self::formula)?;
                self.expect(&Tok::RParen, "closing `)`")?;
                Ok(f)
            }
            Some(Tok::Ident(name)) => {
                // Relation atom `R(..)` takes priority when the name is a
                // relation symbol followed by `(`.
                let is_rel_app = self.lookup_relation(&name).is_some()
                    && self.toks.get(self.pos + 1).map(|(_, t)| t) == Some(&Tok::LParen)
                    && self.resolve_var(&name).is_none();
                if is_rel_app {
                    self.bump();
                    let rel = self.lookup_relation(&name).expect("checked above");
                    self.expect(&Tok::LParen, "`(`")?;
                    let args = self.term_list()?;
                    self.expect(&Tok::RParen, "closing `)`")?;
                    let want = self.schema.arity(rel);
                    if args.len() != want {
                        return Err(LogicError::Arity {
                            symbol: name,
                            expected: want,
                            got: args.len(),
                        });
                    }
                    return Ok(Formula::Rel(rel, args));
                }
                self.comparison()
            }
            _ => self.err("expected a formula"),
        }
    }

    fn comparison(&mut self) -> Result<Formula, LogicError> {
        let lhs = self.term()?;
        match self.bump() {
            Some(Tok::Eq) => Ok(Formula::Eq(lhs, self.term()?)),
            Some(Tok::Neq) => Ok(Formula::negate(Formula::Eq(lhs, self.term()?))),
            Some(Tok::Infix(op)) => {
                let rel = self
                    .lookup_relation(&op)
                    .ok_or_else(|| LogicError::Unresolved(op.clone()))?;
                if self.schema.arity(rel) != 2 {
                    return Err(LogicError::Arity {
                        symbol: op,
                        expected: self.schema.arity(rel),
                        got: 2,
                    });
                }
                let rhs = self.term()?;
                Ok(Formula::Rel(rel, vec![lhs, rhs]))
            }
            other => Err(LogicError::Parse {
                at: self.at(),
                msg: format!("expected `=`, `!=` or an infix relation, found {other:?}"),
            }),
        }
    }

    fn term_list(&mut self) -> Result<Vec<Term>, LogicError> {
        let mut out = Vec::new();
        if self.peek() == Some(&Tok::RParen) {
            return Ok(out);
        }
        out.push(self.term()?);
        while self.peek() == Some(&Tok::Comma) {
            self.bump();
            out.push(self.term()?);
        }
        Ok(out)
    }

    fn term(&mut self) -> Result<Term, LogicError> {
        let at = self.at();
        let name = match self.bump() {
            Some(Tok::Ident(n)) => n,
            other => {
                return Err(LogicError::Parse {
                    at,
                    msg: format!("expected a term, found {other:?}"),
                })
            }
        };
        // Function application?
        if self.peek() == Some(&Tok::LParen) {
            let f = match self.schema.lookup(&name) {
                Ok(id) if self.schema.kind(id) == SymbolKind::Function => id,
                Ok(_) => return Err(LogicError::Kind(name)),
                Err(_) => return Err(LogicError::Unresolved(name)),
            };
            self.bump();
            let args = self.nested(Self::term_list)?;
            self.expect(&Tok::RParen, "closing `)`")?;
            let want = self.schema.arity(f);
            if args.len() != want {
                return Err(LogicError::Arity {
                    symbol: name,
                    expected: want,
                    got: args.len(),
                });
            }
            return Ok(Term::App(f, args));
        }
        // Bound name, register variable, or constant symbol.
        if let Some(v) = self.resolve_var(&name) {
            return Ok(Term::Var(v));
        }
        match self.schema.lookup(&name) {
            Ok(id)
                if self.schema.kind(id) == SymbolKind::Function && self.schema.arity(id) == 0 =>
            {
                Ok(Term::App(id, Vec::new()))
            }
            _ => Err(LogicError::Unresolved(name)),
        }
    }

    fn resolve_var(&self, name: &str) -> Option<Var> {
        // Innermost binding wins; fall back to the caller's resolver.
        self.scope
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .or_else(|| (self.resolve)(name))
    }

    fn lookup_relation(&self, name: &str) -> Option<dds_structure::SymbolId> {
        match self.schema.lookup(name) {
            Ok(id) if self.schema.kind(id) == SymbolKind::Relation => Some(id),
            _ => None,
        }
    }
}

/// Parses a guard formula.
///
/// * `resolve` maps free variable names (e.g. `x_old`) to [`Var`] indices;
/// * quantifier-bound variables receive fresh indices `quantifier_base,
///   quantifier_base+1, ..` in order of appearance.
pub fn parse_formula(
    src: &str,
    schema: &Schema,
    resolve: impl Fn(&str) -> Option<Var>,
    quantifier_base: u32,
) -> Result<Formula, LogicError> {
    let toks = tokenize(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        schema,
        resolve,
        scope: Vec::new(),
        next_fresh: quantifier_base,
        depth: 0,
    };
    let f = p.formula()?;
    if p.pos != p.toks.len() {
        return Err(LogicError::Parse {
            at: p.at(),
            msg: "trailing input".into(),
        });
    }
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use dds_structure::{Element, Structure};

    fn graph_schema() -> std::sync::Arc<Schema> {
        let mut s = Schema::new();
        s.add_relation("E", 2).unwrap();
        s.add_relation("red", 1).unwrap();
        s.add_relation("<", 2).unwrap();
        s.add_function("cca", 2).unwrap();
        s.finish()
    }

    fn vars(name: &str) -> Option<Var> {
        match name {
            "x_old" => Some(Var(0)),
            "x_new" => Some(Var(1)),
            "y_old" => Some(Var(2)),
            "y_new" => Some(Var(3)),
            _ => None,
        }
    }

    #[test]
    fn parses_example1_guard() {
        let schema = graph_schema();
        let f = parse_formula(
            "x_old = x_new & E(y_old, y_new) & red(y_new)",
            &schema,
            vars,
            8,
        )
        .unwrap();
        assert!(f.is_quantifier_free());
        assert_eq!(f.free_vars(), vec![Var(0), Var(1), Var(2), Var(3)]);
    }

    #[test]
    fn parses_infix_and_neq() {
        let schema = graph_schema();
        let f = parse_formula("x_old < y_old & x_old != y_new", &schema, vars, 8).unwrap();
        assert_eq!(f.size(), 4); // And(rel, Not(eq)) = 1 + 1 + (1+1)
    }

    #[test]
    fn parses_function_terms() {
        let schema = graph_schema();
        let f = parse_formula("x_old = cca(x_new, y_new)", &schema, vars, 8).unwrap();
        match f {
            Formula::Eq(_, Term::App(_, args)) => assert_eq!(args.len(), 2),
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn parses_exists_with_scoping() {
        let schema = graph_schema();
        let f = parse_formula(
            "exists z w . E(x_old, z) & E(z, w) & red(w)",
            &schema,
            vars,
            8,
        )
        .unwrap();
        assert!(f.is_existential());
        assert!(!f.is_quantifier_free());
        assert_eq!(f.free_vars(), vec![Var(0)]);
        match &f {
            Formula::Exists(vs, _) => assert_eq!(vs, &[Var(8), Var(9)]),
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn precedence_or_and_not() {
        let schema = graph_schema();
        // !a & b | c  ==  ((!a) & b) | c
        let f = parse_formula("!red(x_old) & red(x_new) | red(y_old)", &schema, vars, 8).unwrap();
        match f {
            Formula::Or(parts) => {
                assert_eq!(parts.len(), 2);
                assert!(matches!(parts[0], Formula::And(_)));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn parse_errors_are_reported() {
        let schema = graph_schema();
        assert!(matches!(
            parse_formula("E(x_old)", &schema, vars, 8),
            Err(LogicError::Arity { .. })
        ));
        assert!(matches!(
            parse_formula("zzz = x_old", &schema, vars, 8),
            Err(LogicError::Unresolved(_))
        ));
        assert!(matches!(
            parse_formula("x_old = x_new &", &schema, vars, 8),
            Err(LogicError::Parse { .. })
        ));
        assert!(matches!(
            parse_formula("x_old = x_new x_old", &schema, vars, 8),
            Err(LogicError::Parse { .. })
        ));
    }

    #[test]
    fn parsed_formula_evaluates() {
        let schema = graph_schema();
        let e = schema.lookup("E").unwrap();
        let red = schema.lookup("red").unwrap();
        let lt = schema.lookup("<").unwrap();
        let cca = schema.lookup("cca").unwrap();
        let mut g = Structure::new(schema.clone(), 2);
        g.add_fact(e, &[Element(0), Element(1)]).unwrap();
        g.add_fact(red, &[Element(1)]).unwrap();
        g.add_fact(lt, &[Element(0), Element(1)]).unwrap();
        for a in 0..2u32 {
            for b in 0..2u32 {
                g.set_func(cca, &[Element(a), Element(b)], Element(a.min(b)))
                    .unwrap();
            }
        }
        let f = parse_formula(
            "E(x_old, y_old) & red(y_old) & x_old < y_old & cca(x_old, y_old) = x_old",
            &schema,
            vars,
            8,
        )
        .unwrap();
        let val = [Element(0), Element(0), Element(1), Element(1)];
        assert!(eval(&f, &g, &val).unwrap());
    }

    /// Each nesting construct is accepted up to [`MAX_NESTING`] levels and
    /// rejected one level deeper, and input far deeper than that is an
    /// error, not a stack overflow.
    #[test]
    fn nesting_is_bounded() {
        let schema = graph_schema();
        let parse = |src: &str| parse_formula(src, &schema, vars, 8);
        let nestings: [fn(usize) -> String; 4] = [
            |n| format!("{}x_old = x_new{}", "(".repeat(n), ")".repeat(n)),
            |n| format!("{}x_old = x_new", "!".repeat(n)),
            |n| format!("{}x_old = x_new", "exists z . ".repeat(n)),
            |n| format!("{}x_old{} = x_new", "cca(x_old, ".repeat(n), ")".repeat(n)),
        ];
        for nested in nestings {
            assert!(parse(&nested(MAX_NESTING)).is_ok(), "{}", nested(1));
            let err = parse(&nested(MAX_NESTING + 1)).unwrap_err();
            assert!(
                err.to_string()
                    .ends_with(&format!("nesting deeper than {MAX_NESTING} levels")),
                "{}: {err}",
                nested(1)
            );
        }
        assert!(parse(&nestings[0](20_000)).is_err());
    }
}
