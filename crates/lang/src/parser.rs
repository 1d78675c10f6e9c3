//! Recursive-descent parser for PARULEL source.

use crate::ast::*;
use crate::error::{LangError, Span};
use crate::lexer::lex;
use crate::token::{Tok, Token};
use parulel_core::expr::BinOp;

/// Deepest arithmetic expression nesting the parser accepts. Program
/// text reaches the daemon from clients (`open`, `reload`), and every
/// pass over an expression recurses, so a limit here bounds the stack
/// they all use. Like `json::MAX_DEPTH`, it is far beyond any real rule.
pub const MAX_DEPTH: usize = 128;

/// The parser. Construct with [`Parser::new`], consume with
/// [`Parser::parse_program`].
pub struct Parser {
    toks: Vec<Token>,
    pos: usize,
}

impl Parser {
    /// Lexes `src` and prepares a parser over it.
    pub fn new(src: &str) -> Result<Self, LangError> {
        Ok(Parser {
            toks: lex(src)?,
            pos: 0,
        })
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: &Tok) -> Result<(), LangError> {
        if self.peek() == want {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected '{want}', found '{}'", self.peek())))
        }
    }

    fn err(&self, msg: impl Into<String>) -> LangError {
        LangError::new(msg, self.span())
    }

    fn sym(&mut self, what: &str) -> Result<String, LangError> {
        match self.peek().clone() {
            Tok::Sym(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected {what}, found '{other}'"))),
        }
    }

    fn attr(&mut self) -> Result<String, LangError> {
        match self.peek().clone() {
            Tok::Attr(a) => {
                self.bump();
                Ok(a)
            }
            other => Err(self.err(format!("expected ^attribute, found '{other}'"))),
        }
    }

    fn small_int(&mut self, what: &str) -> Result<u8, LangError> {
        match *self.peek() {
            Tok::Int(i) if (1..=255).contains(&i) => {
                self.bump();
                Ok(i as u8)
            }
            ref other => Err(self.err(format!("expected {what} (1..255), found '{other}'"))),
        }
    }

    /// Parses a whole program (to EOF).
    pub fn parse_program(&mut self) -> Result<SrcProgram, LangError> {
        let mut decls = Vec::new();
        while *self.peek() != Tok::Eof {
            decls.push(self.decl()?);
        }
        Ok(SrcProgram { decls })
    }

    fn decl(&mut self) -> Result<Decl, LangError> {
        let span = self.span();
        self.expect(&Tok::LParen)?;
        let head = self.sym("'literalize', 'p' or 'mp'")?;
        let decl = match head.as_str() {
            "literalize" => {
                let name = self.sym("class name")?;
                let mut attrs = Vec::new();
                while let Tok::Sym(_) = self.peek() {
                    attrs.push(self.sym("attribute")?);
                }
                Decl::Literalize { name, attrs, span }
            }
            "p" => Decl::Rule(self.rule_body(span)?),
            "mp" => Decl::Meta(self.meta_body(span)?),
            "wm" => {
                let mut facts = Vec::new();
                while *self.peek() == Tok::LParen {
                    facts.push(self.pattern()?);
                }
                if facts.is_empty() {
                    return Err(LangError::new("empty (wm …) block", span));
                }
                Decl::WmFacts { facts, span }
            }
            other => return Err(self.err(format!("unknown declaration '{other}'"))),
        };
        self.expect(&Tok::RParen)?;
        Ok(decl)
    }

    fn rule_body(&mut self, span: Span) -> Result<AstRule, LangError> {
        let name = self.sym("rule name")?;
        let mut ces = Vec::new();
        loop {
            match self.peek() {
                Tok::Arrow => {
                    self.bump();
                    break;
                }
                Tok::Minus => {
                    self.bump();
                    let mut pat = self.pattern()?;
                    pat.negated = true;
                    ces.push(Ce::Pattern(pat));
                }
                Tok::LParen => {
                    if self.lookahead_is_test() {
                        ces.push(Ce::Test(self.test_ce()?));
                    } else {
                        ces.push(Ce::Pattern(self.pattern()?));
                    }
                }
                other => {
                    return Err(self.err(format!(
                        "expected condition element or -->, found '{other}'"
                    )))
                }
            }
        }
        if ces.is_empty() {
            return Err(LangError::new(
                format!("rule {name} has an empty LHS"),
                span,
            ));
        }
        let mut actions = Vec::new();
        while *self.peek() == Tok::LParen {
            actions.push(self.action()?);
        }
        Ok(AstRule {
            name,
            ces,
            actions,
            span,
        })
    }

    /// Looks past a `(` to see if the next token is the `test` keyword.
    fn lookahead_is_test(&self) -> bool {
        matches!(
            self.toks.get(self.pos + 1).map(|t| &t.tok),
            Some(Tok::Sym(s)) if s == "test"
        )
    }

    fn test_ce(&mut self) -> Result<AstTest, LangError> {
        let span = self.span();
        self.expect(&Tok::LParen)?;
        let kw = self.sym("'test'")?;
        debug_assert_eq!(kw, "test");
        let test = self.test_expr(span)?;
        self.expect(&Tok::RParen)?;
        Ok(test)
    }

    /// `(PRED expr expr)` — the comparison form shared by object-level and
    /// meta-level `test` CEs.
    fn test_expr(&mut self, span: Span) -> Result<AstTest, LangError> {
        self.expect(&Tok::LParen)?;
        let op = match self.bump() {
            Tok::Pred(op) => op,
            other => {
                return Err(LangError::new(
                    format!("expected comparison operator, found '{other}'"),
                    span,
                ))
            }
        };
        let lhs = self.expr()?;
        let rhs = self.expr()?;
        self.expect(&Tok::RParen)?;
        Ok(AstTest { op, lhs, rhs, span })
    }

    fn pattern(&mut self) -> Result<PatternCe, LangError> {
        let span = self.span();
        self.expect(&Tok::LParen)?;
        let class = self.sym("class name")?;
        let mut attrs = Vec::new();
        while let Tok::Attr(_) = self.peek() {
            let attr = self.attr()?;
            attrs.push(AttrSpec {
                attr,
                restrictions: self.restrictions()?,
            });
        }
        self.expect(&Tok::RParen)?;
        Ok(PatternCe {
            negated: false,
            class,
            attrs,
            span,
        })
    }

    fn restrictions(&mut self) -> Result<Vec<Restriction>, LangError> {
        match self.peek().clone() {
            Tok::LBrace => {
                self.bump();
                let mut rs = Vec::new();
                while *self.peek() != Tok::RBrace {
                    rs.push(self.one_restriction()?);
                }
                self.bump(); // RBrace
                if rs.is_empty() {
                    return Err(self.err("empty restriction block {}"));
                }
                Ok(rs)
            }
            Tok::LDisj => {
                self.bump();
                let mut cs = Vec::new();
                while *self.peek() != Tok::RDisj {
                    cs.push(self.constant()?);
                }
                self.bump(); // RDisj
                if cs.is_empty() {
                    return Err(self.err("empty disjunction <<>>"));
                }
                Ok(vec![Restriction::OneOf(cs)])
            }
            _ => Ok(vec![self.one_restriction()?]),
        }
    }

    fn one_restriction(&mut self) -> Result<Restriction, LangError> {
        // A disjunction may appear inside a brace conjunction:
        // `^x { << a b >> <v> }`.
        if *self.peek() == Tok::LDisj {
            self.bump();
            let mut cs = Vec::new();
            while *self.peek() != Tok::RDisj {
                cs.push(self.constant()?);
            }
            self.bump(); // RDisj
            if cs.is_empty() {
                return Err(self.err("empty disjunction <<>>"));
            }
            return Ok(Restriction::OneOf(cs));
        }
        let op = match self.peek() {
            Tok::Pred(op) => {
                let op = *op;
                self.bump();
                op
            }
            _ => parulel_core::expr::PredOp::Eq,
        };
        let term = self.term()?;
        Ok(Restriction::Cmp(op, term))
    }

    fn constant(&mut self) -> Result<Const, LangError> {
        match self.bump() {
            Tok::Sym(s) => Ok(Const::Sym(s)),
            Tok::Str(s) => Ok(Const::Sym(s)),
            Tok::Int(i) => Ok(Const::Int(i)),
            Tok::Float(f) => Ok(Const::Float(f)),
            other => Err(self.err(format!("expected constant, found '{other}'"))),
        }
    }

    fn term(&mut self) -> Result<Term, LangError> {
        match self.peek().clone() {
            Tok::Var(v) => {
                self.bump();
                Ok(Term::Var(v))
            }
            _ => Ok(Term::Const(self.constant()?)),
        }
    }

    fn expr(&mut self) -> Result<AstExpr, LangError> {
        self.expr_at(0)
    }

    /// Parses an expression inside `depth` enclosing arithmetic forms.
    fn expr_at(&mut self, depth: usize) -> Result<AstExpr, LangError> {
        if *self.peek() != Tok::LParen {
            return Ok(AstExpr::Term(self.term()?));
        }
        if depth == MAX_DEPTH {
            return Err(self.err(format!("expression nesting deeper than {MAX_DEPTH}")));
        }
        self.bump(); // LParen
        let op = match self.bump() {
            Tok::Sym(s) => match s.as_str() {
                "+" => BinOp::Add,
                "*" => BinOp::Mul,
                "//" => BinOp::Div,
                "mod" => BinOp::Mod,
                other => return Err(self.err(format!("unknown operator '{other}'"))),
            },
            Tok::Minus => BinOp::Sub,
            other => return Err(self.err(format!("expected arithmetic operator, found '{other}'"))),
        };
        let lhs = self.expr_at(depth + 1)?;
        let rhs = self.expr_at(depth + 1)?;
        self.expect(&Tok::RParen)?;
        Ok(AstExpr::Bin(op, Box::new(lhs), Box::new(rhs)))
    }

    fn action(&mut self) -> Result<AstAction, LangError> {
        let span = self.span();
        self.expect(&Tok::LParen)?;
        let head = self.sym("action keyword")?;
        let action = match head.as_str() {
            "make" => {
                let class = self.sym("class name")?;
                AstAction::Make {
                    class,
                    sets: self.attr_exprs()?,
                    span,
                }
            }
            "remove" => AstAction::Remove {
                ce: self.small_int("CE designator")?,
                span,
            },
            "modify" => {
                let ce = self.small_int("CE designator")?;
                AstAction::Modify {
                    ce,
                    sets: self.attr_exprs()?,
                    span,
                }
            }
            "bind" => {
                let var = match self.bump() {
                    Tok::Var(v) => v,
                    other => return Err(self.err(format!("expected <var>, found '{other}'"))),
                };
                AstAction::Bind {
                    var,
                    expr: self.expr()?,
                    span,
                }
            }
            "write" => {
                let mut exprs = Vec::new();
                while *self.peek() != Tok::RParen {
                    exprs.push(self.expr()?);
                }
                AstAction::Write { exprs, span }
            }
            "halt" => AstAction::Halt { span },
            other => return Err(self.err(format!("unknown action '{other}'"))),
        };
        self.expect(&Tok::RParen)?;
        Ok(action)
    }

    fn attr_exprs(&mut self) -> Result<Vec<(String, AstExpr)>, LangError> {
        let mut sets = Vec::new();
        while let Tok::Attr(_) = self.peek() {
            let attr = self.attr()?;
            sets.push((attr, self.expr()?));
        }
        Ok(sets)
    }

    fn meta_body(&mut self, span: Span) -> Result<AstMeta, LangError> {
        let name = self.sym("meta-rule name")?;
        let mut ces = Vec::new();
        loop {
            match self.peek() {
                Tok::Arrow => {
                    self.bump();
                    break;
                }
                Tok::LParen => {
                    if self.lookahead_is_test() {
                        ces.push(MetaCeAst::Test(self.test_ce()?));
                    } else {
                        ces.push(self.inst_ce()?);
                    }
                }
                other => return Err(self.err(format!("expected inst CE or -->, found '{other}'"))),
            }
        }
        if !ces.iter().any(|ce| matches!(ce, MetaCeAst::Inst { .. })) {
            return Err(LangError::new(
                format!("meta-rule {name} has no inst condition element"),
                span,
            ));
        }
        let mut redacts = Vec::new();
        while *self.peek() == Tok::LParen {
            let rspan = self.span();
            self.bump();
            let kw = self.sym("'redact'")?;
            if kw != "redact" {
                return Err(LangError::new(
                    format!("meta-rules only support (redact k) actions, found '{kw}'"),
                    rspan,
                ));
            }
            redacts.push(self.small_int("inst CE designator")?);
            self.expect(&Tok::RParen)?;
        }
        if redacts.is_empty() {
            return Err(LangError::new(
                format!("meta-rule {name} has no redact action"),
                span,
            ));
        }
        Ok(AstMeta {
            name,
            ces,
            redacts,
            span,
        })
    }

    fn inst_ce(&mut self) -> Result<MetaCeAst, LangError> {
        let span = self.span();
        self.expect(&Tok::LParen)?;
        let kw = self.sym("'inst'")?;
        if kw != "inst" {
            return Err(LangError::new(
                format!("expected 'inst' or 'test' in meta-rule LHS, found '{kw}'"),
                span,
            ));
        }
        let rule = self.sym("object rule name")?;
        let mut pats = Vec::new();
        loop {
            match self.peek() {
                Tok::Wild => {
                    self.bump();
                    pats.push(MetaPat::Wild);
                }
                Tok::LParen => pats.push(MetaPat::Pattern(self.pattern()?)),
                _ => break,
            }
        }
        self.expect(&Tok::RParen)?;
        Ok(MetaCeAst::Inst { rule, pats, span })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parulel_core::expr::PredOp;

    fn parse(src: &str) -> SrcProgram {
        Parser::new(src).unwrap().parse_program().unwrap()
    }

    #[test]
    fn literalize() {
        let p = parse("(literalize job id len)");
        let (name, attrs) = p.literalizes().next().unwrap();
        assert_eq!(name, "job");
        assert_eq!(attrs, ["id".to_string(), "len".to_string()]);
    }

    #[test]
    fn simple_rule() {
        let p = parse(
            "(literalize a x)
             (p r (a ^x <v>) --> (remove 1))",
        );
        let r = p.rules().next().unwrap();
        assert_eq!(r.name, "r");
        assert_eq!(r.ces.len(), 1);
        assert_eq!(
            r.actions,
            vec![AstAction::Remove {
                ce: 1,
                span: r.actions[0].clone().span_of()
            }]
        );
    }

    impl AstAction {
        fn span_of(self) -> Span {
            match self {
                AstAction::Make { span, .. }
                | AstAction::Remove { span, .. }
                | AstAction::Modify { span, .. }
                | AstAction::Bind { span, .. }
                | AstAction::Write { span, .. }
                | AstAction::Halt { span } => span,
            }
        }
    }

    #[test]
    fn negated_and_test_ces() {
        let p = parse("(p r (a ^x <v>) -(b ^y <v>) (test (> <v> 3)) --> (halt))");
        let r = p.rules().next().unwrap();
        assert_eq!(r.ces.len(), 3);
        match &r.ces[1] {
            Ce::Pattern(pat) => assert!(pat.negated),
            other => panic!("expected pattern, got {other:?}"),
        }
        match &r.ces[2] {
            Ce::Test(t) => assert_eq!(t.op, PredOp::Gt),
            other => panic!("expected test, got {other:?}"),
        }
    }

    #[test]
    fn restriction_forms() {
        let p =
            parse("(p r (a ^x pending ^y > 3 ^z { > 0 <= <max> } ^w << red green >>) --> (halt))");
        let r = p.rules().next().unwrap();
        let Ce::Pattern(pat) = &r.ces[0] else {
            panic!()
        };
        assert_eq!(pat.attrs.len(), 4);
        assert_eq!(
            pat.attrs[0].restrictions,
            vec![Restriction::Cmp(
                PredOp::Eq,
                Term::Const(Const::Sym("pending".into()))
            )]
        );
        assert_eq!(
            pat.attrs[1].restrictions,
            vec![Restriction::Cmp(PredOp::Gt, Term::Const(Const::Int(3)))]
        );
        assert_eq!(pat.attrs[2].restrictions.len(), 2);
        assert_eq!(
            pat.attrs[3].restrictions,
            vec![Restriction::OneOf(vec![
                Const::Sym("red".into()),
                Const::Sym("green".into())
            ])]
        );
    }

    #[test]
    fn actions_full_set() {
        let p = parse(
            "(p r (a ^x <v>) -->
               (make b ^y (+ <v> 1))
               (modify 1 ^x (- <v> 1))
               (bind <w> (* <v> 2))
               (write \"value:\" <w>)
               (halt))",
        );
        let r = p.rules().next().unwrap();
        assert_eq!(r.actions.len(), 5);
        match &r.actions[0] {
            AstAction::Make { class, sets, .. } => {
                assert_eq!(class, "b");
                assert!(matches!(sets[0].1, AstExpr::Bin(BinOp::Add, _, _)));
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(&r.actions[2], AstAction::Bind { var, .. } if var == "w"));
    }

    #[test]
    fn meta_rule() {
        let p = parse(
            "(mp prefer
               (inst sched (job ^len <l1>) _)
               (inst sched (job ^len <l2>))
               (test (> <l1> <l2>))
              -->
               (redact 1))",
        );
        let m = p.metas().next().unwrap();
        assert_eq!(m.name, "prefer");
        assert_eq!(m.ces.len(), 3);
        match &m.ces[0] {
            MetaCeAst::Inst { rule, pats, .. } => {
                assert_eq!(rule, "sched");
                assert_eq!(pats.len(), 2);
                assert!(matches!(pats[1], MetaPat::Wild));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(m.redacts, vec![1]);
    }

    #[test]
    fn nested_arithmetic() {
        let p = parse("(p r (a ^x <v>) --> (make a ^x (+ (* <v> 2) (mod <v> 3))))");
        let r = p.rules().next().unwrap();
        let AstAction::Make { sets, .. } = &r.actions[0] else {
            panic!()
        };
        match &sets[0].1 {
            AstExpr::Bin(BinOp::Add, l, r) => {
                assert!(matches!(**l, AstExpr::Bin(BinOp::Mul, _, _)));
                assert!(matches!(**r, AstExpr::Bin(BinOp::Mod, _, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_errors() {
        // empty LHS
        assert!(Parser::new("(p r --> (halt))")
            .unwrap()
            .parse_program()
            .is_err());
        // meta without redact
        assert!(Parser::new("(mp m (inst r) -->)")
            .unwrap()
            .parse_program()
            .is_err());
        // meta without inst
        assert!(Parser::new("(mp m (test (> 1 0)) --> (redact 1))")
            .unwrap()
            .parse_program()
            .is_err());
        // unknown action
        assert!(Parser::new("(p r (a) --> (explode))")
            .unwrap()
            .parse_program()
            .is_err());
        // unknown declaration
        assert!(Parser::new("(q r)").unwrap().parse_program().is_err());
        // CE designator zero
        assert!(Parser::new("(p r (a) --> (remove 0))")
            .unwrap()
            .parse_program()
            .is_err());
    }

    #[test]
    fn expression_nesting_is_limited_without_exhausting_the_stack() {
        let nested = |depth: usize| {
            format!(
                "(p r (a ^x <v>) --> (make a ^x {}<v>{}))",
                "(+ 1 ".repeat(depth),
                ")".repeat(depth)
            )
        };
        assert!(Parser::new(&nested(MAX_DEPTH))
            .unwrap()
            .parse_program()
            .is_ok());
        let err = Parser::new(&nested(200_000))
            .unwrap()
            .parse_program()
            .unwrap_err();
        // The first parenthesis past the limit: the `(+ 1 ` prefix is 5
        // columns wide and starts at column 32.
        assert_eq!(err.span, Span::new(1, 32 + 5 * MAX_DEPTH as u32));
        assert!(err.msg.contains("deeper than 128"), "{err}");
    }

    #[test]
    fn error_carries_location() {
        let err = Parser::new("(p r\n  (a ^x })")
            .unwrap()
            .parse_program()
            .unwrap_err();
        assert_eq!(err.span.line, 2);
    }
}
