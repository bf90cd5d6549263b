//! Recursive-descent parser for the surface syntax.
//!
//! Every [`Expr`] node the parser builds carries the byte [`Span`] of the
//! source text it was parsed from (`expr.span`), so the type checker and the
//! evaluator can point their errors back into the query string. Parse errors
//! themselves are located the same way: [`ParseError::Unexpected`] names the
//! byte span of the offending token (or the end-of-input position), matching
//! the lexer's byte-offset convention.
//!
//! The parser also bounds the depth of the *tree* a text denotes, because
//! every pass behind it (typecheck, analysis, rewriting, printing, evaluation,
//! `Drop`) recurses on that tree: `MAX_DEPTH` nesting levels plus
//! `MAX_UNION_LINKS` chained `union`s. The latter is sized for optimized
//! builds, where the daemon runs; unoptimized ones overflow ~14× earlier
//! (≈ 93 links on a 2 MiB stack against ≈ 1 300), so debug builds are covered
//! only up to what the test suites exercise.

use crate::lexer::{tokenize, LexError, SpannedToken, Token};
use ncql_core::span::Span;
use ncql_core::Expr;
use ncql_object::Type;
use std::fmt;

/// Maximum nesting depth of expressions (and of types) the parser accepts:
/// every bracketed, prefixed or binder-bodied subexpression is one level.
/// Like `ncql_serve::json`'s `MAX_DEPTH` it is a constant, well above
/// anything legitimate (the deepest text in the corpus and the test suites
/// nests 18 levels) and below stack exhaustion of the passes downstream (see
/// the module docs) — hence lower than the JSON reader's 128: unoptimized,
/// the type checker alone overflows a 2 MiB stack between 70 and 80 levels.
const MAX_DEPTH: usize = 48;

/// Maximum number of `union` links in one text. `a union b union …` is
/// parsed by a loop, so [`MAX_DEPTH`] never sees it, yet every link wraps the
/// tree one level deeper. Counted per text, not per chain (48 nested chains
/// would multiply), so no parsed tree is deeper than the two limits together:
/// under half of the ≈ 1 300 links at which the first downstream pass
/// overflows a 2 MiB stack in a release build.
const MAX_UNION_LINKS: usize = 512;

/// A parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The tokenizer failed.
    Lex(LexError),
    /// An unexpected token (or end of input) was encountered.
    Unexpected {
        /// Byte span of the offending token in the source text; an empty span
        /// at the end of the input when the input ended too early.
        span: Span,
        /// What was found (`None` = end of input).
        found: Option<Token>,
        /// What was expected.
        expected: String,
    },
    /// The text nests expressions (or types) deeper than the parser accepts,
    /// or chains more `union`s.
    TooDeep {
        /// Byte span of the first token of the subexpression (or type) one
        /// level past the limit, or of the `union` one link past it.
        span: Span,
        /// The limit that was exceeded.
        limit: usize,
    },
}

impl ParseError {
    /// The byte span of the failure — the offending token's span, or the
    /// lexical error's span. Always within the source text.
    pub fn span(&self) -> Span {
        match self {
            ParseError::Lex(e) => e.span,
            ParseError::Unexpected { span, .. } | ParseError::TooDeep { span, .. } => *span,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "{e}"),
            ParseError::Unexpected {
                span,
                found,
                expected,
            } => match found {
                Some(t) => write!(
                    f,
                    "parse error at byte {}: expected {expected}, found `{t}`",
                    span.start
                ),
                None => write!(
                    f,
                    "parse error at byte {}: expected {expected}, found end of input",
                    span.start
                ),
            },
            ParseError::TooDeep { span, limit } => write!(
                f,
                "parse error at byte {}: nesting deeper than {limit} levels",
                span.start
            ),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> ParseError {
        ParseError::Lex(e)
    }
}

struct Parser {
    tokens: Vec<SpannedToken>,
    pos: usize,
    /// Byte length of the source text: the position reported for unexpected
    /// end of input.
    eof: usize,
    /// Current nesting depth (see [`MAX_DEPTH`]).
    depth: usize,
    /// `union` links consumed so far (see [`MAX_UNION_LINKS`]).
    union_links: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|t| &t.token)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|t| t.token.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Byte offset where the *next* token starts (end of input if exhausted).
    /// Capture this before parsing a construct; together with
    /// [`Parser::prev_end`] it brackets the construct's span.
    fn current_start(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|t| t.span.start)
            .unwrap_or(self.eof)
    }

    /// Byte offset just past the most recently consumed token.
    fn prev_end(&self) -> usize {
        if self.pos == 0 {
            0
        } else {
            self.tokens[self.pos - 1].span.end
        }
    }

    /// The span of the construct that began at byte `start` and ended with
    /// the last consumed token.
    fn span_from(&self, start: usize) -> Span {
        Span::new(start, self.prev_end().max(start))
    }

    /// The span of the current token — or an empty span at end of input.
    fn here(&self) -> Span {
        self.tokens
            .get(self.pos)
            .map(|t| t.span)
            .unwrap_or_else(|| Span::point(self.eof))
    }

    fn unexpected<T>(&self, expected: &str) -> Result<T, ParseError> {
        Err(ParseError::Unexpected {
            span: self.here(),
            found: self.peek().cloned(),
            expected: expected.to_string(),
        })
    }

    fn expect(&mut self, token: &Token) -> Result<(), ParseError> {
        if self.peek() == Some(token) {
            self.pos += 1;
            Ok(())
        } else {
            self.unexpected(&format!("`{token}`"))
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.peek().cloned() {
            Some(Token::Ident(s)) => {
                self.pos += 1;
                Ok(s)
            }
            _ => self.unexpected("an identifier"),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.peek() {
            Some(Token::Ident(s)) if s == kw => {
                self.pos += 1;
                Ok(())
            }
            _ => self.unexpected(&format!("keyword `{kw}`")),
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s == kw)
    }

    /// Run `parse` one nesting level down, refusing to pass [`MAX_DEPTH`].
    /// Every recursion cycle of the grammar goes through here, so the depth
    /// budget is enforced before the stack is.
    fn nested<T>(
        &mut self,
        parse: fn(&mut Parser) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(ParseError::TooDeep {
                span: self.here(),
                limit: MAX_DEPTH,
            });
        }
        self.depth += 1;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    // ----- types -----

    fn parse_type(&mut self) -> Result<Type, ParseError> {
        self.nested(Parser::type_body)
    }

    fn type_body(&mut self) -> Result<Type, ParseError> {
        match self.next() {
            Some(Token::Ident(s)) => match s.as_str() {
                "atom" => Ok(Type::Base),
                "bool" => Ok(Type::Bool),
                "unit" => Ok(Type::Unit),
                "nat" => Ok(Type::Nat),
                _ => {
                    self.pos -= 1;
                    self.unexpected("a type (atom, bool, unit, nat, {..}, (..))")
                }
            },
            Some(Token::LBrace) => {
                let inner = self.parse_type()?;
                self.expect(&Token::RBrace)?;
                Ok(Type::set(inner))
            }
            Some(Token::LParen) => {
                let left = self.parse_type()?;
                match self.next() {
                    Some(Token::Star) => {
                        let right = self.parse_type()?;
                        self.expect(&Token::RParen)?;
                        Ok(Type::prod(left, right))
                    }
                    Some(Token::Arrow) => {
                        let right = self.parse_type()?;
                        self.expect(&Token::RParen)?;
                        Ok(Type::fun(left, right))
                    }
                    Some(Token::RParen) => Ok(left),
                    _ => {
                        self.pos -= 1;
                        self.unexpected("`*`, `->` or `)` in a type")
                    }
                }
            }
            _ => {
                if self.pos > 0 {
                    self.pos -= 1;
                }
                self.unexpected("a type")
            }
        }
    }

    // ----- expressions -----

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(Parser::expr_body)
    }

    fn expr_body(&mut self) -> Result<Expr, ParseError> {
        let start = self.current_start();
        if self.peek() == Some(&Token::Backslash) {
            self.pos += 1;
            let name = self.expect_ident()?;
            self.expect(&Token::Colon)?;
            let ty = self.parse_type()?;
            self.expect(&Token::Dot)?;
            let body = self.parse_expr()?;
            return Ok(Expr::lam(name, ty, body).at(self.span_from(start)));
        }
        if self.peek_keyword("let") {
            self.pos += 1;
            let name = self.expect_ident()?;
            self.expect(&Token::Equals)?;
            let bound = self.parse_expr()?;
            self.expect_keyword("in")?;
            let body = self.parse_expr()?;
            return Ok(Expr::let_in(name, bound, body).at(self.span_from(start)));
        }
        if self.peek_keyword("if") {
            self.pos += 1;
            let c = self.parse_expr()?;
            self.expect_keyword("then")?;
            let t = self.parse_expr()?;
            self.expect_keyword("else")?;
            let e = self.parse_expr()?;
            return Ok(Expr::ite(c, t, e).at(self.span_from(start)));
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> Result<Expr, ParseError> {
        let start = self.current_start();
        let left = self.parse_union()?;
        let compare = match self.peek() {
            Some(Token::Equals) => Expr::eq,
            Some(Token::Leq) => Expr::leq,
            _ => return Ok(left),
        };
        self.pos += 1;
        let right = self.parse_union()?;
        Ok(compare(left, right).at(self.span_from(start)))
    }

    fn parse_union(&mut self) -> Result<Expr, ParseError> {
        let start = self.current_start();
        let mut left = self.parse_primary()?;
        while self.peek_keyword("union") {
            // Refused before the link is built: the dropped tree is bounded too.
            if self.union_links == MAX_UNION_LINKS {
                return Err(ParseError::TooDeep {
                    span: self.here(),
                    limit: MAX_UNION_LINKS,
                });
            }
            self.union_links += 1;
            self.pos += 1;
            let right = self.parse_primary()?;
            left = Expr::union(left, right).at(self.span_from(start));
        }
        Ok(left)
    }

    fn parse_args(&mut self, count: usize) -> Result<Vec<Expr>, ParseError> {
        self.expect(&Token::LParen)?;
        let mut args = Vec::with_capacity(count);
        for i in 0..count {
            if i > 0 {
                self.expect(&Token::Comma)?;
            }
            args.push(self.parse_expr()?);
        }
        self.expect(&Token::RParen)?;
        Ok(args)
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        let start = self.current_start();
        let expr = match self.next() {
            Some(Token::Number(n)) => Expr::nat(n),
            Some(Token::AtomLit(n)) => Expr::atom(n),
            Some(Token::LBrace) => {
                let inner = self.parse_expr()?;
                self.expect(&Token::RBrace)?;
                Expr::singleton(inner)
            }
            Some(Token::LParen) => {
                if self.peek() == Some(&Token::RParen) {
                    self.pos += 1;
                    return Ok(Expr::unit().at(self.span_from(start)));
                }
                let first = self.parse_expr()?;
                match self.next() {
                    Some(Token::Comma) => {
                        let second = self.parse_expr()?;
                        self.expect(&Token::RParen)?;
                        Expr::pair(first, second)
                    }
                    // A parenthesised expression keeps its own (inner) span.
                    Some(Token::RParen) => return Ok(first),
                    _ => {
                        self.pos -= 1;
                        return self.unexpected("`,` or `)`");
                    }
                }
            }
            Some(Token::Ident(name)) => self.parse_ident_form(name)?,
            _ => {
                if self.pos > 0 {
                    self.pos -= 1;
                }
                return self.unexpected("an expression");
            }
        };
        Ok(expr.at(self.span_from(start)))
    }

    fn parse_ident_form(&mut self, name: String) -> Result<Expr, ParseError> {
        match name.as_str() {
            "true" => Ok(Expr::bool_val(true)),
            "false" => Ok(Expr::bool_val(false)),
            "unit" => Ok(Expr::unit()),
            // The one cycle that bypasses `parse_expr`: `pi1 pi1 pi1 …`.
            "pi1" => Ok(Expr::proj1(self.nested(Parser::parse_primary)?)),
            "pi2" => Ok(Expr::proj2(self.nested(Parser::parse_primary)?)),
            "empty" => {
                self.expect(&Token::LBracket)?;
                let ty = self.parse_type()?;
                self.expect(&Token::RBracket)?;
                Ok(Expr::empty(ty))
            }
            "isempty" => {
                let mut a = self.parse_args(1)?;
                Ok(Expr::is_empty(a.remove(0)))
            }
            "ext" => {
                let mut a = self.parse_args(2)?;
                let e = a.remove(1);
                let f = a.remove(0);
                Ok(Expr::ext(f, e))
            }
            "apply" => {
                let mut a = self.parse_args(2)?;
                let arg = a.remove(1);
                let f = a.remove(0);
                Ok(Expr::app(f, arg))
            }
            _ => {
                let spells = |e: &&Expr| e.kind.form().is_some_and(|f| f.keyword() == name);
                // A recursion form takes its operands in `children` order;
                // otherwise an extern call if followed by '(', else a variable.
                if let Some(form) = Expr::recursion_forms().iter().find(spells) {
                    let operands = self.parse_args(form.children().len())?;
                    Ok(form.with_children(operands))
                } else if self.peek() == Some(&Token::LParen) {
                    self.pos += 1;
                    let mut args = Vec::new();
                    if self.peek() != Some(&Token::RParen) {
                        loop {
                            args.push(self.parse_expr()?);
                            if self.peek() == Some(&Token::Comma) {
                                self.pos += 1;
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(&Token::RParen)?;
                    Ok(Expr::extern_call(name, args))
                } else {
                    Ok(Expr::var(name))
                }
            }
        }
    }
}

/// Parse the whole of `text` with `parse`, refusing trailing tokens.
fn parse_complete<T>(
    text: &str,
    parse: fn(&mut Parser) -> Result<T, ParseError>,
) -> Result<T, ParseError> {
    let mut parser = Parser {
        tokens: tokenize(text)?,
        pos: 0,
        eof: text.len(),
        depth: 0,
        union_links: 0,
    };
    let parsed = parse(&mut parser)?;
    if parser.pos != parser.tokens.len() {
        return parser.unexpected("end of input");
    }
    Ok(parsed)
}

/// Parse a complete expression from surface text. Every node of the result
/// carries the byte span of the text it was parsed from.
pub fn parse_expr(text: &str) -> Result<Expr, ParseError> {
    parse_complete(text, Parser::parse_expr)
}

/// Parse a type from surface text.
pub fn parse_type(text: &str) -> Result<Type, ParseError> {
    parse_complete(text, Parser::parse_type)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncql_core::eval::eval_closed;
    use ncql_core::typecheck::typecheck_closed;
    use ncql_core::ExprKind;
    use ncql_object::Value;

    #[test]
    fn parses_types() {
        assert_eq!(parse_type("atom").unwrap(), Type::Base);
        assert_eq!(
            parse_type("{(atom * atom)}").unwrap(),
            Type::binary_relation()
        );
        assert_eq!(
            parse_type("(atom -> {bool})").unwrap(),
            Type::fun(Type::Base, Type::set(Type::Bool))
        );
        assert!(parse_type("notatype!").is_err());
    }

    #[test]
    fn parses_literals_and_operators() {
        assert_eq!(parse_expr("true").unwrap(), Expr::bool_val(true));
        assert_eq!(parse_expr("@7").unwrap(), Expr::atom(7));
        assert_eq!(parse_expr("7").unwrap(), Expr::nat(7));
        assert_eq!(
            parse_expr("{@1} union {@2}").unwrap(),
            Expr::union(
                Expr::singleton(Expr::atom(1)),
                Expr::singleton(Expr::atom(2))
            )
        );
        assert_eq!(
            parse_expr("@1 <= @2").unwrap(),
            Expr::leq(Expr::atom(1), Expr::atom(2))
        );
    }

    #[test]
    fn parses_lambda_let_if() {
        let e = parse_expr("\\x: atom. if x = @1 then {x} else empty[atom]").unwrap();
        assert!(matches!(e.kind, ExprKind::Lam(_, _, _)));
        let l = parse_expr("let r = {@1} in r union r").unwrap();
        assert_eq!(eval_closed(&l).unwrap(), Value::atom_set(vec![1]));
    }

    #[test]
    fn parses_and_evaluates_parity_query() {
        let text = "dcr(false, \\y: atom. true, \\p: (bool * bool). \
                    if pi1 p then (if pi2 p then false else true) else pi2 p, \
                    {@1} union {@2} union {@3})";
        let e = parse_expr(text).unwrap();
        assert!(typecheck_closed(&e).is_ok());
        assert_eq!(eval_closed(&e).unwrap(), Value::Bool(true));
    }

    #[test]
    fn parses_ext_and_iterators() {
        let e = parse_expr("ext(\\x: atom. {(x, x)}, {@1} union {@2})").unwrap();
        assert_eq!(
            eval_closed(&e).unwrap(),
            Value::relation_from_pairs(vec![(1, 1), (2, 2)])
        );
        let l =
            parse_expr("logloop(\\r: {atom}. r union {@9}, {@1} union {@2}, empty[atom])").unwrap();
        assert_eq!(eval_closed(&l).unwrap(), Value::atom_set(vec![9]));
    }

    #[test]
    fn parses_extern_calls_and_variables() {
        let e = parse_expr("nat_add(2, 3)").unwrap();
        assert_eq!(eval_closed(&e).unwrap(), Value::Nat(5));
        let v = parse_expr("some_relation").unwrap();
        assert_eq!(v, Expr::var("some_relation"));
    }

    #[test]
    fn reports_errors_with_positions() {
        assert!(parse_expr("dcr(true, true)").is_err());
        assert!(parse_expr("{@1} union").is_err());
        assert!(parse_expr("(@1, @2").is_err());
        assert!(parse_expr("@1 @2").is_err());
        let err = parse_expr("if true then @1").unwrap_err();
        assert!(err.to_string().contains("else"));
    }

    #[test]
    fn unexpected_tokens_report_byte_spans() {
        // The offending token is `@2` at bytes 3..5: the same unit (byte
        // offsets) the lexer reports, not a token index.
        let err = parse_expr("@1 @2").unwrap_err();
        match &err {
            ParseError::Unexpected { span, found, .. } => {
                assert_eq!(*span, Span::new(3, 5));
                assert_eq!(
                    found.as_ref().map(|t| t.to_string()),
                    Some("@2".to_string())
                );
            }
            other => panic!("expected Unexpected, got {other:?}"),
        }
        assert!(err.to_string().starts_with("parse error at byte 3"));
        // A missing closing token at end of input reports an empty span just
        // past the text.
        let eof = parse_expr("(@1, @2").unwrap_err();
        assert_eq!(eof.span(), Span::point(7));
        assert!(eof.to_string().contains("end of input"));
        assert!(eof.to_string().starts_with("parse error at byte 7"));
        // Input that ends mid-construct re-points at the last token, byte-wise.
        let tail = parse_expr("{@1} union").unwrap_err();
        assert_eq!(tail.span(), Span::new(5, 10));
    }

    #[test]
    fn every_parsed_node_is_spanned_within_the_source() {
        let text = "let r = {(@1, @2)} in dcr(empty[(atom * atom)], \\y: atom. r, \
                    \\p: ({(atom * atom)} * {(atom * atom)}). pi1 p union pi2 p, {@1} union {@2})";
        let e = parse_expr(text).unwrap();
        let mut nodes = 0usize;
        e.visit(&mut |n| {
            nodes += 1;
            let span = n.span.expect("parsed node lacks a span");
            assert!(span.start <= span.end, "inverted span {span}");
            assert!(span.end <= text.len(), "span {span} exceeds source");
            assert!(!span.is_empty(), "parsed node has an empty span");
        });
        assert!(nodes >= 20, "visited only {nodes} nodes");
        // The root covers the whole text.
        assert_eq!(e.span, Some(Span::new(0, text.len())));
    }

    #[test]
    fn spans_slice_the_source_to_the_subterm() {
        let text = "{@1} union {@23}";
        let e = parse_expr(text).unwrap();
        assert_eq!(e.span, Some(Span::new(0, text.len())));
        if let ExprKind::Union(a, b) = &e.kind {
            let sa = a.span.unwrap();
            let sb = b.span.unwrap();
            assert_eq!(&text[sa.start..sa.end], "{@1}");
            assert_eq!(&text[sb.start..sb.end], "{@23}");
        } else {
            panic!("expected a union");
        }
    }

    #[test]
    fn parses_bounded_recursors() {
        let text = "bdcr(empty[atom], \\y: atom. {y}, \
                    \\p: ({atom} * {atom}). pi1 p union pi2 p, \
                    {@1} union {@2}, {@1} union {@2} union {@3})";
        let e = parse_expr(text).unwrap();
        assert_eq!(eval_closed(&e).unwrap(), Value::atom_set(vec![1, 2]));
    }

    #[test]
    fn nesting_is_bounded_before_the_stack_is() {
        let nest = |open: &str, n: usize, leaf: &str, close: &str| {
            format!("{}{leaf}{}", open.repeat(n), close.repeat(n))
        };
        // The leaf is itself one level, so MAX_DEPTH - 1 brackets fit.
        for (open, close) in [("(", ")"), ("{", "}")] {
            assert!(parse_expr(&nest(open, MAX_DEPTH - 1, "@1", close)).is_ok());
            let err = parse_expr(&nest(open, MAX_DEPTH, "@1", close)).unwrap_err();
            // The offending token is the leaf `@1`: level MAX_DEPTH + 1.
            assert_eq!(
                err,
                ParseError::TooDeep {
                    span: Span::new(MAX_DEPTH, MAX_DEPTH + 2),
                    limit: MAX_DEPTH
                }
            );
            assert!(err.to_string().contains("nesting deeper than 48 levels"));
        }
        // Every recursion cycle is budgeted: binder bodies, projection
        // chains (which never re-enter `parse_expr`), and types.
        let deep = 10_000;
        for text in [
            nest("(", deep, "@1", ")"),
            nest("\\x: atom. ", deep, "x", ""),
            nest("pi1 ", deep, "p", ""),
            format!("empty[{}]", nest("{", deep, "atom", "}")),
        ] {
            assert!(matches!(parse_expr(&text), Err(ParseError::TooDeep { .. })));
        }
        assert!(matches!(
            parse_type(&nest("(", deep, "atom", ")")),
            Err(ParseError::TooDeep { .. })
        ));
    }

    #[test]
    fn union_links_are_budgeted_per_text() {
        let chain = |operands: usize| vec!["{@1}"; operands].join(" union ");
        // The budget itself parses; one link more is refused at that `union`.
        assert!(parse_expr(&chain(MAX_UNION_LINKS + 1)).is_ok());
        let text = chain(MAX_UNION_LINKS + 2);
        let at = text.rfind("union").unwrap();
        assert_eq!(
            parse_expr(&text).unwrap_err(),
            ParseError::TooDeep {
                span: Span::new(at, at + 5),
                limit: MAX_UNION_LINKS
            }
        );
        // Per text, not per chain: three nested chains, each a third of the
        // budget plus one, together exceed it.
        let third = chain(MAX_UNION_LINKS / 3 + 2);
        assert!(parse_expr(&format!("{third} union {{{third}}}")).is_ok());
        let nested = format!("{third} union {{{third} union {{{third}}}}}");
        assert!(matches!(
            parse_expr(&nested),
            Err(ParseError::TooDeep {
                limit: MAX_UNION_LINKS,
                ..
            })
        ));
        assert!(matches!(
            parse_expr(&chain(20_000)),
            Err(ParseError::TooDeep { .. })
        ));
        // A 128-operand literal set is well within the budget, and printing
        // it back recurses on all 127 links.
        let literal: Vec<String> = (1..=128).map(|i| format!("{{@{i}}}")).collect();
        let parsed = parse_expr(&literal.join(" union ")).unwrap();
        let printed = crate::pretty::print_expr(&parsed);
        assert_eq!(printed.matches(" union ").count(), 127);
        assert!(printed.ends_with("union ({@128}))"));
    }
}
